"""Physical error mechanisms of 3D NAND.

The model decomposes the threshold-voltage (Vth) disturbance of a cell into
the mechanisms the paper characterizes (Section II):

* **P/E wear** — program/erase cycling damages the tunnel oxide; programmed
  distributions widen with cycle count and retention loss accelerates.
* **Retention loss** — trapped charge leaks over time, shifting programmed
  states downward.  The paper observes (Figure 6) that on its chips the
  *lower* programmed states need the largest read-voltage corrections, so the
  per-state shift weight decreases with the state index; we follow that
  observed profile rather than assuming charge-proportional loss.
* **Temperature** — retention is thermally activated; we use an Arrhenius
  acceleration factor relative to 25 degC, which reproduces Section II-B2:
  one hour at 80 degC ages a block like weeks at room temperature.
* **Read disturb** — weak programming of low states by repeated reads.  The
  paper measured no degradation below one million reads; the model matches
  that by keeping the disturb shift negligible until ~1e6 reads.

All voltages are normalized DAC steps (the paper's state pitch: 256 for TLC,
128 for QLC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.flash.spec import FlashSpec

BOLTZMANN_EV = 8.617333262e-5  # eV / K
_CELSIUS_OFFSET = 273.15
ROOM_TEMP_C = 25.0
HOURS_PER_YEAR = 8760.0
#: Conventional activation energy of charge de-trapping; both shipped
#: specs carry this value in ``reliability.ea_ev``.
DEFAULT_EA_EV = 1.1


@dataclass(frozen=True)
class StressState:
    """The stress history of a block at read time.

    Attributes
    ----------
    pe_cycles:
        Number of program/erase cycles endured.
    retention_hours:
        Time since programming, in hours.
    temperature_c:
        Storage temperature during retention, in Celsius.
    read_count:
        Number of reads since programming (read disturb).
    """

    pe_cycles: int = 0
    retention_hours: float = 0.0
    temperature_c: float = ROOM_TEMP_C
    read_count: int = 0

    def __post_init__(self) -> None:
        if self.pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        if self.retention_hours < 0:
            raise ValueError("retention_hours must be non-negative")
        if self.read_count < 0:
            raise ValueError("read_count must be non-negative")

    def with_retention(
        self,
        hours: float,
        temperature_c: "float | None" = None,
        ea_ev: float = DEFAULT_EA_EV,
    ) -> "StressState":
        """A copy aged by ``hours`` (optionally at a different temperature).

        A :class:`StressState` stores its whole retention history as one
        ``(retention_hours, temperature_c)`` pair, so stepping to a *new*
        temperature must not re-price the hours already endured: the prior
        hours are converted to their Arrhenius-equivalent duration at the
        new temperature before the new segment is added.  That makes
        piecewise temperature profiles compose — ``a`` hours at ``T1``
        followed by ``b`` hours at ``T2`` accumulates the same effective
        room-temperature exposure regardless of how the segments are
        split.  ``ea_ev`` is the activation energy used for the
        conversion; callers with a spec in hand should pass
        ``spec.reliability.ea_ev`` (the shipped specs use the
        conventional 1.1 eV, which is also the default here).

        The constant-temperature path (``temperature_c`` omitted or equal
        to the current temperature) is a plain sum of hours —
        bit-identical to the historical behaviour.
        """
        if hours < 0:
            raise ValueError("hours must be non-negative")
        temp = self.temperature_c if temperature_c is None else temperature_c
        prior = self.retention_hours
        if temp != self.temperature_c and prior > 0.0:
            # equivalent duration of the prior exposure at the new
            # temperature: hours * AF(T_old relative to T_new), so that
            # (prior_equiv + hours) * AF(T_new) == the sum of each
            # segment's effective room-temperature exposure
            prior *= arrhenius_factor(
                self.temperature_c, ea_ev, reference_c=temp
            )
        return replace(
            self, retention_hours=prior + hours, temperature_c=temp
        )

    def key(self) -> tuple:
        """Hashable key used to derive per-stress random streams."""
        return (
            self.pe_cycles,
            round(self.retention_hours, 6),
            round(self.temperature_c, 3),
            self.read_count,
        )


def arrhenius_factor(
    temperature_c: float, ea_ev: float, reference_c: float = ROOM_TEMP_C
) -> float:
    """Thermal acceleration of retention relative to ``reference_c``.

    ``AF = exp(Ea/k * (1/T_ref - 1/T))`` with temperatures in Kelvin.  With
    the conventional Ea = 1.1 eV for charge de-trapping, one hour at 80 degC
    corresponds to roughly 800 hours at 25 degC.
    """
    t = temperature_c + _CELSIUS_OFFSET
    t_ref = reference_c + _CELSIUS_OFFSET
    return math.exp(ea_ev / BOLTZMANN_EV * (1.0 / t_ref - 1.0 / t))


def retention_scale(stress: StressState, spec: "FlashSpec") -> float:
    """Dimensionless retention severity.

    Normalized so that one year at room temperature with zero P/E cycles is
    exactly 1.0.  Time enters logarithmically (charge de-trapping), the
    temperature through the Arrhenius factor, and P/E cycling multiplies the
    loss rate (worn oxide leaks faster).
    """
    rel = spec.reliability
    if stress.retention_hours <= 0.0:
        return 0.0
    effective_hours = stress.retention_hours * arrhenius_factor(
        stress.temperature_c, rel.ea_ev
    )
    time_term = math.log1p(effective_hours / rel.t0_hours) / math.log1p(
        HOURS_PER_YEAR / rel.t0_hours
    )
    pe_term = 1.0 + rel.pe_shift_accel * stress.pe_cycles / 1000.0
    return time_term * pe_term


def state_shift_weights(spec: "FlashSpec") -> np.ndarray:
    """Per-state retention shift weights ``w(s)`` for all states.

    Programmed states interpolate linearly from ``state_weight_low`` at S1 to
    ``state_weight_high`` at the top state, matching the paper's observation
    (Figure 6) that the optimal offsets of the low read voltages are the most
    negative.  The erased state S0 gets weight 0 here — its (small, upward)
    shift is handled separately by :func:`state_mean_shifts`.
    """
    rel = spec.reliability
    n = spec.n_states
    weights = np.zeros(n, dtype=np.float64)
    if n > 2:
        frac = (np.arange(1, n) - 1) / (n - 2)
    else:  # pragma: no cover - SLC would have a single programmed state
        frac = np.zeros(n - 1)
    weights[1:] = rel.state_weight_low + frac * (
        rel.state_weight_high - rel.state_weight_low
    )
    return weights


def state_mean_shifts(spec: "FlashSpec", stress: StressState) -> np.ndarray:
    """Mean Vth shift of every state (DAC steps, negative = downward).

    Programmed states shift down by ``retention_scale * w(s) * scale`` steps;
    the erased state creeps slightly upward (charge gain / disturb), which is
    why V1 shows the opposite, noisier behaviour on real chips.
    """
    rel = spec.reliability
    scale = retention_scale(stress, spec)
    shifts = -rel.retention_shift_steps * scale * state_shift_weights(spec)
    shifts[0] = rel.erase_shift_steps * scale
    # read disturb soft-programs the low-Vth states: the pass voltage on
    # unselected wordlines injects charge most easily into weakly-charged
    # cells, so the erased and low states creep up while the top states
    # barely move
    disturb = read_disturb_shift(spec, stress)
    if disturb:
        weights = np.exp(-1.2 * np.arange(spec.n_states))
        shifts += disturb * weights
    return shifts


def state_sigmas(spec: "FlashSpec", stress: StressState) -> np.ndarray:
    """Core (Gaussian) standard deviation of every state distribution.

    The programmed sigma grows with P/E wear as ``coeff * PE**exp`` (oxide
    damage) combined in quadrature with the program-time placement noise.
    Retention adds further spread through the per-cell leak-rate variation in
    :mod:`repro.flash.vth`, not here.
    """
    rel = spec.reliability
    wear = rel.sigma_wear_coeff * float(stress.pe_cycles) ** rel.sigma_wear_exp
    prog = np.full(spec.n_states, spec.sigma_prog, dtype=np.float64)
    prog[0] = spec.sigma_erase
    return np.sqrt(prog**2 + wear**2)


def read_disturb_shift(spec: "FlashSpec", stress: StressState) -> float:
    """Uniform upward creep from read disturb (DAC steps).

    Negligible below ~1e6 reads, matching the paper's measurement that "read
    disturbance does not introduce reliability degradation until one million
    read operations".
    """
    rel = spec.reliability
    if stress.read_count <= 0:
        return 0.0
    return rel.read_disturb_per_mega * (stress.read_count / 1e6)
