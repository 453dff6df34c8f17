"""The lifetime-campaign grid: what ages, how fast, and in what weather.

A campaign cell is one device living through ``phases`` aging phases of a
``lifetime_hours`` service life.  The grid crosses:

* **policy** — any tournament read-retry policy (canonical names of
  :data:`repro.tournament.POLICY_ALIASES`);
* **P/E schedule** — a named wear curve mapping phase index to cumulative
  program/erase cycles (:data:`PE_SCHEDULES`, scaled to the kind's
  end-of-life count in :data:`END_PE`);
* **environment** — a named :class:`~repro.faults.plan.FaultPlan` of
  ``env.*`` specs whose windows are read in **hours of device life**
  (:func:`environment_plan`); temperature steps reprice retention through
  the Arrhenius law, power-loss windows drop the volatile voltage cache;
* **workload** — a synthetic MSR frontend replayed through the persistent
  serving broker each phase.

Everything here is pure data + arithmetic: the runner
(:mod:`repro.campaign.runner`) owns all simulation state.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.flash.mechanisms import ROOM_TEMP_C

#: End-of-life cumulative P/E cycles per chip kind — the value every wear
#: schedule reaches at the final phase (the tournament's "old" presets).
END_PE: Dict[str, int] = {"tlc": 5000, "qlc": 1000}

#: Named wear curves: fraction of end-of-life P/E reached at life
#: fraction ``x`` in (0, 1].  Kept as pure shape functions so one schedule
#: serves every kind and phase count.
PE_SCHEDULES: Dict[str, Any] = {
    # constant write pressure over the whole life
    "steady": lambda x: x,
    # read-mostly archive: half the endurance budget ever consumed
    "gentle": lambda x: 0.5 * x,
    # heavy ingest early, then mostly reads — wear front-loaded
    "burn-in": lambda x: math.sqrt(x),
}


def pe_at(schedule: str, phase: int, phases: int, end_pe: int) -> int:
    """Cumulative P/E cycles after ``phase`` of ``phases`` (1-based)."""
    if schedule not in PE_SCHEDULES:
        raise ValueError(
            f"unknown P/E schedule {schedule!r}; "
            f"one of {sorted(PE_SCHEDULES)}"
        )
    if not 1 <= phase <= phases:
        raise ValueError("phase must be in [1, phases]")
    return int(round(end_pe * PE_SCHEDULES[schedule](phase / phases)))


#: virtual-time gap between a phase's end and the next phase's first
#: arrival (the months of aging compress into this quiet window)
INTER_PHASE_GAP_US = 200_000.0

#: Named environments (see :func:`environment_plan`).
ENVIRONMENT_NAMES: Tuple[str, ...] = ("room", "hot", "heat-wave", "outage")


def environment_plan(name: str, lifetime_hours: float) -> FaultPlan:
    """Build the named environment as a :class:`FaultPlan` of ``env.*``
    specs with windows in **hours** of the given device lifetime.

    ``room``
        constant 25 C, no events — the constant-temperature baseline whose
        aging path is bit-identical to plain ``with_retention`` calls.
    ``hot``
        the whole life at 60 C (a poorly cooled enclosure).
    ``heat-wave``
        25 C except a 70 C excursion across the middle fifth of life.
    ``outage``
        25 C with a power-loss window just past mid-life: the volatile
        voltage-offset cache is gone at the next serving phase.
    """
    if lifetime_hours <= 0:
        raise ValueError("lifetime_hours must be positive")
    L = lifetime_hours
    if name == "room":
        return FaultPlan(name="room", specs=())
    if name == "hot":
        return FaultPlan(name="hot", specs=(
            FaultSpec("env.temperature_step", magnitude=60.0),
        ))
    if name == "heat-wave":
        return FaultPlan(name="heat-wave", specs=(
            FaultSpec("env.temperature_step", magnitude=70.0,
                      start_us=0.4 * L, end_us=0.6 * L),
        ))
    if name == "outage":
        return FaultPlan(name="outage", specs=(
            FaultSpec("env.power_loss", start_us=0.5 * L,
                      end_us=0.5 * L + max(1.0, 0.001 * L)),
        ))
    raise ValueError(
        f"unknown environment {name!r}; one of {sorted(ENVIRONMENT_NAMES)}"
    )


def temperature_segments(
    plan: FaultPlan, h0: float, h1: float
) -> Tuple[Tuple[float, float], ...]:
    """Piecewise-constant ``(hours, temperature_c)`` segments over the
    lifetime interval ``[h0, h1)``.

    ``env.temperature_step`` windows are read in hours; inside a window the
    ambient sits at the spec's magnitude, outside at ``ROOM_TEMP_C``.
    When windows overlap, the **last** spec in plan order wins — plans
    are ordered data, so the outcome is deterministic.  An eventless
    interval collapses to one segment at ``ROOM_TEMP_C``, which keeps the
    constant-temperature aging path bit-identical to a plain
    ``with_retention`` call.
    """
    if h1 < h0:
        raise ValueError("h1 must be >= h0")
    steps = plan.by_kind("env.temperature_step")
    cuts = {h0, h1}
    for spec in steps:
        cuts.add(min(max(spec.start_us, h0), h1))
        if spec.end_us is not None:
            cuts.add(min(max(spec.end_us, h0), h1))
    edges = sorted(cuts)
    segments = []
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        temp = ROOM_TEMP_C
        for spec in steps:
            if a >= spec.start_us and (spec.end_us is None or a < spec.end_us):
                temp = spec.strength
        segments.append((b - a, temp))
    return tuple(segments)


def power_loss_count(plan: FaultPlan, h0: float, h1: float) -> int:
    """Power-loss windows intersecting the lifetime interval ``[h0, h1)``."""
    count = 0
    for spec in plan.by_kind("env.power_loss"):
        end = spec.end_us
        if spec.start_us < h1 and (end is None or end > h0):
            count += 1
    return count


@dataclass(frozen=True)
class CampaignConfig:
    """One lifetime campaign's grid and sizing."""

    kind: str = "tlc"
    policies: Tuple[str, ...] = ("sentinel", "current-flash")
    schedules: Tuple[str, ...] = ("steady",)
    environments: Tuple[str, ...] = ("room",)
    workloads: Tuple[str, ...] = ("hm_0",)
    #: aging phases per cell; each ends with one serving window
    phases: int = 4
    #: total device life in hours (default one year)
    lifetime_hours: float = 8760.0
    requests_per_phase: int = 160
    cells_per_wordline: int = 8192
    sentinel_ratio: float = 0.02
    wordline_step: int = 8
    scale: float = 1.0
    workers: int = 1

    def __post_init__(self) -> None:
        from repro.tournament import POLICY_ALIASES
        from repro.traces.synthetic import MSR_WORKLOADS

        for axis in ("policies", "schedules", "environments", "workloads"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must not be empty")
        for name in self.policies:
            if name not in POLICY_ALIASES:
                raise ValueError(
                    f"unknown policy {name!r}; "
                    f"use one of {sorted(POLICY_ALIASES)}"
                )
        if self.kind.lower() not in END_PE:
            raise ValueError(f"unknown chip kind {self.kind!r}")
        for name in self.schedules:
            if name not in PE_SCHEDULES:
                raise ValueError(
                    f"unknown P/E schedule {name!r}; "
                    f"one of {sorted(PE_SCHEDULES)}"
                )
        for name in self.environments:
            environment_plan(name, max(self.lifetime_hours, 1.0))
        for name in self.workloads:
            if name not in MSR_WORKLOADS:
                raise ValueError(
                    f"unknown workload {name!r}; "
                    f"one of {sorted(MSR_WORKLOADS)}"
                )
        for name in ("phases", "requests_per_phase"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.phases < 1:
            raise ValueError("phases must be positive")
        if self.lifetime_hours <= 0:
            raise ValueError("lifetime_hours must be positive")
        if self.requests_per_phase < 1:
            raise ValueError("requests_per_phase must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        for name in ("policies", "schedules", "environments", "workloads"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        for name in ("policies", "schedules", "environments", "workloads"):
            payload[name] = list(payload[name])
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignConfig":
        """Build a config from a ``--grid`` JSON object (strict keys)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown CampaignConfig fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        for name in ("policies", "schedules", "environments", "workloads"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(str(x) for x in kwargs[name])
        return cls(**kwargs)
