"""A per-wordline numpy oracle of the flash read path, for tests only.

The simulator reads every wordline through the columnar kernels of
:mod:`repro.flash.block`.  This module keeps an independent, deliberately
plain per-row statement of the same model — construction draws, Vth
synthesis, comparator noise, page sensing/decode and the sentinel
readout — so tests can check the kernels against it row for row.  It
shares only the seed tree, the latent sampler, the Gray code and the
stress mechanisms with the simulator, and uses ``np.searchsorted`` for
sensing where the kernels count comparisons.

It also keeps the per-row ground-truth optimal search — per-state sorted
Vth, an up/down ``searchsorted`` pair per voltage and a scalar walk over
the error curve — that :mod:`repro.flash.optimal`'s batched kernel must
match exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.flash.mechanisms import (
    StressState,
    retention_scale,
    state_mean_shifts,
    state_shift_weights,
    state_sigmas,
)
from repro.flash.spec import FlashSpec
from repro.flash.variation import BlockVariation, WordlineModifiers
from repro.flash.vth import CellLatents, sample_latents
from repro.flash.wordline import make_offsets
from repro.util.rng import derive_rng


def synthesize_vth(
    spec: FlashSpec,
    states: np.ndarray,
    stress: StressState,
    mods: WordlineModifiers,
    latents: CellLatents,
) -> np.ndarray:
    """Threshold voltage of every cell of one wordline (float32).

    ``vth = center(s) + jitter(s) + prog_noise * sigma(s) * sigma_mult
    + shift(s) * shift_mult * leak_rate - tail - anomaly``
    """
    rel = spec.reliability
    sigmas = state_sigmas(spec, stress) * mods.sigma_mult
    shifts = state_mean_shifts(spec, stress) * mods.shift_mult
    rscale = retention_scale(stress, spec)

    means = (spec.state_centers + mods.state_jitter + 0.0)[states]
    vth = means + latents.prog_noise * sigmas[states]
    vth += shifts[states] * latents.leak_rate

    programmed = states > 0
    if rscale > 0.0:
        tail_depth = rel.tail_scale_steps * min(rscale, 1.5)
        vth -= np.where(programmed, latents.tail_mag * tail_depth, 0.0)
        if mods.anomaly is not None:
            weights = state_shift_weights(spec)[states]
            seg = mods.anomaly.mask(len(states))
            vth -= np.where(
                seg & programmed, mods.anomaly.amp_steps * rscale * weights, 0.0
            )
    return vth.astype(np.float32)


class OracleWordline:
    """One wordline materialized and read the per-row way."""

    def __init__(
        self,
        spec: FlashSpec,
        chip_seed: int,
        block: int,
        index: int,
        stress: Optional[StressState] = None,
        sentinel_ratio: float = 0.002,
    ) -> None:
        self.spec = spec
        n = spec.cells_per_wordline
        data_rng = derive_rng(chip_seed, "data", block, index)
        self.states = data_rng.integers(0, spec.n_states, size=n).astype(np.int16)
        n_sent = spec.sentinel_cells(sentinel_ratio) if sentinel_ratio > 0 else 0
        self.sentinel_indices = np.linspace(0, n - 1, n_sent).astype(np.int64)
        s_low, s_high = spec.gray.adjacent_states(spec.sentinel_voltage)
        self.states[self.sentinel_indices] = np.where(
            np.arange(n_sent) % 2 == 0, s_low, s_high
        )
        self.data_mask = np.ones(n, dtype=bool)
        self.data_mask[self.sentinel_indices] = False
        latents = sample_latents(
            spec, n, derive_rng(chip_seed, "latent", block, index)
        )
        self.read_rng = derive_rng(chip_seed, "readnoise", block, index)
        mods = BlockVariation(spec, chip_seed, block).wordline_modifiers(index)
        self.vth = synthesize_vth(
            spec, self.states, stress or StressState(), mods, latents
        )

    def _noise(self, n: int) -> np.ndarray:
        sigma = self.spec.read_noise_sigma
        if sigma <= 0.0:
            return np.zeros(n, dtype=np.float32)
        return (sigma * self.read_rng.standard_normal(n)).astype(np.float32)

    def read_page(self, page, offsets=None) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(data-cell bits, data-cell mismatch mask, error count)``."""
        spec = self.spec
        p = spec.gray.page_index(page)
        idx = spec.gray.page_voltage_arrays[p]
        dense = make_offsets(spec, offsets)
        positions = np.sort(spec.default_read_voltages[idx] + dense[idx])
        sensed = self.vth + self._noise(len(self.vth))
        regions = np.searchsorted(positions, sensed, side="left")
        bits = spec.gray.region_bits(p)[regions]
        stored = spec.gray.stored_bits(p, self.states)
        mismatch = (bits != stored)[self.data_mask]
        return bits[self.data_mask], mismatch, int(mismatch.sum())

    def sentinel_readout(self, offset: float = 0.0) -> Tuple[int, int]:
        """``(up errors, down errors)`` of the sentinel cells."""
        spec = self.spec
        pos = spec.read_voltage(spec.sentinel_voltage, offset)
        idx = self.sentinel_indices
        high = self.vth[idx] + self._noise(len(idx)) >= pos
        s_low, s_high = spec.gray.adjacent_states(spec.sentinel_voltage)
        states = self.states[idx]
        up = int(np.count_nonzero((states == s_low) & high))
        down = int(np.count_nonzero((states == s_high) & ~high))
        return up, down


# ----------------------------------------------------------------------
# ground-truth optimal search, one row at a time
# ----------------------------------------------------------------------
def boundary_error_counts(
    wl, vindex: int, offsets: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Noiseless ``(up, down)`` counts of ``V_vindex`` at each offset.

    ``wl`` is anything with ``spec``, ``states``, ``vth`` and
    ``data_mask`` (a :class:`~repro.flash.wordline.Wordline` or an
    :class:`OracleWordline`).
    """
    spec = wl.spec
    lo_state, hi_state = spec.gray.adjacent_states(vindex)
    thresholds = spec.default_read_voltages[vindex - 1] + np.asarray(
        offsets, dtype=np.float64
    )
    lo_vals = np.sort(wl.vth[(wl.states == lo_state) & wl.data_mask])
    hi_vals = np.sort(wl.vth[(wl.states == hi_state) & wl.data_mask])
    up = len(lo_vals) - np.searchsorted(lo_vals, thresholds, side="left")
    down = np.searchsorted(hi_vals, thresholds, side="left")
    return up.astype(np.int64), down.astype(np.int64)


def window_centre(errors: np.ndarray, offsets: np.ndarray) -> int:
    """Centre of the near-minimal run of an error curve (scalar walk)."""
    best_index = int(np.argmin(errors))
    best = int(errors[best_index])
    tolerance = best + max(2.0, 0.03 * best)
    run_lo = best_index
    while run_lo - 1 >= 0 and errors[run_lo - 1] <= tolerance:
        run_lo -= 1
    run_hi = best_index
    while run_hi + 1 < len(errors) and errors[run_hi + 1] <= tolerance:
        run_hi += 1
    return int(round((offsets[run_lo] + offsets[run_hi]) / 2.0))


def optimal_offsets(
    wl,
    voltages: Optional[Sequence[int]] = None,
    search_range: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Dense optimal offsets of the requested voltages (others 0)."""
    from repro.flash.optimal import default_search_range

    spec = wl.spec
    if voltages is None:
        voltages = range(1, spec.n_voltages + 1)
    lo, hi = search_range or default_search_range(spec.state_pitch)
    offsets = np.arange(lo, hi)
    dense = np.zeros(spec.n_voltages, dtype=np.float64)
    for v in voltages:
        up, down = boundary_error_counts(wl, v, offsets)
        dense[v - 1] = window_centre(up + down, offsets)
    return dense


def one_row_wordlines(chip, block: int, indices: Optional[Sequence[int]] = None):
    """Each listed wordline of ``block`` as a standalone one-row store.

    The per-row reference of a block sweep: ``Wordline`` objects built
    one at a time at the block's current stress, with the chip's
    sentinel ratio and block variation, in ``indices`` order (default:
    the whole block).
    """
    from repro.flash.wordline import Wordline

    if indices is None:
        indices = range(chip.spec.wordlines_per_block)
    return [
        Wordline(
            chip.spec, chip.seed, block, index,
            stress=chip.block_stress(block),
            sentinel_ratio=chip.sentinel_ratio,
            variation=chip.block_variation(block),
        )
        for index in indices
    ]
