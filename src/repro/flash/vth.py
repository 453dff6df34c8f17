"""Per-cell threshold-voltage synthesis.

A cell's Vth at read time decomposes into stress-independent *latent*
variables sampled once per wordline (program placement noise, per-cell leak
rate, fast-detrapping tail membership) and deterministic stress-dependent
terms (mean shift, wear widening).  Because the latents are persistent,
evaluating the same wordline under two stress conditions — e.g. one hour at
room temperature versus 80 degC, as in Figures 4 and 5 — moves the *same
physical cells*, which is what makes the temperature comparisons meaningful.

Distributions are a Gaussian core plus a downward exponential tail carried by
a small fraction of fast-detrapping cells.  Real 3D NAND Vth distributions
have exactly this shape; the tail is what lets boundary error counts stay
informative (steep in the offset) while the RBER at the optimal voltage stays
low.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

from repro.engine import lane_count, run_lanes
from repro.flash.mechanisms import (
    StressState,
    retention_scale,
    state_mean_shifts,
    state_shift_weights,
    state_sigmas,
)
from repro.flash.spec import FlashSpec
from repro.flash.variation import WordlineModifiers

#: Target elements per row chunk of a batched kernel (Vth synthesis here,
#: sensing in :mod:`repro.flash.block`): 512 KB per float64 temporary, so
#: the working set stays in cache and the scratch stays a few MB whatever
#: the block size.  Rows are independent, so the chunk changes no value.
CHUNK_ELEMS = 1 << 16


def for_row_pieces(
    n_rows: int,
    n_cells: int,
    kernel: Callable[[int, int], None],
    one_lane: bool = False,
) -> None:
    """Run ``kernel(r0, r1)`` on every piece ``[r0, r1)`` of ``n_rows`` rows
    of ``n_cells`` cells, split across the host's lanes.

    The one row-chunk runner of the batched flash kernels.  The lanes
    (:func:`repro.engine.lane_count`, one if ``one_lane``) share one
    chunk of :data:`CHUNK_ELEMS` cells: a piece is contiguous and at
    most ``1 / lanes`` of a chunk (or one row), so the scratch of the pieces in
    flight stays one chunk whatever the lane count, and a call of few
    rows is cut into one piece per lane.  Lane ``i`` runs pieces ``i, i
    + lanes, ...`` in order, lane 0 on the calling thread
    (:func:`repro.engine.run_lanes`).

    The output is bit-identical at any lane count as long as ``kernel``
    computes only its piece's rows: it reads shared arrays, writes its
    rows of the outputs and draws only from its rows' generators, which
    no other piece shares.  Memos are filled before the call; telemetry,
    fault hooks and traced entry points stay out of ``kernel``, on the
    calling thread.
    """
    if n_rows <= 0:
        return
    chunk = max(1, CHUNK_ELEMS // max(n_cells, 1))
    lanes = 1 if one_lane or n_rows == 1 else lane_count()
    size = max(1, min(chunk // lanes, -(-n_rows // lanes)))
    pieces = [(r0, min(r0 + size, n_rows)) for r0 in range(0, n_rows, size)]
    lanes = min(lanes, len(pieces))
    if lanes == 1:
        _run_pieces(kernel, pieces)
    else:
        run_lanes([
            partial(_run_pieces, kernel, pieces[i::lanes]) for i in range(lanes)
        ])


def _run_pieces(
    kernel: Callable[[int, int], None], pieces: List[Tuple[int, int]]
) -> None:
    for r0, r1 in pieces:
        kernel(r0, r1)


@dataclass(frozen=True)
class CellLatents:
    """Stress-independent randomness of one wordline's cells."""

    prog_noise: np.ndarray  # standard normal, scaled by sigma at read time
    leak_rate: np.ndarray  # per-cell retention multiplier, mean 1.0
    tail_mag: np.ndarray  # >=0; nonzero only for fast-detrapping cells


def sample_latents(spec: FlashSpec, n_cells: int, rng: np.random.Generator) -> CellLatents:
    """Draw the persistent latent variables for ``n_cells`` cells."""
    rel = spec.reliability
    prog_noise = rng.standard_normal(n_cells).astype(np.float32)
    leak_rate = (
        1.0 + rel.leak_rate_spread * rng.standard_normal(n_cells)
    ).astype(np.float32)
    np.clip(leak_rate, 0.0, None, out=leak_rate)
    tail_mask = rng.random(n_cells) < rel.tail_fraction
    tail_mag = np.zeros(n_cells, dtype=np.float32)
    tail_mag[tail_mask] = rng.exponential(1.0, size=int(tail_mask.sum())).astype(
        np.float32
    )
    return CellLatents(prog_noise=prog_noise, leak_rate=leak_rate, tail_mag=tail_mag)


def synthesize_vth_batch(
    spec: FlashSpec,
    states: np.ndarray,  # (wordlines, cells) int
    stress: StressState,
    mods_list: "list[WordlineModifiers]",
    prog_noise: np.ndarray,  # (wordlines, cells) float32
    leak_rate: np.ndarray,  # (wordlines, cells) float32
    tail_mag: np.ndarray,  # (wordlines, cells) float32
) -> np.ndarray:
    """Threshold voltage of every cell of every row under ``stress`` (float32).

    ``vth = center(s) + jitter(s) + prog_noise * sigma(s) * sigma_mult
    + shift(s) * shift_mult * leak_rate - tail - anomaly``, with the
    jitter and multipliers taken from each row's modifiers.  The tail and
    the spatial anomaly only act on programmed states and only once
    retention has begun (both scale with the retention severity).

    Every term is elementwise (or a per-row gather), so a row's result
    does not depend on which other rows share the call.  Rows are
    processed in cache-sized pieces (:func:`for_row_pieces`): the float64
    intermediates of a whole block would otherwise stream hundreds of MB
    through memory.
    """
    rel = spec.reliability
    centers = spec.state_centers
    base_sigmas = state_sigmas(spec, stress)
    base_shifts = state_mean_shifts(spec, stress)
    rscale = retention_scale(stress, spec)

    n_wordlines, n_cells = states.shape
    sigma_mult = np.array([m.sigma_mult for m in mods_list], dtype=np.float64)
    shift_mult = np.array([m.shift_mult for m in mods_list], dtype=np.float64)
    jitter = np.stack([m.state_jitter for m in mods_list])
    # (wordlines, n_states) per-row tables; the scalar-x-vector products of
    # the per-row path become elementwise products of the same operands
    sigmas = base_sigmas[None, :] * sigma_mult[:, None]
    shifts = base_shifts[None, :] * shift_mult[:, None]
    mean_tab = centers[None, :] + jitter + 0.0
    tail_depth = rel.tail_scale_steps * min(rscale, 1.5) if rscale > 0.0 else 0.0
    weights_tab = state_shift_weights(spec) if rscale > 0.0 else None

    out = np.empty((n_wordlines, n_cells), dtype=np.float32)
    n_states = mean_tab.shape[1]

    def synthesize(c0: int, c1: int) -> None:
        # one flat index into the chunk's (rows, n_states) tables serves
        # all three per-row gathers
        flat = states[c0:c1] + (np.arange(c1 - c0) * n_states)[:, None]
        means = mean_tab[c0:c1].ravel().take(flat)
        vth = means + prog_noise[c0:c1] * sigmas[c0:c1].ravel().take(flat)
        vth += shifts[c0:c1].ravel().take(flat) * leak_rate[c0:c1]
        if rscale > 0.0:
            programmed = states[c0:c1] > 0
            vth -= np.where(programmed, tail_mag[c0:c1] * tail_depth, 0.0)
            for j in range(c0, c1):
                anomaly = mods_list[j].anomaly
                if anomaly is not None:
                    w = weights_tab[states[j]]
                    seg = anomaly.mask(n_cells)
                    vth[j - c0] -= np.where(
                        seg & programmed[j - c0],
                        anomaly.amp_steps * rscale * w,
                        0.0,
                    )
        out[c0:c1] = vth  # float64 -> float32 cast, identical to astype

    for_row_pieces(n_wordlines, n_cells, synthesize)
    return out
