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

import numpy as np

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
    processed in cache-sized chunks: the float64 intermediates of a whole
    block would otherwise stream hundreds of MB through memory.
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
    chunk = max(1, CHUNK_ELEMS // max(n_cells, 1))
    n_states = mean_tab.shape[1]
    for c0 in range(0, n_wordlines, chunk):
        c1 = min(c0 + chunk, n_wordlines)
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
    return out
