"""Read-voltage sweeps and valley search: measured (not oracular) optima.

Real characterization cannot see cell voltages; it *sweeps*: read the
wordline at a ladder of threshold positions, count how many cells flip
between consecutive positions (that is the Vth histogram between those
thresholds), and place the read voltage at the valley — the bin where the
density between the two states is lowest.  The paper's ground-truth optima
were obtained exactly this way on its evaluation platform.

This module provides that measured path as an alternative to the analytic
search of :mod:`repro.flash.optimal`, including its real-world costs:
each sweep point is an actual (noisy) sensing operation, and the valley
position carries counting noise.  ``tests/test_sweep.py`` verifies the two
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.flash.wordline import Wordline


@dataclass(frozen=True)
class SweepResult:
    """Vth histogram of one boundary region measured by a read sweep."""

    vindex: int
    offsets: np.ndarray  # sweep positions (offsets from the default)
    cumulative: np.ndarray  # cells sensed below each position
    histogram: np.ndarray  # cells between consecutive positions
    reads_used: int

    def valley_offset(self, smooth: int = 3) -> float:
        """Offset of the density valley (midpoint of the minimal run).

        A short moving average suppresses counting noise before the argmin;
        ties resolve to the center of the minimal plateau, like the paper's
        sweeps (and like :func:`repro.flash.optimal.optimal_offset`).
        """
        hist = self.histogram.astype(np.float64)
        if smooth > 1:
            kernel = np.ones(smooth) / smooth
            hist = np.convolve(hist, kernel, mode="same")
        centers = (self.offsets[:-1] + self.offsets[1:]) / 2.0
        best = hist.min()
        tolerance = best + max(2.0, 0.05 * max(best, 1.0))
        lo = int(np.argmin(hist))
        hi = lo
        while lo - 1 >= 0 and hist[lo - 1] <= tolerance:
            lo -= 1
        while hi + 1 < len(hist) and hist[hi + 1] <= tolerance:
            hi += 1
        return float((centers[lo] + centers[hi]) / 2.0)


def read_sweep(
    wordline: Wordline,
    vindex: int,
    span: Optional[Tuple[int, int]] = None,
    step: int = 4,
) -> SweepResult:
    """Sweep one boundary with single-voltage reads.

    Each position is one sensing operation over the whole wordline; the
    difference between consecutive cumulative counts is the cell-density
    histogram a real controller extracts the valley from.
    """
    spec = wordline.spec
    if span is None:
        pitch = spec.state_pitch
        span = (-int(0.85 * pitch), int(0.35 * pitch))
    offsets = np.arange(span[0], span[1] + 1, step)
    base = spec.read_voltage(vindex)
    cumulative = np.empty(len(offsets), dtype=np.int64)
    for i, off in enumerate(offsets):
        above = wordline.single_voltage_read(base + off)
        cumulative[i] = wordline.n_cells - int(above.sum())
    histogram = np.diff(cumulative)
    # sensing noise can make the cumulative count locally non-monotone;
    # clip the histogram at zero like controller firmware does
    np.clip(histogram, 0, None, out=histogram)
    return SweepResult(
        vindex=vindex,
        offsets=offsets,
        cumulative=cumulative,
        histogram=histogram,
        reads_used=len(offsets),
    )


def measured_optimal_offset(
    wordline: Wordline,
    vindex: int,
    step: int = 4,
) -> Tuple[float, int]:
    """Valley position of one boundary plus the sweep's read cost."""
    sweep = read_sweep(wordline, vindex, step=step)
    return sweep.valley_offset(), sweep.reads_used


def measured_optimal_offsets(
    wordline: Wordline,
    step: int = 4,
) -> Tuple[np.ndarray, int]:
    """Sweep every boundary; returns (dense offsets, total reads used).

    The total read count is the overhead the paper's Section I attributes
    to tracking-style approaches: finding one wordline's optima costs on
    the order of a hundred reads.
    """
    spec = wordline.spec
    dense = np.zeros(spec.n_voltages)
    total_reads = 0
    for v in range(1, spec.n_voltages + 1):
        offset, reads = measured_optimal_offset(wordline, v, step=step)
        dense[v - 1] = offset
        total_reads += reads
    return dense, total_reads


# ----------------------------------------------------------------------
# columnar batched sweeps
# ----------------------------------------------------------------------
def measured_optimal_offsets_batch(
    cols, step: int = 4
) -> List[Tuple[np.ndarray, int]]:
    """Batched :func:`measured_optimal_offsets` over a columnar store.

    One :meth:`repro.flash.block.BlockColumns.single_voltage_counts`
    kernel call senses every wordline at each sweep position, in the same
    (boundary, position) order the per-wordline loop uses — each row draws
    from its own read-noise stream, so every row's sweep is bit-identical
    to ``measured_optimal_offsets(cols.wordline_view(row), step=step)``.
    """
    spec = cols.spec
    pitch = spec.state_pitch
    span = (-int(0.85 * pitch), int(0.35 * pitch))
    sweep_offsets = np.arange(span[0], span[1] + 1, step)
    n_rows = cols.n_wordlines
    dense = np.zeros((n_rows, spec.n_voltages))
    reads_per_row = 0
    for v in range(1, spec.n_voltages + 1):
        base = spec.read_voltage(v)
        cumulative = np.empty((n_rows, len(sweep_offsets)), dtype=np.int64)
        for i, off in enumerate(sweep_offsets):
            above = cols.single_voltage_counts(base + off)
            cumulative[:, i] = cols.n_cells - above
        histogram = np.diff(cumulative, axis=1)
        np.clip(histogram, 0, None, out=histogram)
        reads_per_row += len(sweep_offsets)
        for r in range(n_rows):
            dense[r, v - 1] = SweepResult(
                vindex=v,
                offsets=sweep_offsets,
                cumulative=cumulative[r],
                histogram=histogram[r],
                reads_used=len(sweep_offsets),
            ).valley_offset()
    return [(dense[r], reads_per_row) for r in range(n_rows)]


# ----------------------------------------------------------------------
# block-scale sweeps (engine-backed)
# ----------------------------------------------------------------------
def sweep_block_offsets(
    chip,
    block: int,
    wordlines: Optional[Sequence[int]] = None,
    step: int = 4,
    workers: int = 1,
) -> Tuple[np.ndarray, int]:
    """Measured optimal offsets of every wordline of one block.

    Returns ``(offsets, total_reads)`` where ``offsets[i]`` is the dense
    per-voltage offset vector of the i-th swept wordline and
    ``total_reads`` is the block's total sweep cost in sensing operations
    (the tracking-overhead quantity of the paper's Section I).

    The block is swept by :meth:`FlashChip.map_wordlines` at its current
    stress, each columnar sub-batch through
    :func:`measured_optimal_offsets_batch`.  Each wordline's sweep
    consumes that wordline's *own* read-noise stream, so the result is
    byte-identical for any ``workers`` value and equals
    :func:`measured_optimal_offsets` run on each wordline in turn.
    """
    rows = chip.map_wordlines(
        partial(measured_optimal_offsets_batch, step=step),
        wordlines,
        blocks=(block,),
        workers=workers,
        label="block-sweep",
    )
    if not rows:
        return np.zeros((0, chip.spec.n_voltages)), 0
    offsets = np.vstack([dense for dense, _ in rows])
    total_reads = int(sum(reads for _, reads in rows))
    return offsets, total_reads
