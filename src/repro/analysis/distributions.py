"""Vth-distribution estimation from read sweeps (characterization tooling).

A controller cannot observe cell voltages; everything it knows comes from
read sweeps.  This module turns a full-axis sweep into the quantities a
characterization engineer works with: the cell-density histogram, the state
peaks, the valleys between them, and per-state mean/width estimates — the
measured counterpart of the ground-truth model parameters in
:mod:`repro.flash.mechanisms`.

Used by the distribution-explorer tooling and validated against the model's
true state statistics in ``tests/test_distributions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.flash.wordline import Wordline


@dataclass(frozen=True)
class AxisHistogram:
    """Cell density along the whole Vth axis, measured by a read sweep."""

    positions: np.ndarray  # sweep thresholds (absolute DAC steps)
    counts: np.ndarray  # cells between consecutive thresholds
    reads_used: int

    @property
    def centers(self) -> np.ndarray:
        return (self.positions[:-1] + self.positions[1:]) / 2.0


@dataclass(frozen=True)
class StateEstimate:
    """Moment estimate of one state's distribution from its histogram span."""

    index: int
    mean: float
    sigma: float
    cells: int


def full_axis_histogram(
    wordline: Wordline,
    step: int = 8,
    margin: float = 3.5,
) -> AxisHistogram:
    """Sweep the entire Vth axis with single-voltage reads."""
    spec = wordline.spec
    lo = float(spec.state_centers[0]) - margin * spec.sigma_erase
    hi = float(spec.state_centers[-1]) + margin * spec.sigma_prog
    positions = np.arange(lo, hi + step, step)
    cumulative = np.empty(len(positions), dtype=np.int64)
    for i, pos in enumerate(positions):
        above = wordline.store.single_voltage_counts(pos, rows=[wordline.row])
        cumulative[i] = wordline.n_cells - int(above[0])
    counts = np.diff(cumulative)
    np.clip(counts, 0, None, out=counts)
    return AxisHistogram(
        positions=positions, counts=counts, reads_used=len(positions)
    )


def find_state_peaks(
    histogram: AxisHistogram, n_states: int, smooth: int = 5
) -> np.ndarray:
    """Positions of the ``n_states`` tallest separated density peaks."""
    counts = histogram.counts.astype(np.float64)
    if smooth > 1:
        counts = np.convolve(counts, np.ones(smooth) / smooth, mode="same")
    centers = histogram.centers
    # local maxima
    local = np.nonzero(
        (counts[1:-1] >= counts[:-2]) & (counts[1:-1] >= counts[2:])
    )[0] + 1
    if len(local) < n_states:
        raise ValueError(
            f"found only {len(local)} density peaks, expected {n_states}"
        )
    # greedily keep the tallest peaks with a minimum separation
    min_separation = (centers[-1] - centers[0]) / (2.5 * n_states)
    chosen: List[int] = []
    for idx in sorted(local, key=lambda i: -counts[i]):
        if all(abs(centers[idx] - centers[j]) > min_separation for j in chosen):
            chosen.append(idx)
        if len(chosen) == n_states:
            break
    if len(chosen) < n_states:
        raise ValueError("could not separate the expected number of peaks")
    return np.sort(centers[np.array(chosen)])


def estimate_states(
    wordline: Wordline,
    step: int = 8,
) -> Tuple[List[StateEstimate], AxisHistogram]:
    """Estimate every state's mean and width from one full-axis sweep.

    States are delimited at the density minima between adjacent peaks, then
    each segment's weighted moments give (mean, sigma) — exactly what a
    characterization flow extracts from silicon.
    """
    spec = wordline.spec
    histogram = full_axis_histogram(wordline, step=step)
    peaks = find_state_peaks(histogram, spec.n_states)
    centers = histogram.centers
    counts = histogram.counts.astype(np.float64)

    # valleys between consecutive peaks bound each state's segment
    boundaries = [centers[0] - 1.0]
    for left, right in zip(peaks[:-1], peaks[1:]):
        mask = (centers > left) & (centers < right)
        segment = np.nonzero(mask)[0]
        valley = segment[np.argmin(counts[segment])]
        boundaries.append(float(centers[valley]))
    boundaries.append(centers[-1] + 1.0)

    estimates = []
    for s in range(spec.n_states):
        mask = (centers >= boundaries[s]) & (centers < boundaries[s + 1])
        w = counts[mask]
        x = centers[mask]
        total = w.sum()
        if total <= 0:
            estimates.append(StateEstimate(index=s, mean=float(peaks[s]),
                                           sigma=0.0, cells=0))
            continue
        mean = float((w * x).sum() / total)
        var = float((w * (x - mean) ** 2).sum() / total)
        estimates.append(
            StateEstimate(
                index=s, mean=mean, sigma=float(np.sqrt(max(var, 0.0))),
                cells=int(total),
            )
        )
    return estimates, histogram


def true_state_statistics(wordline: Wordline) -> List[StateEstimate]:
    """Ground-truth per-state statistics from the model's cell voltages
    (for validating the estimators; a real controller never sees this)."""
    out = []
    for s in range(wordline.spec.n_states):
        values = wordline.vth[wordline.states == s]
        out.append(
            StateEstimate(
                index=s,
                mean=float(values.mean()) if len(values) else 0.0,
                sigma=float(values.std()) if len(values) else 0.0,
                cells=len(values),
            )
        )
    return out
