"""Figure 7: positions of bit errors inside one flash block.

The scatter of error cells over (bitline, wordline) shows two things the
sentinel design rests on: horizontal stripes (error rates differ strongly
*between* wordlines — per-block tracking cannot work) and near-uniformity
*along* each wordline (a small evenly-spread sample of cells predicts the
whole wordline).  Besides the raw scatter we compute the statistics behind
both claims: a chi-square uniformity test along each wordline and the
across-wordline spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exp.common import ONE_YEAR_H, eval_chip
from repro.flash.mechanisms import StressState


@dataclass
class Fig7Result:
    kind: str
    n_cells: int
    points: np.ndarray  # (n_points, 2): wordline, bitline of sampled errors
    per_wordline_errors: np.ndarray  # error count per wordline
    uniform_fraction: float  # wordlines passing the chi-square test
    across_wordline_cv: float  # coefficient of variation of per-WL counts

    def rows(self) -> list:
        return [
            ("error cells sampled", len(self.points)),
            ("uniform wordlines (chi-square p>0.01)", f"{self.uniform_fraction:.1%}"),
            ("across-wordline count CV", f"{self.across_wordline_cv:.2f}"),
        ]


def _chi_square_uniform_p(indices: np.ndarray, n_cells: int, bins: int = 16) -> float:
    """P-value of a chi-square test that error positions are uniform."""
    from scipy import stats

    if len(indices) < bins * 2:
        return 1.0  # too few errors to refute uniformity
    counts, _ = np.histogram(indices, bins=bins, range=(0, n_cells))
    expected = len(indices) / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(chi2, df=bins - 1))


def error_positions(cols) -> List[np.ndarray]:
    """Per row of a store: bitlines of the data cells that one full-state
    read at the default voltages misreads."""
    wrong = (cols.read_states_batch() != cols.states) & cols.data_mask
    return [np.nonzero(row)[0] for row in wrong]


def run_fig7(
    kind: str = "qlc",
    pe_cycles: int = 3000,
    wordline_step: int = 2,
    max_points_per_wordline: int = 400,
) -> Fig7Result:
    """Collect error positions and uniformity statistics for one block."""
    chip = eval_chip(kind)
    spec = chip.spec
    chip.set_block_stress(
        0, StressState(pe_cycles=pe_cycles, retention_hours=ONE_YEAR_H)
    )
    indices = range(0, spec.wordlines_per_block, wordline_step)
    errors = chip.map_wordlines(error_positions, indices)
    points: List[Tuple[int, int]] = []
    counts = []
    p_values = []
    for index, err in zip(indices, errors):
        counts.append(len(err))
        p_values.append(_chi_square_uniform_p(err, spec.cells_per_wordline))
        if len(err) > max_points_per_wordline:
            sample = err[:: max(1, len(err) // max_points_per_wordline)]
        else:
            sample = err
        points.extend((index, int(b)) for b in sample)
    counts_arr = np.asarray(counts, dtype=np.float64)
    return Fig7Result(
        kind=kind,
        n_cells=spec.cells_per_wordline,
        points=np.asarray(points, dtype=np.int64).reshape(-1, 2),
        per_wordline_errors=counts_arr,
        uniform_fraction=float(np.mean(np.asarray(p_values) > 0.01)),
        across_wordline_cv=float(counts_arr.std() / max(counts_arr.mean(), 1e-9)),
    )
