"""Figure 12: state-change counts around the optimum (calibration rationale).

For every wordline, count the cells whose single-voltage readout changes
when the sentinel voltage moves from its default position to ``optimal +
delta``, normalized by the count at ``delta = 0``.  The paper's observation,
which makes the calibration's Case 1 / Case 2 test work: stopping *short* of
the optimum (positive delta, toward the default) changes fewer cells than a
successful prediction, overshooting (negative delta) changes more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exp.common import eval_chip
from repro.flash.optimal import optimal_offsets_batch


@dataclass
class Fig12Result:
    kind: str
    deltas: Sequence[int]
    normalized_counts: np.ndarray  # (n_deltas,) mean over wordlines
    per_wordline: np.ndarray  # (n_wordlines, n_deltas)

    def rows(self) -> list:
        return [
            (delta, float(self.normalized_counts[i]))
            for i, delta in enumerate(self.deltas)
        ]

    def is_monotone_decreasing(self) -> bool:
        """Overshoot > exact > undershoot, the Figure 12 ordering."""
        return bool(np.all(np.diff(self.normalized_counts) <= 0))


def run_fig12(
    kind: str = "qlc",
    deltas: Sequence[int] = (-6, -3, 0, 3, 6),
    wordline_step: int = 8,
) -> Fig12Result:
    """Normalized state-change counts at offsets around each optimum."""
    chip = eval_chip(kind)
    spec = chip.spec
    indices = range(0, spec.wordlines_per_block, wordline_step)
    v = spec.sentinel_voltage
    pos_default = spec.read_voltage(v, 0.0)
    zero_index = list(deltas).index(0)

    def batch(cols):
        optima = optimal_offsets_batch(cols, voltages=[v])[:, v - 1]
        # NCa of every row at each delta, probed around the row's own optimum
        counts = np.stack([
            cols.state_change_counts_batch(
                pos_default, pos_default + (optima + delta)
            )[0]
            for delta in deltas
        ], axis=1).astype(np.float64)
        return list(counts / np.maximum(counts[:, [zero_index]], 1.0))

    per_wordline = np.asarray(chip.map_wordlines(batch, indices))
    return Fig12Result(
        kind=kind,
        deltas=tuple(deltas),
        normalized_counts=per_wordline.mean(axis=0),
        per_wordline=per_wordline,
    )
