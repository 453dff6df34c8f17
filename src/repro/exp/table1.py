"""Table I: prediction accuracy versus the sentinel-cell ratio.

For each reserving ratio, fit the error-difference polynomial on the
training die *at that ratio* (fewer sentinels = noisier training data, just
like on silicon), then measure |predicted - real| of the sentinel-voltage
optimum on the evaluated die.  The paper's trade-off to reproduce: accuracy
improves with more sentinels, with clearly diminishing returns beyond 0.2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.exp.common import sentinel_accuracy, sim_spec


@dataclass
class Table1Result:
    kind: str
    ratios: Tuple[float, ...]
    mean_abs: Dict[float, float]
    std: Dict[float, float]
    sentinel_counts: Dict[float, int]

    def rows(self) -> list:
        return [
            (
                f"{ratio:.2%}",
                self.sentinel_counts[ratio],
                round(self.mean_abs[ratio], 2),
                round(self.std[ratio], 2),
            )
            for ratio in self.ratios
        ]

    def is_monotone_improving(self, slack: float = 0.10) -> bool:
        """Mean error should not grow as the ratio grows (within noise)."""
        means = [self.mean_abs[r] for r in self.ratios]
        return all(
            later <= earlier * (1.0 + slack)
            for earlier, later in zip(means, means[1:])
        )


def run_table1(
    kind: str = "qlc",
    ratios: Sequence[float] = (0.0002, 0.001, 0.002, 0.004, 0.006),
    train_wordline_step: int = 8,
    eval_wordline_step: int = 4,
) -> Table1Result:
    """The Table I sweep for one chip kind."""
    spec = sim_spec(kind)
    mean_abs: Dict[float, float] = {}
    std: Dict[float, float] = {}
    counts: Dict[float, int] = {}
    for ratio in ratios:
        _, arr = sentinel_accuracy(
            kind, spec, train_wordline_step, eval_wordline_step, ratio
        )
        mean_abs[ratio] = float(arr.mean())
        std[ratio] = float(arr.std())
        counts[ratio] = spec.sentinel_cells(ratio)
    return Table1Result(
        kind=kind,
        ratios=tuple(ratios),
        mean_abs=mean_abs,
        std=std,
        sentinel_counts=counts,
    )
