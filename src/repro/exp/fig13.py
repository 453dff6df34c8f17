"""Figure 13: read retries per wordline — current flash vs sentinel.

One TLC block, 5000 P/E cycles, one-year retention (the paper's most-aged
configuration).  Current flash walks its vendor retry table and needs many
retries on nearly every wordline; the sentinel controller infers the optimal
voltages from the first failed read and almost always lands in one retry.
The paper reports 6.6 -> 1.2 average retries (an 82% reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import SentinelController
from repro.exp.common import default_ecc, eval_chip, sweep_reads, trained_model
from repro.retry import CurrentFlashPolicy


@dataclass
class Fig13Result:
    kind: str
    page: str
    wordlines: np.ndarray
    current_retries: np.ndarray
    sentinel_retries: np.ndarray
    current_failures: int
    sentinel_failures: int

    @property
    def current_mean(self) -> float:
        return float(self.current_retries.mean())

    @property
    def sentinel_mean(self) -> float:
        return float(self.sentinel_retries.mean())

    @property
    def reduction(self) -> float:
        return 1.0 - self.sentinel_mean / max(self.current_mean, 1e-9)

    def fraction_within(self, retries: int) -> float:
        """Fraction of wordlines the sentinel serves within N retries."""
        return float(np.mean(self.sentinel_retries <= retries))

    def rows(self) -> list:
        return [
            ("current flash mean retries", round(self.current_mean, 2)),
            ("sentinel mean retries", round(self.sentinel_mean, 2)),
            ("reduction", f"{self.reduction:.0%}"),
            ("sentinel within 2 retries", f"{self.fraction_within(2):.1%}"),
        ]


def run_fig13(
    kind: str = "tlc",
    page: str = "MSB",
    n_wordlines: int = 240,
    wordline_step: int = 1,
) -> Fig13Result:
    """Per-wordline retry counts for both policies on the aged block."""
    chip = eval_chip(kind)
    spec = chip.spec
    ecc = default_ecc(kind)
    sentinel = SentinelController(ecc, trained_model(kind))
    current = CurrentFlashPolicy(ecc, spec)
    limit = min(n_wordlines * wordline_step, spec.wordlines_per_block)
    indices = np.arange(0, limit, wordline_step)
    # per wordline: the current-flash read, then the sentinel read
    reads = sweep_reads(chip, (current, sentinel), [page], indices)
    cur = np.array([o1.retries for o1, _ in reads], dtype=np.int64)
    sen = np.array([o2.retries for _, o2 in reads], dtype=np.int64)
    cur_fail = sum(not o1.success for o1, _ in reads)
    sen_fail = sum(not o2.success for _, o2 in reads)
    return Fig13Result(
        kind=kind,
        page=page,
        wordlines=indices,
        current_retries=cur,
        sentinel_retries=sen,
        current_failures=cur_fail,
        sentinel_failures=sen_fail,
    )
