"""Read-disturb study (Section IV, experimental setup).

The paper measured that "read disturbance does not introduce reliability
degradation until one million read operations", which is why its evaluation
focuses on retention and P/E cycling.  This driver reproduces that check:
RBER as a function of the read count, at fixed moderate retention, showing
the flat region below ~1e6 reads and the onset beyond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exp.common import eval_chip
from repro.flash.mechanisms import StressState


@dataclass
class ReadDisturbResult:
    kind: str
    read_counts: Sequence[int]
    rber: np.ndarray  # mean MSB RBER per read count

    def degradation(self, reads: int) -> float:
        """RBER at ``reads`` relative to the undisturbed baseline."""
        idx = list(self.read_counts).index(reads)
        return float(self.rber[idx] / max(self.rber[0], 1e-12))

    def flat_below_one_million(self, tolerance: float = 0.10) -> bool:
        for reads in self.read_counts:
            if 0 < reads <= 1_000_000:
                if self.degradation(reads) > 1.0 + tolerance:
                    return False
        return True

    def rows(self) -> list:
        return [
            (f"{reads:.0e}" if reads else "0",
             f"{self.rber[i]:.3e}",
             f"{self.degradation(reads):.2f}x")
            for i, reads in enumerate(self.read_counts)
        ]


def run_read_disturb(
    kind: str = "tlc",
    read_counts: Sequence[int] = (0, 10_000, 100_000, 1_000_000, 5_000_000,
                                  20_000_000),
    pe_cycles: int = 3000,
    retention_hours: float = 720.0,
    wordline_step: int = 16,
) -> ReadDisturbResult:
    """Mean MSB RBER versus the number of reads since programming."""
    chip = eval_chip(kind)
    spec = chip.spec
    indices = range(0, spec.wordlines_per_block, wordline_step)
    samples = chip.map_wordlines(
        lambda cols: list(cols.read_page_batch("MSB").rber), indices,
        stresses=[
            StressState(pe_cycles=pe_cycles, retention_hours=retention_hours,
                        read_count=reads)
            for reads in read_counts
        ],
    )
    rber = np.mean(np.reshape(samples, (len(read_counts), -1)), axis=1)
    return ReadDisturbResult(kind=kind, read_counts=tuple(read_counts), rber=rber)
