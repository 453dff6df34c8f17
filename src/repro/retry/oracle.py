"""Oracle policy: read at the true per-wordline optimal voltages ("OPT").

Upper bound used throughout the paper's evaluation.  The optimum is found by
exhaustive search on the wordline's realized cell voltages — information no
real controller has, which is the whole point of the baseline.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.flash.optimal import optimal_offsets
from repro.flash.wordline import Wordline
from repro.retry.policy import ReadOutcome, ReadPolicy


class OraclePolicy(ReadPolicy):
    """First attempt at default voltages, then jump straight to the optimum."""

    name = "opt"

    def __init__(self, ecc, max_retries: int = 10, skip_default: bool = False):
        super().__init__(ecc, max_retries)
        self.skip_default = skip_default

    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        # hint ignored: the oracle already knows the optimum
        outcome = self.new_outcome(wordline, page)
        if not self.skip_default:
            if self.attempt(wordline, outcome, None):
                return outcome
        opt = optimal_offsets(wordline)
        self.attempt(wordline, outcome, opt)
        return outcome
