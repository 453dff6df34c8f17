"""Oracle policy: read at the true per-wordline optimal voltages ("OPT").

Upper bound used throughout the paper's evaluation.  The optimum is found by
exhaustive search on the wordline's realized cell voltages — information no
real controller has, which is the whole point of the baseline.
"""

from __future__ import annotations

from repro.flash.optimal import optimal_offsets
from repro.retry.policy import ReadPolicy


class OraclePolicy(ReadPolicy):
    """First attempt at default voltages, then jump straight to the optimum."""

    name = "opt"

    def schedule(self, wordline, hint, outcome):
        # hint ignored: the oracle already knows the optimum.  The search
        # runs only when the default read has failed.
        yield None
        yield optimal_offsets(wordline)

    # perfbench/bench_trace.py wraps this by name in this class's own
    # __dict__, so it stays here as a delegation to the ReadPolicy driver
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)
