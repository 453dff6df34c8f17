"""Figure 13: read retries per wordline — current flash vs sentinel (TLC)."""

import numpy as np
from conftest import emit

from repro.exp.fig13 import run_fig13


def bench():
    return run_fig13("tlc", page="MSB", n_wordlines=240, wordline_step=1)


def test_fig13(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit("Figure 13 (TLC, 5K P/E, 1 yr): retry counts", result.rows())
    hist_cur = np.bincount(result.current_retries, minlength=11)
    hist_sen = np.bincount(result.sentinel_retries, minlength=11)
    emit(
        "Figure 13: retry histogram (wordlines per retry count)",
        [(k, int(hist_cur[k]), int(hist_sen[k])) for k in range(11)],
        headers=["retries", "current flash", "sentinel"],
    )
    # the paper's headline: 6.6 -> 1.2 retries, an 82% reduction; our block
    # lands at a comparable reduction with ~1.1 sentinel retries
    assert result.reduction > 0.6
    assert result.sentinel_mean < 1.6
    assert result.fraction_within(2) > 0.9
