"""Lifetime sweep: retries vs P/E age for current flash / sentinel / OPT."""

from conftest import emit

from repro.exp.aging_sweep import run_aging_sweep


def bench():
    return run_aging_sweep(
        "tlc", pe_cycles=(0, 1000, 2000, 3000, 4000, 5000), wordline_step=16
    )


def test_aging_sweep(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Aging sweep (TLC, 1 yr retention): mean retries and failure rate",
        result.rows(),
        headers=["P/E", "cur retries", "sent retries", "opt retries",
                 "cur fail", "sent fail", "opt fail"],
    )
    # fresh blocks read clean under every policy
    for policy in ("current-flash", "sentinel", "opt"):
        assert result.retries[policy][0] < 0.2
    # aged: the ladder's cost grows with the shift, the sentinel's does not
    assert result.retries["current-flash"][-1] > 4.0
    assert result.retries["sentinel"][-1] < 2.0
    # the default voltages start failing somewhere in mid-life
    onset = result.first_failing_pe("current-flash")
    assert 0 < onset <= 4000
