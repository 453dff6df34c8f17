"""Per-page retry/latency breakdown: why MSB pages hurt most."""

from conftest import emit

from repro.exp.page_breakdown import run_page_breakdown


def bench():
    return run_page_breakdown("qlc", wordline_step=8)


def test_page_breakdown(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Per-page breakdown (QLC aged): retries and read latency",
        result.rows(),
        headers=["page", "cur retries", "sent retries",
                 "cur latency us", "sent latency us"],
    )
    # Section I: MSB pages are the most vulnerable under the current flash
    assert result.msb_worst_for("current-flash")
    # the sentinel's gain is largest exactly there
    msb_gain = (
        result.latency_us["current-flash"]["MSB"]
        / result.latency_us["sentinel"]["MSB"]
    )
    lsb_gain = (
        result.latency_us["current-flash"]["LSB"]
        / max(result.latency_us["sentinel"]["LSB"], 1e-9)
    )
    assert msb_gain > lsb_gain
