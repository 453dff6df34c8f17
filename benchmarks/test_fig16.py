"""Figure 16: per-voltage error counts of the four methods (TLC)."""

from conftest import emit

from repro.exp.fig16 import run_fig16


def bench():
    return run_fig16(wordline_step=4)


def test_fig16(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 16 (TLC): mean bit errors per read voltage",
        result.rows(),
        headers=["voltage", "default", "inferred", "calibrated", "optimal"],
    )
    assert result.total_errors("default") > 4 * result.total_errors("inferred")
    assert result.total_errors("calibrated") <= result.total_errors("inferred") * 1.1
