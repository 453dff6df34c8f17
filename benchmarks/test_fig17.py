"""Figure 17: per-voltage error counts of the four methods (QLC)."""

from conftest import emit

from repro.exp.fig16 import run_fig17


def bench():
    return run_fig17(wordline_step=4)


def test_fig17(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 17 (QLC): mean bit errors per read voltage",
        result.rows(),
        headers=["voltage", "default", "inferred", "calibrated", "optimal"],
    )
    assert result.total_errors("default") > 5 * result.total_errors("inferred")
    # V9-V15: default close to optimal, so the reduction is small there
    high = result.per_voltage_mean
    assert (high["default"][10:] < 4 * high["optimal"][10:] + 40).all()
