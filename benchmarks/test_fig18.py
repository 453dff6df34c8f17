"""Figure 18: comparison with the per-block tracking baseline (QLC)."""

from conftest import emit

from repro.exp.fig18 import run_fig18


def bench():
    return run_fig18("qlc", voltages=(4, 8, 11, 15), wordline_step=4)


def test_fig18(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 18 (QLC): mean errors, default / calibrated / tracking / optimal",
        result.rows(),
    )
    assert result.sentinel_beats_tracking_fraction() > 0.5
