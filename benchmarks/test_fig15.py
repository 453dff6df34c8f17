"""Figure 15: per-voltage success rate after inference and calibration."""

from conftest import emit

from repro.exp.fig15 import run_fig15
from repro.exp.methods import collect_method_errors


def bench():
    data = collect_method_errors("qlc", wordline_step=4)
    return run_fig15("qlc", data=data)


def test_fig15(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 15 (QLC): wordlines reaching the optimal voltage",
        result.rows(),
        headers=["voltage", "after inference", "after calibration"],
    )
    # paper: >=83% after inference, >=94% after calibration (average)
    assert result.mean_inference > 0.75
    assert result.mean_calibration >= result.mean_inference - 0.02
