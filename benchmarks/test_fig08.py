"""Figure 8: cross-voltage correlation of optimal offsets (QLC)."""

from conftest import emit

from repro.exp.fig8 import run_fig8


def bench():
    return run_fig8("qlc")


def test_fig8(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        f"Figure 8 (QLC): linear fit of each optimum vs V{result.sentinel_voltage}",
        result.rows(),
        headers=["voltage", "slope", "intercept", "R^2"],
    )
    assert (result.r_squared[1:10] > 0.5).all()
