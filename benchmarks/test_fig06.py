"""Figure 6: optimal read-voltage offsets per layer (QLC, 3K P/E, 1 yr)."""

from conftest import emit

from repro.exp.fig6 import run_fig6


def bench():
    return run_fig6("qlc", pe_cycles=3000, layer_step=1,
                    wordlines_per_layer_sampled=1)


def test_fig6(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 6 (QLC): per-layer optimal offsets, mean [min, max] spread",
        result.rows(),
        headers=["voltage", "mean", "min", "max", "spread"],
    )
    assert (result.offsets < 0).all()
    assert abs(result.voltage_column(2).mean()) > abs(
        result.voltage_column(15).mean()
    )
