"""Figure 3: per-layer MSB RBER at default vs optimal read voltages."""

from conftest import emit

from repro.exp.fig3 import run_fig3


def bench(kind):
    return run_fig3(
        kind,
        pe_cycles=(0, 1000, 3000, 5000),
        layer_step=2,
        wordlines_per_layer_sampled=2,
    )


def report(result):
    emit(
        f"Figure 3 ({result.kind.upper()}): max per-layer MSB RBER",
        [
            (
                pe,
                f"{result.default_rber[pe].max():.3e}",
                f"{result.optimal_rber[pe].max():.3e}",
                f"{result.reduction_factor(pe):.1f}x",
                f"{result.layer_spread(pe, 'default'):.1f}x",
            )
            for pe in result.pe_cycles
        ],
        headers=["P/E", "default max", "optimal max", "reduction", "layer spread"],
    )


def test_fig3_tlc(benchmark, paper_digest):
    result = benchmark.pedantic(bench, args=("tlc",), rounds=1, iterations=1)
    paper_digest(result)
    report(result)
    assert result.reduction_factor(5000) > 3.0


def test_fig3_qlc(benchmark, paper_digest):
    result = benchmark.pedantic(bench, args=("qlc",), rounds=1, iterations=1)
    paper_digest(result)
    report(result)
    assert result.reduction_factor(3000) > 5.0
