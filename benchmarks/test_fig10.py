"""Figure 10: d -> optimal-offset fit and per-wordline inference accuracy."""

from conftest import emit

from repro.exp.fig10 import run_fig10


def bench(kind):
    return run_fig10(kind, wordline_step=2)


def report(result):
    emit(
        f"Figure 10 ({result.kind.upper()}): sentinel-voltage inference",
        result.rows(),
    )


def test_fig10_tlc(benchmark, paper_digest):
    result = benchmark.pedantic(bench, args=("tlc",), rounds=1, iterations=1)
    paper_digest(result)
    report(result)
    assert result.direction_accuracy() > 0.95
    assert result.mean_abs_error() < 0.08 * 256


def test_fig10_qlc(benchmark, paper_digest):
    result = benchmark.pedantic(bench, args=("qlc",), rounds=1, iterations=1)
    paper_digest(result)
    report(result)
    assert result.direction_accuracy() > 0.95
    assert result.mean_abs_error() < 0.08 * 128
