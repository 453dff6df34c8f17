"""Figure 2: bit errors versus read-voltage offset (motivation)."""

from conftest import emit

from repro.exp.fig2 import run_fig2


def bench():
    return run_fig2("tlc", vindex=4, wordlines=(0, 16, 32, 48, 64), span=120,
                    step=2)


def test_fig2(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        f"Figure 2 ({result.kind.upper()}): error count vs V{result.vindex} offset",
        result.rows(),
    )
    assert result.is_v_shaped()
    assert result.reduction > 3.0
