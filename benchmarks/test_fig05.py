"""Figure 5: optimal offsets after one hour at room vs high temperature."""

from conftest import emit

from repro.exp.fig5 import run_fig5


def bench():
    return run_fig5(
        "qlc", voltages=(3, 6, 8, 14), pe_cycles=3000,
        retention_hours=1.0, wordline_step=8,
    )


def test_fig5(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 5 (QLC): mean optimal offset after 1 h, 25 degC vs 80 degC",
        [
            (
                f"V{v}",
                f"{result.room_offsets[v].mean():+.1f}",
                f"{result.high_offsets[v].mean():+.1f}",
                f"{result.mean_gap(v):.1f}",
            )
            for v in result.voltages
        ],
        headers=["voltage", "room", "high", "gap"],
    )
    for v in result.voltages:
        assert result.mean_gap(v) > 0  # heat always pushes the optimum down
