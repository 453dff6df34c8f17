"""Figure 4: page RBER after one hour at room vs high temperature (QLC)."""

from conftest import emit

from repro.exp.fig4 import run_fig4


def bench():
    return run_fig4("qlc", pe_cycles=3000, retention_hours=1.0, wordline_step=4)


def test_fig4(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 4 (QLC): mean page RBER after 1 h, 25 degC vs 80 degC",
        [
            (
                page,
                f"{result.room_rber[page].mean():.3e}",
                f"{result.high_rber[page].mean():.3e}",
                f"{result.mean_ratio(page):.1f}x",
            )
            for page in result.room_rber
        ],
        headers=["page", "room", "high", "ratio"],
    )
    for page in result.room_rber:
        assert result.mean_ratio(page) > 1.5
