"""Figure 12: normalized state-change counts around the optimum."""

from conftest import emit

from repro.exp.fig12 import run_fig12


def bench():
    return run_fig12("qlc", deltas=(-9, -6, -3, 0, 3, 6, 9), wordline_step=4)


def test_fig12(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Figure 12 (QLC): state-change count vs offset from the optimum "
        "(normalized to the exact prediction)",
        result.rows(),
        headers=["offset", "normalized count"],
    )
    # Case 2 (overshoot) > exact > Case 1 (undershoot)
    assert result.normalized_counts[0] > result.normalized_counts[-1]
