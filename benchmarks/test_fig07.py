"""Figure 7: bit-error positions in a block + uniformity statistics."""

from conftest import emit

from repro.exp.fig7 import run_fig7


def bench():
    return run_fig7("qlc", pe_cycles=3000, wordline_step=1,
                    max_points_per_wordline=200)


def test_fig7(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit("Figure 7 (QLC): error-position structure", result.rows())
    # errors uniform along wordlines, strongly varying between them
    assert result.uniform_fraction > 0.75
    assert result.across_wordline_cv > 0.12
