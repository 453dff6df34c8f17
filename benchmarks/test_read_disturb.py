"""Read-disturb sweep: RBER vs read count (Section IV setup)."""

from conftest import emit

from repro.exp.read_disturb import run_read_disturb


def bench():
    return run_read_disturb(
        "tlc",
        read_counts=(0, 10_000, 100_000, 1_000_000, 5_000_000, 20_000_000),
        wordline_step=16,
    )


def test_read_disturb(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        "Read disturb (TLC): mean MSB RBER vs reads since programming",
        result.rows(),
        headers=["reads", "RBER", "vs baseline"],
    )
    # the paper: "read disturbance does not introduce reliability
    # degradation until one million read operations"
    assert result.flat_below_one_million(tolerance=0.10)
    assert result.degradation(20_000_000) > 1.10
