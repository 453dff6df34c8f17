"""Cross-chip model transfer: one training die serves the whole batch."""

from conftest import emit

from repro.exp.batch_transfer import run_batch_transfer


def bench():
    return run_batch_transfer("qlc", eval_seeds=(1, 2, 3, 4), wordline_step=8)


def test_batch_transfer(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    emit(
        f"Batch transfer (QLC): model fitted on die {result.train_seed}, "
        "evaluated on sibling dies",
        result.rows(),
        headers=["die seed", "|predicted-real| (steps)", "mean retries"],
    )
    # "similar reliability characteristics, with only marginal deviations":
    # accuracy varies by a fraction of its mean across dies, and every die
    # reads with ~1 retry
    assert result.error_spread() < 0.6
    assert all(r < 2.0 for r in result.mean_retries.values())
