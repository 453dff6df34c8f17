"""Table I: |predicted - real| sentinel offset vs sentinel-cell ratio."""

from conftest import emit

from repro.exp.table1 import run_table1


def bench(kind):
    return run_table1(
        kind,
        ratios=(0.0002, 0.001, 0.002, 0.004, 0.006),
        train_wordline_step=8,
        eval_wordline_step=4,
    )


def report(result):
    emit(
        f"Table I ({result.kind.upper()}): offset |predicted - real| vs ratio",
        result.rows(),
        headers=["ratio", "cells", "mean", "std"],
    )


def test_table1_tlc(benchmark, paper_digest):
    result = benchmark.pedantic(bench, args=("tlc",), rounds=1, iterations=1)
    paper_digest(result)
    report(result)
    # sampling noise allows small wiggles between adjacent ratios; the
    # endpoint trend is the paper's claim
    assert result.is_monotone_improving(slack=0.30)
    assert result.mean_abs[0.0002] > result.mean_abs[0.006]


def test_table1_qlc(benchmark, paper_digest):
    result = benchmark.pedantic(bench, args=("qlc",), rounds=1, iterations=1)
    paper_digest(result)
    report(result)
    assert result.is_monotone_improving(slack=0.20)
    assert result.mean_abs[0.0002] > result.mean_abs[0.006]
