"""Figure 14: trace-driven read-latency reduction on the 8 MSR workloads."""

from conftest import emit

from repro.exp.fig14 import run_fig14


def bench():
    return run_fig14("tlc", n_requests=6000, rate_scale=20.0)


def test_fig14(benchmark, paper_digest):
    result = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(result)
    rows = []
    for name in sorted(result.reductions):
        cur = result.reports[name]["current-flash"].read_stats
        sen = result.reports[name]["sentinel"].read_stats
        rows.append(
            (
                name,
                f"{cur.mean_us:.0f}us",
                f"{sen.mean_us:.0f}us",
                f"{result.reductions[name]:.1%}",
            )
        )
    rows.append(("average", "", "", f"{result.average_reduction:.1%}"))
    emit(
        "Figure 14: mean read latency, current flash vs sentinel",
        rows,
        headers=["workload", "current", "sentinel", "reduction"],
    )
    assert result.average_reduction > 0.40
    assert all(r > 0.30 for r in result.reductions.values())
