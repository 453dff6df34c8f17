#!/usr/bin/env python
"""System-level evaluation: trace-driven SSD simulation (the Figure 14 flow).

Measures per-page-type retry distributions for the current-flash and
sentinel policies on an aged chip, then replays block I/O traces against an
SSD bound to each profile and reports the read-latency reduction.

By default the eight synthetic MSR-Cambridge stand-ins are used; pass paths
to real MSR CSV files (hm_0.csv ...) or blkparse text dumps to replay those
instead:

    python examples/ssd_trace_simulation.py [trace1.csv trace2.csv ...]
"""

import sys

from repro.analysis import print_table
from repro.exp.fig14 import run_fig14
from repro.traces.adapters import load_trace


def main() -> None:
    traces = None
    workloads = None
    if len(sys.argv) > 1:
        traces = {}
        for path in sys.argv[1:]:
            trace = load_trace(path, max_requests=20000)
            traces[trace.name] = trace
            print("loaded", trace.describe())
        workloads = list(traces)

    print("measuring retry profiles on the aged chip ...")
    result = run_fig14(
        "tlc", workloads=workloads, traces=traces,
        n_requests=6000, rate_scale=20.0,
    )

    print_table(
        [
            (name, f"{retries:.2f}")
            for name, retries in result.profile_retries.items()
        ],
        headers=["policy", "mean retries/read"],
        title="\nchip-level retry profiles",
    )

    rows = []
    for name in sorted(result.reductions):
        cur = result.reports[name]["current-flash"].read_stats
        sen = result.reports[name]["sentinel"].read_stats
        rows.append(
            (
                name,
                f"{cur.mean_us:.0f}",
                f"{cur.p99_us:.0f}",
                f"{sen.mean_us:.0f}",
                f"{sen.p99_us:.0f}",
                f"{result.reductions[name]:.1%}",
            )
        )
    rows.append(("average", "", "", "", "", f"{result.average_reduction:.1%}"))
    print_table(
        rows,
        headers=["workload", "cur mean", "cur p99", "sent mean", "sent p99",
                 "reduction"],
        title="\nread latency (us), current flash vs sentinel",
    )


if __name__ == "__main__":
    main()
