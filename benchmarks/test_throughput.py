"""Closed-loop throughput: what retry shaving buys under saturation.

Not a paper figure, but the natural system-level complement to Figure 14:
with the device saturated (fixed queue depth), read retries consume die
time, so the sentinel's savings appear as IOPS instead of latency.
"""

from conftest import emit

from repro.exp.common import eval_chip
from repro.exp.fig14 import measure_profiles
from repro.ssd import NandTiming, Ssd, SsdConfig
from repro.traces.synthetic import MSR_WORKLOADS, generate_workload


def bench():
    profiles = measure_profiles("tlc")
    spec = eval_chip("tlc").spec
    config = SsdConfig.for_spec(spec, blocks_per_die=32)
    trace = generate_workload(MSR_WORKLOADS["usr_0"], n_requests=4000, seed=7)
    out = {}
    for name, prof in profiles.items():
        ssd = Ssd(spec, config, NandTiming(), prof, seed=3)
        report = ssd.run_closed_loop(trace, queue_depth=16)
        out[name] = report
    return out


def test_closed_loop_throughput(benchmark, paper_digest):
    reports = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(reports)
    rows = [
        (
            name,
            f"{r.extras['iops']:.0f}",
            f"{r.read_stats.mean_us:.0f}us",
            f"{r.extras['die_read_utilization']:.0%}",
        )
        for name, r in reports.items()
    ]
    emit(
        "Closed-loop (usr_0, QD=16): IOPS and saturated read latency",
        rows,
        headers=["policy", "IOPS", "mean read latency", "die read util"],
    )
    cur = reports["current-flash"]
    sen = reports["sentinel"]
    assert sen.extras["iops"] > cur.extras["iops"]
    assert sen.read_stats.mean_us < cur.read_stats.mean_us
