"""The repository benchmark: host time and simulated outcome per workload.

Run from the repository root::

    python3 perfbench/run.py --workload tournament-tlc --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 7            # every workload in turn

A seed fixes a workload's whole input: several parts, each generated
from its own part seed.  Samples are fresh ``python3
perfbench/bench_sample.py`` processes with observability off; each sets
up every part, then calls parts in round-robin order for about a third
of ``--seconds``.  A discarded warm-up process runs first: it compiles
every module to byte code and loads numpy, so neither compilation nor a
cold page cache lands in a timed sample.  Samples follow one another for
``--seconds`` (longer only until every part ran once); ``setup_s`` and
``peak_rss_mb`` are medians over the processes, ``run_s`` the median
over all calls, and the simulated metrics pool all parts.  Host times
are scaled to a reference host speed measured next to every interval
(see bench_sample.py); the table also prints them as measured.

``--trace 1`` instead alternates untraced and traced processes of one
serial configuration, each calling part 0 once, and reports the
per-layer metrics (README.md lists them all).

Every call is checked: request accounting must balance, the sentinel
must beat the vendor retry table on the grids, and the report's SHA-256
must equal the one ``digests.json`` records for that part of that seed
(for a seed it does not list, every call of a part must agree with the
first).  A call that fails counts all its requests as failed.  The last
line of stdout is one JSON object with the verdict and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from bench_sample import REFERENCE_S
from bench_trace import unit
from bench_workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLE = os.path.join(HERE, "bench_sample.py")
DIGESTS = os.path.join(HERE, "digests.json")
#: spans of traced samples land here, inside the checkout
SPANS_DIR = ".perfbench"
SAMPLE_TIMEOUT_S = 150.0

#: end-to-end metrics with their units (BENCHMARK.json lists the bounds)
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "sim_retries_per_read": "retries",
    "sim_read_p99_us": "us",
    "sim_served_frac": "fraction",
}


class SampleError(RuntimeError):
    pass


def _run(cmd: List[str], env: Dict[str, str], what: str) -> str:
    """Run one child to completion; on timeout stop it and its workers."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the sample's own worker pool shares its session: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"{what} exceeded {SAMPLE_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise SampleError(f"{what} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def run_sample(workload: str, seed: int, workers: int, env: Dict[str, str],
               traced: bool = False, first: int = 0, budget: float = 0.0,
               spans: str = "") -> dict:
    """One sample process; ``budget`` <= 0 calls every part once."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, SAMPLE, workload, str(seed), str(workers),
           repr(t_spawn), "1" if traced else "0", str(first), repr(budget)]
    out = _run(cmd + ([spans] if spans else []), env, f"{workload} sample")
    return json.loads(out.strip().splitlines()[-1])


def call_ok(call: dict, reference: Dict[int, str]) -> bool:
    reference.setdefault(call["part"], call["digest"])
    return (call["balanced"] and call["paper_ok"]
            and call["digest"] == reference[call["part"]])


def accounts_for_wall(layers: dict) -> bool:
    """The per-layer self times must add up to the traced wall time."""
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return abs(self_sum - layers["trace.wall_s"]) <= 1e-6 * layers["trace.wall_s"]


def measure(workload: str, seed: int, seconds: float, traced: bool,
            env: Dict[str, str]) -> dict:
    """Warm up, sample for ``seconds``, and fold the samples into a result."""
    spec = WORKLOADS[workload]
    _run([sys.executable, SAMPLE, "--warm-up"], env, "warm-up")
    recorded: Optional[List[str]] = load_digests().get(workload, {}).get(str(seed))
    reference: Dict[int, str] = dict(enumerate(recorded or []))
    checks: List[dict] = []
    workers = spec.workers
    if traced:
        # the traced run is serial so that no span is lost in a worker
        # process, and each of its processes makes one call, of part 0
        # (a tiny budget allows exactly one); its digest must equal the
        # default configuration's
        checks = run_sample(workload, seed, workers, env, budget=1e-3)["calls"]
        workers = 1
        os.makedirs(SPANS_DIR, exist_ok=True)

    # traced: alternate untraced and traced processes of one configuration
    # so that the overhead ratio compares like with like
    kinds = ["plain", "traced"] if traced else ["plain"]
    procs: Dict[str, List[dict]] = {k: [] for k in kinds}
    covered = set()
    start = time.monotonic()
    while True:
        n = sum(len(v) for v in procs.values())
        kind = kinds[n % len(kinds)]
        elapsed = time.monotonic() - start
        if kind == "traced":
            spans = os.path.join(
                SPANS_DIR, f"spans-{workload}-seed{seed}-{len(procs[kind])}.npz"
            )
            proc = run_sample(workload, seed, workers, env, True,
                              budget=1e-3, spans=spans)
        elif traced:
            proc = run_sample(workload, seed, workers, env, budget=1e-3)
        else:
            first = sum(len(p["calls"]) for p in procs["plain"]) % spec.parts
            budget = min(seconds / 3.0, max(seconds - elapsed, 0.0))
            proc = run_sample(workload, seed, workers, env, first=first,
                              budget=max(budget, 1e-3))
        procs[kind].append(proc)
        covered.update(c["part"] for c in proc["calls"])
        elapsed = time.monotonic() - start
        if traced:
            # the next process costs about as much as the ones so far
            shortest = elapsed / (n + 1)
        else:
            # the next process sets up and makes at least one call
            shortest = (
                statistics.median(p["setup_wall_s"] for p in procs["plain"])
                + statistics.median(c["wall_s"] for c in proc["calls"])
            )
        done = (traced or len(covered) == spec.parts) and all(procs.values())
        if done and elapsed + shortest > seconds:
            break

    plain = procs["plain"]
    calls = [c for v in procs.values() for p in v for c in p["calls"]]
    # a list, not a generator: every check call must seed its part's digest
    checks_ok = all([call_ok(c, reference) for c in checks])
    attempted = sum(c["offered"] for c in calls)
    passed = [c for c in calls if call_ok(c, reference)]
    failed = attempted - sum(c["offered"] for c in passed)
    correct = (
        failed == 0
        and checks_ok
        and all(accounts_for_wall(p["layers"]) for p in procs.get("traced", []))
    )

    if traced:
        def wall(p):
            return p["setup_s"] + sum(c["run_s"] for c in p["calls"])

        layers = [p["layers"] for p in procs["traced"]]
        values = {
            name: statistics.median(x[name] for x in layers) for name in layers[0]
        }
        values["trace.overhead_frac"] = (
            statistics.median(wall(p) for p in procs["traced"])
            / statistics.median(wall(p) for p in plain) - 1.0
        )
        metrics = {
            name: {"value": v, "unit": unit(name)}
            for name, v in sorted(values.items())
        }
    else:
        firsts = {}
        for c in calls:
            firsts.setdefault(c["part"], c)
        parts = [firsts[k] for k in sorted(firsts)]
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "run_s": statistics.median(c["run_s"] for c in calls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "sim_retries_per_read": (
                sum(c["retries"] for c in parts) / sum(c["reads"] for c in parts)
            ),
            "sim_read_p99_us": statistics.fmean(c["read_p99_us"] for c in parts),
            # a call failing its checks serves nothing
            "sim_served_frac": sum(c["served"] for c in passed) / attempted,
        }
        metrics = {
            name: {"value": values[name], "unit": UNITS[name]} for name in UNITS
        }
    as_measured = {
        "setup_s": statistics.median(p["setup_wall_s"] for p in plain),
        "run_s": statistics.median(c["wall_s"] for c in calls),
        "speed": REFERENCE_S / statistics.median(c["ref_s"] for c in calls),
    }
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, as_measured


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no ./src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], as_measured = measure(name, args.seed, args.seconds,
                                                 bool(args.trace), env)
        except SampleError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for metric, m in results[name]["metrics"].items():
            print(f"{name:16s} {metric:36s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:16s} as measured: setup {as_measured['setup_s']:.4g} s, "
              f"call {as_measured['run_s']:.4g} s; host at "
              f"{as_measured['speed']:.3f}x reference speed")
        print(f"{name:16s} correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
