"""A/B the repository benchmark: a parent revision against the work tree.

Run from the repository root::

    python3 tools/perf_ab.py --parent HEAD~1
    python3 tools/perf_ab.py --parent main --workloads tournament-tlc \\
        --pairs 10 --held-out 91731

Both sides run from clean copies under a temporary directory: the
parent is ``git archive``d, the work tree is copied file by file as git
sees it (tracked and untracked files, ignored ones left out), so neither
side reads the other's byte code or benchmark output.  For each workload
the script runs ``perfbench/run.py`` in alternating pairs, one pair per
seed, the side that goes first swapping every pair, and prints for each
end-to-end metric of ``BENCHMARK.json`` each side's median and quartiles
and the number of pairs the work tree wins.  A gain is clear when the
work tree wins nearly every pair and the gap between the medians exceeds
the parent's interquartile range.  Held-out seeds run as extra pairs:
they count like any other pair and are also listed on their own.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export_parent(rev: str, dest: str) -> None:
    """Unpack ``git archive rev`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest)


def export_work_tree(dest: str) -> None:
    """Copy every file git sees in the work tree (not ignored) to ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name in listed.decode().split("\0"):
            path = os.path.join(ROOT, name)
            if name and os.path.isfile(path):  # skip deleted tracked files
                tar.add(path, arcname=name)
    buf.seek(0)
    with tarfile.open(fileobj=buf) as tar:
        tar.extractall(dest)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict:
    """One ``perfbench/run.py`` run; its last stdout line as JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (the median of a single value is itself)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metric: Dict, parent: List[float], work: List[float]) -> str:
    """One table line: both sides' quartiles, wins, and the verdict."""
    lower = metric["better"] == "lower"
    p, w = quartiles(parent), quartiles(work)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, work))
    gap = (p[1] - w[1]) if lower else (w[1] - p[1])
    clear = wins >= 0.9 * len(parent) and gap > p[2] - p[0]
    return (
        f"  {metric['name']:22s} parent {p[1]:10.4g} [{p[0]:.4g}, {p[2]:.4g}]"
        f"  work {w[1]:10.4g} [{w[0]:.4g}, {w[2]:.4g}]"
        f"  wins {wins}/{len(parent)}"
        f"  change {(w[1] - p[1]) / p[1] if p[1] else 0.0:+.1%}"
        f"{'  CLEAR' if clear else ''}"
    )


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the work tree against")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (seeds 0..N-1)")
    parser.add_argument("--held-out", type=int, nargs="*", default=[],
                        help="extra seeds run as pairs, also listed apart")
    parser.add_argument("--seconds", type=float,
                        default=bench.get("run_seconds", 25))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        trees = {
            "parent": os.path.join(tmp, "parent"),
            "work": os.path.join(tmp, "work"),
        }
        export_parent(args.parent, trees["parent"])
        export_work_tree(trees["work"])
        for workload in args.workloads:
            runs: Dict[str, List[Dict]] = {"parent": [], "work": []}
            seeds = list(range(args.pairs)) + list(args.held_out)
            for i, seed in enumerate(seeds):
                order = ("parent", "work") if i % 2 == 0 else ("work", "parent")
                for side in order:
                    runs[side].append(
                        run_once(trees[side], workload, seed, args.seconds)
                    )
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} run_s "
                    f"{runs[side][-1]['metrics']['run_s']['value']:.4g}"
                    f" correct={runs[side][-1]['correct']}"
                    for side in ("parent", "work")
                ), flush=True)
            print(f"{workload}: {len(seeds)} pairs (seeds {seeds})")
            for metric in bench["end_to_end"]:
                values = {
                    side: [r["metrics"][metric["name"]]["value"]
                           for r in runs[side]]
                    for side in runs
                }
                print(summarize(metric, values["parent"], values["work"]))
                for k, seed in enumerate(args.held_out, start=args.pairs):
                    print(f"    held-out seed {seed}: parent "
                          f"{values['parent'][k]:.4g}  work "
                          f"{values['work'][k]:.4g}")
            print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
