"""Record the report digests that ``run.py`` checks every call against.

Run from the repository root after a change that alters simulated
output on purpose (and only then)::

    python3 perfbench/record_digests.py 0 20     # seeds 0..20 inclusive
    python3 perfbench/record_digests.py 0 20 replay-write-gc   # one workload

Each seed runs one sample process per workload that calls every part
once, with the workload's default worker count, and stores the SHA-256
of each part's report JSON in ``perfbench/digests.json``.  A recorded
workload's table is replaced, so no digest of older code survives.
"""

from __future__ import annotations

import json
import os
import sys

from bench_workloads import WORKLOADS
from run import DIGESTS, load_digests, run_sample


def main(argv) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    digests = load_digests()
    for name in argv[2:] or sorted(WORKLOADS):
        spec = WORKLOADS[name]
        table = digests[name] = {}
        for seed in range(lo, hi + 1):
            calls = run_sample(name, seed, spec.workers, env)["calls"]
            table[str(seed)] = [c["digest"] for c in calls]
            print(name, seed, flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
