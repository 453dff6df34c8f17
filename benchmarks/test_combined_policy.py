"""Tracking + sentinel combination (Related Work's suggested hybrid).

"Read operations can start with the tracked optimal read voltages to reduce
the failure rate of the first read operation, and our sentinel based
prediction is applied once there is a read failure."
"""

import numpy as np
from conftest import emit

from repro.core.controller import SentinelController
from repro.exp.common import default_ecc, eval_chip, trained_model
from repro.retry import CurrentFlashPolicy, TrackedSentinelPolicy, TrackingPolicy


def bench():
    chip = eval_chip("tlc")
    ecc = default_ecc("tlc")
    model = trained_model("tlc")
    policies = [
        CurrentFlashPolicy(ecc, chip.spec),
        TrackingPolicy(ecc, chip),
        SentinelController(ecc, model),
        TrackedSentinelPolicy(ecc, chip, model),
    ]
    rows = {}
    for policy in policies:
        outcomes = chip.map_wordlines(
            lambda cols: [row[0] for row in policy.read_batch(cols, ["MSB"])],
            range(0, 128, 2),
        )
        retries = [o.retries for o in outcomes]
        fails = sum(not o.success for o in outcomes)
        first_ok = sum(o.retries == 0 for o in outcomes)
        rows[policy.name] = (
            float(np.mean(retries)),
            first_ok / len(retries),
            fails,
        )
    return rows


def test_tracking_plus_sentinel(benchmark, paper_digest):
    rows = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest(rows)
    emit(
        "Hybrid policy: tracked first attempt + sentinel on failure (TLC)",
        [
            (name, f"{mean:.2f}", f"{first:.0%}", fails)
            for name, (mean, first, fails) in rows.items()
        ],
        headers=["policy", "mean retries", "first-read success", "failures"],
    )
    # the hybrid's first-read success must beat the plain sentinel's
    # (which always fails the default first read on this aged block)
    assert rows["tracking+sentinel"][1] > rows["sentinel"][1]
    # and its retry count must be at least as good as plain tracking
    assert rows["tracking+sentinel"][0] <= rows["tracking"][0] + 0.1
