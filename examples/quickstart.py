#!/usr/bin/env python
"""Quickstart: read an aged wordline with and without sentinels.

Builds a simulated 64-layer 3D TLC chip, ages a block to the paper's
evaluation condition (5000 P/E cycles + one-year retention), and serves an
MSB page read three ways:

* the vendor retry table ("current flash"),
* the sentinel controller (the paper's technique),
* the oracle that knows the true optimal voltages ("OPT").

Run:  python examples/quickstart.py
"""

from repro import FlashChip, StressState, TLC_SPEC
from repro.analysis import print_table
from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import trained_model
from repro.retry import CurrentFlashPolicy, OraclePolicy
from repro.ssd.timing import NandTiming


def main() -> None:
    # a reduced-size spec keeps the demo fast; error *rates* are scale-free
    spec = TLC_SPEC.scaled(cells_per_wordline=65536, wordlines_per_layer=4)
    chip = FlashChip(spec, seed=1)
    chip.set_block_stress(
        0, StressState(pe_cycles=5000, retention_hours=8760)
    )
    print(f"chip: {spec.name}, block 0 aged to 5000 P/E + 1 year retention\n")

    ecc = CapabilityEcc.for_spec(spec)
    # the sentinel model was fitted on a *different* die of the same batch
    # (the paper's factory-characterization story)
    model = trained_model("tlc")
    policies = [
        CurrentFlashPolicy(ecc, spec),
        SentinelController(ecc, model),
        OraclePolicy(ecc),
    ]

    timing = NandTiming()
    rows = []
    for policy in policies:
        # one lockstep read of every sampled wordline (a fresh store each)
        cols = chip.block_columns(0, range(0, 64, 4))
        outcomes = [row[0] for row in policy.read_batch(cols, ["MSB"])]
        mean_retries = sum(o.retries for o in outcomes) / len(outcomes)
        mean_latency = sum(timing.read_outcome_us(o) for o in outcomes) / len(
            outcomes
        )
        final_rber = sum(o.final_rber for o in outcomes) / len(outcomes)
        rows.append(
            (
                policy.name,
                f"{mean_retries:.2f}",
                f"{mean_latency:.0f} us",
                f"{final_rber:.2e}",
                f"{sum(o.success for o in outcomes)}/{len(outcomes)}",
            )
        )
    print_table(
        rows,
        headers=["policy", "mean retries", "mean read latency", "final RBER", "ok"],
        title="MSB reads on 16 wordlines of the aged block",
    )

    print(
        "\nThe sentinel controller infers the optimal voltages from the"
        "\nerror difference on 0.2% reserved cells after the first failed"
        "\nread, so it lands in ~1 retry where the vendor table needs ~5-7."
    )


if __name__ == "__main__":
    main()
