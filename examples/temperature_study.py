#!/usr/bin/env python
"""Temperature study: why tracked voltages go stale within an hour.

Reproduces the Section II-B2 observation driving the sentinel design: one
hour inside a hot computer case (80 degC) ages a block like weeks at room
temperature, moving both the RBER and the optimal read voltages far from
where a periodic tracker left them — while the sentinel inference, which
reads the *current* state of the wordline, follows automatically.

Run:  python examples/temperature_study.py
"""

import numpy as np

from repro import FlashChip, QLC_SPEC, StressState
from repro.analysis import print_table
from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import trained_model
from repro.flash.mechanisms import arrhenius_factor
from repro.flash.optimal import optimal_offsets_batch
from repro.retry import TrackingPolicy


def main() -> None:
    spec = QLC_SPEC.scaled(cells_per_wordline=65536, wordlines_per_layer=4)
    af = arrhenius_factor(80.0, spec.reliability.ea_ev)
    print(
        f"Arrhenius acceleration at 80 degC (Ea={spec.reliability.ea_ev} eV): "
        f"{af:.0f}x -> one hot hour ~ {af / 24:.0f} room-temperature days\n"
    )

    chip = FlashChip(spec, seed=1)
    conditions = {
        "1 h @ 25 degC": StressState(pe_cycles=2000, retention_hours=1.0),
        "1 h @ 80 degC": StressState(
            pe_cycles=2000, retention_hours=1.0, temperature_c=80.0
        ),
    }

    v = spec.sentinel_voltage
    rows = []
    for label, stress in conditions.items():
        chip.set_block_stress(0, stress)
        cols = chip.block_columns(0, range(0, 64, 8))
        rbers = cols.read_page_batch("MSB").rber
        optima = optimal_offsets_batch(cols, voltages=[v])[:, v - 1]
        rows.append(
            (label, f"{np.mean(rbers):.2e}", f"{np.mean(optima):+.1f}")
        )
    print_table(
        rows,
        headers=["condition", "mean MSB RBER", "mean optimal V8 offset"],
        title="the same block, same cells, two storage conditions",
    )

    # --- tracking vs sentinel under a surprise temperature excursion -------
    print(
        "\nnow: a tracker calibrated at room temperature serves reads after"
        "\nthe block spent the hour at 80 degC ..."
    )
    ecc = CapabilityEcc.for_spec(spec)
    tracker = TrackingPolicy(ecc, chip)
    chip.set_block_stress(0, conditions["1 h @ 25 degC"])
    stale = tracker.tracked_offsets(0).copy()  # tracked while cool
    chip.set_block_stress(0, conditions["1 h @ 80 degC"])

    sentinel = SentinelController(ecc, trained_model("qlc"))
    # per wordline: a read at the stale voltages, the sentinel read, then
    # a default read
    cols = chip.block_columns(0, range(0, 48, 8))
    stale_rber = cols.read_page_batch("MSB", stale).rber
    outcomes = [row[0] for row in sentinel.read_batch(cols, ["MSB"])]
    default_rber = cols.read_page_batch("MSB").rber
    rows = [
        (index, f"{default:.2e}", f"{tracked:.2e}", f"{o.final_rber:.2e}",
         o.retries)
        for index, default, tracked, o in zip(
            cols.indices, default_rber, stale_rber, outcomes
        )
    ]
    print_table(
        rows,
        headers=["wordline", "default RBER", "stale-tracked RBER",
                 "sentinel RBER", "sentinel retries"],
    )
    print(
        "\nThe stale tracked voltages miss the shifted optimum; the sentinel"
        "\ncontroller re-infers it from the wordline itself on every read."
    )


if __name__ == "__main__":
    main()
