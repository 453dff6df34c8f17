#!/usr/bin/env python
"""Factory characterization -> model artifact -> field deployment.

This walks the paper's Section III-D deployment story end to end:

1. pick a *training* die of the batch and sweep it across stress
   conditions, collecting (error-difference, optimal-offset) pairs;
2. fit the degree-5 polynomial and the temperature-binned cross-voltage
   correlation tables, and serialize them (the table "programmed into all
   the chips of the same batch");
3. load the artifact on a *different* die and verify the inference accuracy
   (the Table I / Figure 10 quantities) plus the retry behaviour.

Run:  python examples/characterize_and_deploy.py [output.json]
"""

import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro import FlashChip, QLC_SPEC
from repro.analysis import print_table
from repro.core.characterization import characterize_chip
from repro.core.controller import SentinelController
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import (
    eval_stress,
    sentinel_inference_errors,
    training_stresses,
)


def main() -> None:
    spec = QLC_SPEC.scaled(cells_per_wordline=65536, wordlines_per_layer=4)
    out_path = Path(
        sys.argv[1]
        if len(sys.argv) > 1
        else Path(tempfile.gettempdir()) / "sentinel-qlc.json"
    )

    # --- 1+2: factory side -------------------------------------------------
    print("characterizing training die (seed=100) ...")
    train_chip = FlashChip(spec, seed=100)
    result = characterize_chip(
        train_chip,
        blocks=(0,),
        stresses=training_stresses("qlc"),
        wordlines=range(0, spec.wordlines_per_block, 4),
    )
    result.model.save(out_path)
    print(f"  {len(result.d_rates)} training samples")
    resid = result.inference_residuals()
    print(f"  polynomial fit residual: {np.abs(resid).mean():.2f} steps mean")
    print(f"  model written to {out_path}\n")

    table = result.model.correlations[0]
    print_table(
        [
            (f"V{v}", f"{table.slopes[v - 1]:.2f}", f"{table.intercepts[v - 1]:+.1f}")
            for v in range(1, spec.n_voltages + 1)
        ],
        headers=["voltage", "slope", "intercept"],
        title="cross-voltage correlation table (room-temperature bin)",
    )

    # --- 3: field side -----------------------------------------------------
    print("\ndeploying on field die (seed=1), aged to 1000 P/E + 1 year ...")
    model = SentinelModel.load(out_path)
    chip = FlashChip(spec, seed=1)
    chip.set_block_stress(0, eval_stress("qlc"))

    # |predicted - real| per wordline, swept one columnar batch at a time
    diffs = chip.map_wordlines(
        partial(sentinel_inference_errors, model=model),
        range(0, spec.wordlines_per_block, 8),
    )
    print(
        f"  sentinel-voltage prediction error: {np.mean(diffs):.2f} steps mean "
        f"({np.std(diffs):.2f} std) on a {spec.state_pitch}-step state pitch"
    )

    controller = SentinelController(CapabilityEcc.for_spec(spec), model)
    cols = chip.block_columns(0, range(0, 64, 4))
    retries = [row[0].retries for row in controller.read_batch(cols, ["MSB"])]
    print(f"  MSB reads: {np.mean(retries):.2f} mean retries "
          f"(histogram {np.bincount(retries).tolist()})")


if __name__ == "__main__":
    main()
