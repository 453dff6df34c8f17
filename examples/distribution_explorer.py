#!/usr/bin/env python
"""Distribution explorer: see the Vth landscape the way a controller does.

Sweeps a wordline's entire voltage axis with single-voltage reads, renders
the measured cell-density histogram as an ASCII chart, estimates every
state's mean/width from it, and compares against the model's ground truth —
fresh versus aged, so the retention shift and the closing read windows are
visible.

Run:  python examples/distribution_explorer.py
"""

import numpy as np

from repro import FlashChip, QLC_SPEC, StressState
from repro.analysis import print_table
from repro.analysis.ascii_plot import line_plot
from repro.analysis.distributions import estimate_states, true_state_statistics


def explore(label: str, wordline) -> None:
    estimates, histogram = estimate_states(wordline, step=6)
    truth = true_state_statistics(wordline)
    print(
        line_plot(
            histogram.centers,
            {"cells/bin": histogram.counts},
            title=f"\n{label}: measured Vth density "
                  f"({histogram.reads_used} sweep reads)",
            height=10,
            width=70,
        )
    )
    rows = []
    for est, ref in zip(estimates, truth):
        rows.append(
            (
                f"S{est.index}",
                f"{est.mean:.0f}",
                f"{ref.mean:.0f}",
                f"{est.sigma:.0f}",
                f"{ref.sigma:.0f}",
            )
        )
    print_table(
        rows,
        headers=["state", "mean (measured)", "mean (true)",
                 "sigma (measured)", "sigma (true)"],
    )


def main() -> None:
    spec = QLC_SPEC.scaled(cells_per_wordline=65536, wordlines_per_layer=4)
    wl = FlashChip(spec, seed=1).wordline(0, 8)
    explore("fresh block", wl)

    # the same cells (and read-noise stream) a year of retention later
    wl.set_stress(StressState(pe_cycles=1000, retention_hours=8760))
    explore("aged block (1000 P/E + 1 year)", wl)

    print(
        "\nAfter a year of retention every programmed state has slid left"
        "\nand widened; the valleys (where the read voltages must sit) have"
        "\nmoved away from the fresh defaults — the gap the sentinel"
        "\ninference closes in one step."
    )


if __name__ == "__main__":
    main()
