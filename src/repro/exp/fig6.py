"""Figure 6: optimal read-voltage offsets of every layer within a block.

QLC, 3000 P/E cycles, one-year retention.  Reproduces the observations that
drive the design: every read voltage's optimum varies strongly across layers
(so per-block or per-layer tracking is coarse), and the low read voltages
need the largest corrections (V1 is excluded — the wide erased state makes
it an outlier, as the paper notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exp.common import ONE_YEAR_H, eval_chip
from repro.flash.mechanisms import StressState
from repro.flash.optimal import optimal_offsets_batch


@dataclass
class Fig6Result:
    kind: str
    layers: np.ndarray
    voltages: Sequence[int]
    offsets: np.ndarray  # (n_layers, n_voltages) mean optimum per layer

    def voltage_column(self, vindex: int) -> np.ndarray:
        return self.offsets[:, list(self.voltages).index(vindex)]

    def spread(self, vindex: int) -> float:
        """Max-min spread of a voltage's optimum across layers."""
        col = self.voltage_column(vindex)
        return float(col.max() - col.min())

    def rows(self) -> list:
        return [
            (
                f"V{v}",
                float(self.voltage_column(v).mean()),
                float(self.voltage_column(v).min()),
                float(self.voltage_column(v).max()),
                self.spread(v),
            )
            for v in self.voltages
        ]


def run_fig6(
    kind: str = "qlc",
    pe_cycles: int = 3000,
    layer_step: int = 1,
    wordlines_per_layer_sampled: int = 1,
) -> Fig6Result:
    """Mean optimal offset of V2..Vmax per layer."""
    chip = eval_chip(kind)
    spec = chip.spec
    chip.set_block_stress(
        0, StressState(pe_cycles=pe_cycles, retention_hours=ONE_YEAR_H)
    )
    voltages = tuple(range(2, spec.n_voltages + 1))
    layers = np.arange(0, spec.layers, layer_step)
    per_layer = min(wordlines_per_layer_sampled, spec.wordlines_per_layer)
    optima = chip.map_wordlines(
        lambda cols: list(optimal_offsets_batch(cols, voltages=voltages)),
        [layer * spec.wordlines_per_layer + k
         for layer in layers for k in range(per_layer)],
    )
    table = np.zeros((len(layers), len(voltages)))
    for li in range(len(layers)):
        rows = optima[li * per_layer : (li + 1) * per_layer]
        table[li] = np.mean([row[np.array(voltages) - 1] for row in rows], axis=0)
    return Fig6Result(kind=kind, layers=layers, voltages=voltages, offsets=table)
