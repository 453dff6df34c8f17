"""Figure 3: per-layer MSB RBER at default vs optimal read voltages.

The paper plots, for one block after one-year retention, the maximum MSB
RBER of each layer at the default read voltages (solid) and at the optimal
read voltages (dashed), for P/E counts 0/1000/3000/5000, on both TLC and
QLC.  The two observations to reproduce: optimal voltages cut RBER by up to
an order of magnitude, and they compress the layer-to-layer spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.exp.common import ONE_YEAR_H, eval_chip
from repro.flash.mechanisms import StressState
from repro.flash.optimal import optimal_offsets_batch


@dataclass
class Fig3Result:
    kind: str
    pe_cycles: Tuple[int, ...]
    layers: np.ndarray
    default_rber: Dict[int, np.ndarray]  # pe -> per-layer max RBER, default
    optimal_rber: Dict[int, np.ndarray]  # pe -> per-layer max RBER, optimal

    def reduction_factor(self, pe: int) -> float:
        """Mean default/optimal RBER ratio at one P/E count."""
        return float(
            np.mean(self.default_rber[pe]) / np.mean(self.optimal_rber[pe])
        )

    def layer_spread(self, pe: int, which: str = "default") -> float:
        """Max/min per-layer RBER ratio (the variation the optimum removes)."""
        series = (self.default_rber if which == "default" else self.optimal_rber)[pe]
        floor = max(series.min(), 1e-9)
        return float(series.max() / floor)

    def rows(self) -> list:
        out = []
        for pe in self.pe_cycles:
            out.append(
                (
                    pe,
                    float(self.default_rber[pe].max()),
                    float(self.optimal_rber[pe].max()),
                    self.reduction_factor(pe),
                )
            )
        return out


def run_fig3(
    kind: str = "qlc",
    pe_cycles: Sequence[int] = (0, 1000, 3000, 5000),
    layer_step: int = 1,
    wordlines_per_layer_sampled: int = 2,
) -> Fig3Result:
    """Measure the per-layer MSB RBER curves.

    ``layer_step`` subsamples layers; ``wordlines_per_layer_sampled`` bounds
    the wordlines evaluated per layer (the paper reports the per-layer max).
    """
    chip = eval_chip(kind)
    spec = chip.spec
    layers = np.arange(0, spec.layers, layer_step)
    per_layer = min(wordlines_per_layer_sampled, spec.wordlines_per_layer)
    indices = [
        layer * spec.wordlines_per_layer + k for layer in layers for k in range(per_layer)
    ]

    def batch(cols):
        # per row: a default read, then a read at the optimum
        opt = optimal_offsets_batch(cols)
        default = cols.read_page_batch("MSB").rber
        return list(zip(default, cols.read_page_batch("MSB", opt).rber))

    default_rber: Dict[int, np.ndarray] = {}
    optimal_rber: Dict[int, np.ndarray] = {}
    for pe in pe_cycles:
        chip.set_block_stress(
            0, StressState(pe_cycles=pe, retention_hours=ONE_YEAR_H)
        )
        rber = np.reshape(
            chip.map_wordlines(batch, indices), (len(layers), per_layer, 2)
        )
        default_rber[pe] = rber[..., 0].max(axis=1, initial=0.0)
        optimal_rber[pe] = rber[..., 1].max(axis=1, initial=0.0)
    return Fig3Result(
        kind=kind,
        pe_cycles=tuple(pe_cycles),
        layers=layers,
        default_rber=default_rber,
        optimal_rber=optimal_rber,
    )
