"""Figure 5: optimal read-voltage offsets at room vs high temperature.

Companion to Figure 4: after one hour at 80 degC the optimal offsets of the
read voltages sit clearly lower (more negative) than after one hour at room
temperature — the optimum moves within a single hour, which is what defeats
periodic tracking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

import numpy as np

from repro.exp.common import HIGH_TEMP_C, eval_chip
from repro.flash.mechanisms import StressState
from repro.flash.optimal import optimal_offsets_batch


@dataclass
class Fig5Result:
    kind: str
    voltages: Sequence[int]
    wordlines: np.ndarray
    room_offsets: Dict[int, np.ndarray]  # vindex -> per-wordline optimum
    high_offsets: Dict[int, np.ndarray]

    def mean_gap(self, vindex: int) -> float:
        """Mean (room - high) optimum gap; positive when heat pushes lower."""
        return float(
            self.room_offsets[vindex].mean() - self.high_offsets[vindex].mean()
        )

    def rows(self) -> list:
        return [
            (
                f"V{v}",
                float(self.room_offsets[v].mean()),
                float(self.high_offsets[v].mean()),
                self.mean_gap(v),
            )
            for v in self.voltages
        ]


def run_fig5(
    kind: str = "qlc",
    voltages: Sequence[int] = (3, 6, 8, 14),
    pe_cycles: int = 3000,
    retention_hours: float = 1.0,
    wordline_step: int = 4,
) -> Fig5Result:
    """Per-wordline optimal offsets of selected voltages, both temperatures."""
    chip = eval_chip(kind)
    spec = chip.spec
    indices = np.arange(0, spec.wordlines_per_block, wordline_step)
    room = StressState(pe_cycles=pe_cycles, retention_hours=retention_hours)
    conditions = {"room": room, "high": replace(room, temperature_c=HIGH_TEMP_C)}
    results = {
        name: {v: np.zeros(len(indices)) for v in voltages}
        for name in conditions
    }
    for name, stress in conditions.items():
        chip.set_block_stress(0, stress)
        optima = np.vstack(chip.map_wordlines(
            lambda cols: list(optimal_offsets_batch(cols, voltages=voltages)),
            indices,
        ))
        for v in voltages:
            results[name][v][:] = optima[:, v - 1]
    return Fig5Result(
        kind=kind,
        voltages=tuple(voltages),
        wordlines=indices,
        room_offsets=results["room"],
        high_offsets=results["high"],
    )
