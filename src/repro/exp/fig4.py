"""Figure 4: page RBER after one hour at room vs high temperature.

High temperature accelerates retention loss (Arrhenius), so a block that
spent one hour at 80 degC (inside a busy computer case) shows markedly
higher RBER on every page than the same block after one hour at 25 degC.
The paper uses this to argue that tracking-based methods with daily update
periods cannot follow the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exp.common import HIGH_TEMP_C, eval_chip
from repro.flash.mechanisms import StressState


@dataclass
class Fig4Result:
    kind: str
    wordlines: np.ndarray
    room_rber: Dict[str, np.ndarray]  # page name -> per-wordline RBER
    high_rber: Dict[str, np.ndarray]

    def mean_ratio(self, page: str) -> float:
        """How much worse one hot hour is than one room-temperature hour."""
        room = self.room_rber[page].mean()
        return float(self.high_rber[page].mean() / max(room, 1e-12))

    def rows(self) -> list:
        return [
            (
                page,
                float(self.room_rber[page].mean()),
                float(self.high_rber[page].mean()),
                self.mean_ratio(page),
            )
            for page in self.room_rber
        ]


def run_fig4(
    kind: str = "qlc",
    pe_cycles: int = 3000,
    retention_hours: float = 1.0,
    wordline_step: int = 2,
    pages: Optional[Sequence[str]] = None,
) -> Fig4Result:
    """Per-wordline RBER of every page under the two temperature conditions.

    The same wordlines (same cells) are evaluated under both stresses — the
    model's latent decomposition guarantees the comparison is apples to
    apples, as it was on the paper's physical chips.
    """
    chip = eval_chip(kind)
    spec = chip.spec
    page_names = list(pages) if pages is not None else list(spec.gray.page_names)
    indices = np.arange(0, spec.wordlines_per_block, wordline_step)
    room = StressState(pe_cycles=pe_cycles, retention_hours=retention_hours)
    hot = replace(room, temperature_c=HIGH_TEMP_C)

    def batch(cols):
        # per row: every page in turn
        return list(zip(*(cols.read_page_batch(p).rber for p in page_names)))

    rber = np.reshape(  # (stress, wordline, page)
        chip.map_wordlines(batch, indices, stresses=(room, hot)),
        (2, len(indices), -1),
    )
    room_rber, high_rber = (
        {page: r[:, i] for i, page in enumerate(page_names)} for r in rber
    )
    return Fig4Result(
        kind=kind, wordlines=indices, room_rber=room_rber, high_rber=high_rber
    )
