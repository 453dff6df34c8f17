"""Figure 2: bit errors versus read-voltage offset (the motivation figure).

The paper opens with the V-shaped relationship between a read voltage's
offset and the number of bit errors it introduces: errors are minimized at
one optimal position and grow on both sides.  Everything else in the paper
is about finding that minimum quickly.  This driver produces the curve for
any boundary of any wordline, plus summary statistics (optimal position,
error count at default/optimal, curve asymmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exp.common import eval_chip
from repro.flash.optimal import boundary_error_counts_batch, optimal_offsets_batch


@dataclass
class Fig2Result:
    kind: str
    vindex: int
    offsets: np.ndarray
    errors: np.ndarray  # mean over sampled wordlines
    optimal: float  # mean optimal offset
    at_default: float
    at_optimal: float

    @property
    def reduction(self) -> float:
        return self.at_default / max(self.at_optimal, 1e-9)

    def is_v_shaped(self) -> bool:
        """Errors decrease toward the minimum and increase past it."""
        i_min = int(np.argmin(self.errors))
        left = self.errors[: i_min + 1]
        right = self.errors[i_min:]
        # allow small counting wiggles on the flanks
        return (
            self.errors[0] > self.errors[i_min] * 1.5
            and self.errors[-1] > self.errors[i_min] * 1.5
            and left[0] >= left.min()
            and right[-1] >= right.min()
        )

    def rows(self) -> list:
        return [
            ("mean optimal offset", round(self.optimal, 1)),
            ("errors at default", round(self.at_default, 1)),
            ("errors at optimal", round(self.at_optimal, 1)),
            ("reduction", f"{self.reduction:.1f}x"),
        ]


def run_fig2(
    kind: str = "tlc",
    vindex: int = 4,
    wordlines: Sequence[int] = (0, 16, 32, 48),
    span: int = 120,
    step: int = 2,
) -> Fig2Result:
    """Average error-vs-offset curve of one boundary over a few wordlines."""
    chip = eval_chip(kind)
    offsets = np.arange(-span, span // 3 + 1, step)

    def batch(cols):
        up, down = boundary_error_counts_batch(cols, None, vindex, offsets)
        optima = optimal_offsets_batch(cols, voltages=[vindex])[:, vindex - 1]
        return list(zip(up + down, optima))

    rows = chip.map_wordlines(batch, wordlines)
    errors = np.mean([curve for curve, _ in rows], axis=0)
    optima = [opt for _, opt in rows]
    zero_index = int(np.argmin(np.abs(offsets)))
    return Fig2Result(
        kind=kind,
        vindex=vindex,
        offsets=offsets,
        errors=errors,
        optimal=float(np.mean(optima)),
        at_default=float(errors[zero_index]),
        at_optimal=float(errors.min()),
    )
