"""Tracking baseline (Cai et al., HPCA'15).

Periodically measure the optimal read voltages of one *sampled* wordline per
block and use them for every wordline of the block.  Works on planar flash,
but on 3D flash the optimal voltages differ strongly between wordlines
(Figure 7's stripes), so tracked voltages help some wordlines and hurt others
— the effect Figure 18 shows.

The tracked offsets are refreshed from the sampled wordline at the block's
*current* stress, i.e. we grant the baseline a perfectly fresh update (the
paper notes the real cost of those updates is prohibitive; we only need its
best-case accuracy).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.optimal import optimal_offsets
from repro.retry.current_flash import RetryTable
from repro.retry.policy import ReadPolicy

#: the wordline of each block whose optimum is tracked
SAMPLE_WORDLINE = 0


class TrackedOffsets:
    """Tracked optima: a sampled wordline's optimum at its block's current
    stress, measured lazily (one one-row build and one search) and
    memoized per (block, sample wordline, stress)."""

    def __init__(self, chip: FlashChip) -> None:
        self.chip = chip
        self._tracked: Dict[tuple, np.ndarray] = {}

    def __call__(self, block: int, sample: int = SAMPLE_WORDLINE) -> np.ndarray:
        key = (block, sample, self.chip.block_stress(block).key())
        if key not in self._tracked:
            self._tracked[key] = optimal_offsets(self.chip.wordline(block, sample))
        return self._tracked[key]


class TrackingPolicy(ReadPolicy):
    """First attempt at the block's tracked offsets, then the retry table."""

    name = "tracking"

    def __init__(
        self,
        ecc: CapabilityEcc,
        chip: FlashChip,
        table: Optional[RetryTable] = None,
        max_retries: int = 10,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.table = table or RetryTable.vendor_default(chip.spec)
        #: ``tracked_offsets(block)``: the block's tracked optima
        self.tracked_offsets = TrackedOffsets(chip)

    def schedule(self, wordline, hint, outcome):
        # hint ignored: tracking already supplies the first-attempt voltages
        yield self.tracked_offsets(wordline.block)
        yield from self.table.ladder(self.max_retries - 1)
