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

from typing import Dict, Optional, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.optimal import optimal_offsets
from repro.flash.wordline import Wordline
from repro.retry.current_flash import CurrentFlashPolicy, RetryTable
from repro.retry.policy import ReadOutcome, ReadPolicy


class TrackingPolicy(ReadPolicy):
    """First attempt at the block's tracked offsets, then the retry table."""

    name = "tracking"

    def __init__(
        self,
        ecc: CapabilityEcc,
        chip: FlashChip,
        sample_wordline: int = 0,
        table: Optional[RetryTable] = None,
        max_retries: int = 10,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.chip = chip
        self.sample_wordline = sample_wordline
        self.table = table or RetryTable.vendor_default(chip.spec)
        self._tracked: Dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    def tracked_offsets(self, block: int) -> np.ndarray:
        """Tracked optima of a block (lazily measured, cached per stress)."""
        key = (block, self.chip.block_stress(block).key())
        if key not in self._tracked:
            sample = self.chip.wordline(block, self.sample_wordline)
            self._tracked[key] = optimal_offsets(sample)
        return self._tracked[key]

    # ------------------------------------------------------------------
    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        # hint ignored: tracking already supplies the first-attempt voltages
        outcome = self.new_outcome(wordline, page)
        tracked = self.tracked_offsets(wordline.block)
        if self.attempt(wordline, outcome, tracked):
            return outcome
        for k in range(min(self.max_retries - 1, len(self.table))):
            if self.attempt(wordline, outcome, self.table.entry(k)):
                return outcome
        return outcome
