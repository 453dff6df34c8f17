"""Layer-similarity baseline (Shim et al., MICRO'19).

3D flash wordlines within one layer share process characteristics, so one
tracked optimum per *layer* (instead of per block) captures most of the
variation.  The FTL must store per-layer tables and still pay the initial
search cost per layer; accuracy sits between whole-block tracking and the
per-wordline sentinel inference.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.optimal import optimal_offsets
from repro.flash.wordline import Wordline
from repro.retry.current_flash import RetryTable
from repro.retry.policy import ReadOutcome, ReadPolicy


class LayerSimilarityPolicy(ReadPolicy):
    """First attempt at the layer's tracked offsets, then the retry table."""

    name = "layer-similarity"

    def __init__(
        self,
        ecc: CapabilityEcc,
        chip: FlashChip,
        table: Optional[RetryTable] = None,
        max_retries: int = 10,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.chip = chip
        self.table = table or RetryTable.vendor_default(chip.spec)
        self._tracked: Dict[tuple, np.ndarray] = {}

    def tracked_offsets(self, block: int, layer: int) -> np.ndarray:
        """Tracked optima of one layer (first wordline of the layer)."""
        key = (block, layer, self.chip.block_stress(block).key())
        if key not in self._tracked:
            sample_index = layer * self.chip.spec.wordlines_per_layer
            sample = self.chip.wordline(block, sample_index)
            self._tracked[key] = optimal_offsets(sample)
        return self._tracked[key]

    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        # hint ignored: the per-layer tracked table plays the same role
        outcome = self.new_outcome(wordline, page)
        tracked = self.tracked_offsets(wordline.block, wordline.layer)
        if self.attempt(wordline, outcome, tracked):
            return outcome
        for k in range(min(self.max_retries - 1, len(self.table))):
            if self.attempt(wordline, outcome, self.table.entry(k)):
                return outcome
        return outcome
