"""Combination of tracking and the sentinel inference (Related Work).

The paper notes its method "can be well combined with previous work: read
operations can start with the tracked optimal read voltages to reduce the
failure rate of the first read operation, and our sentinel based prediction
is applied once there is a read failure."  This policy implements exactly
that: the first attempt uses the block's tracked offsets; on failure the
sentinel machinery takes over (measuring the error difference at the
*tracked* sentinel position, since that is what the failed read applied).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.calibration import CalibrationConfig
    from repro.core.models import SentinelModel
from repro.flash.chip import FlashChip
from repro.flash.optimal import optimal_offsets
from repro.flash.wordline import Wordline
from repro.retry.policy import ReadOutcome, ReadPolicy


class TrackedSentinelPolicy(ReadPolicy):
    """Tracked first attempt, sentinel inference on failure."""

    name = "tracking+sentinel"

    def __init__(
        self,
        ecc: CapabilityEcc,
        chip: FlashChip,
        model: "SentinelModel",
        sample_wordline: int = 0,
        calibration: "Optional[CalibrationConfig]" = None,
        max_retries: int = 10,
    ) -> None:
        from repro.core.controller import SentinelController

        super().__init__(ecc, max_retries)
        self.chip = chip
        self.sample_wordline = sample_wordline
        self._tracked: dict = {}
        # delegate the post-failure flow to the sentinel controller, but
        # skip its own default first attempt
        self._sentinel = SentinelController(
            ecc, model, calibration=calibration, max_retries=max_retries
        )
        self.model = model

    def tracked_offsets(self, block: int) -> np.ndarray:
        key = (block, self.chip.block_stress(block).key())
        if key not in self._tracked:
            sample = self.chip.wordline(block, self.sample_wordline)
            self._tracked[key] = optimal_offsets(sample)
        return self._tracked[key]

    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        # hint ignored: tracking already supplies the first-attempt voltages
        spec = wordline.spec
        outcome = self.new_outcome(wordline, page)
        tracked = self.tracked_offsets(wordline.block)
        if self.attempt(wordline, outcome, tracked):
            return outcome

        # sentinel takeover: measure the error difference at the position
        # the failed read actually applied (the tracked sentinel voltage)
        sentinel_page = spec.gray.voltage_to_page(spec.sentinel_voltage)
        if outcome.page != sentinel_page:
            outcome.extra_single_reads += 1
        tracked_sent = float(tracked[spec.sentinel_voltage - 1])
        readout = wordline.sentinel_readout(tracked_sent)
        # f(d) estimates (optimum - reading position): fitted at the default
        # position, but the error difference depends (to first order) only
        # on the distance to the optimum, so the same map applies relative
        # to the tracked position.  Clamped: a noisy reading must not move
        # the voltage by more than half a state pitch on top of tracking.
        correction = float(
            np.round(self.model.infer_sentinel_offset(readout.difference_rate))
        )
        correction = float(np.clip(correction, -spec.state_pitch / 2,
                                   spec.state_pitch / 2))
        sentinel_offset = tracked_sent + correction
        temperature = wordline.stress.temperature_c
        offsets = self.model.offsets_from_sentinel(sentinel_offset, temperature)
        if self.attempt(wordline, outcome, offsets):
            return outcome

        # hand the rest to the standard sentinel flow (fresh inference from
        # the default position plus calibration/fallback)
        tail = self._sentinel.read(wordline, page)
        outcome.retries += tail.retries + 1  # tail includes its own default read
        outcome.extra_single_reads += tail.extra_single_reads
        outcome.calibration_steps += tail.calibration_steps
        outcome.attempts.extend(tail.attempts)
        outcome.success = tail.success
        return outcome
