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

from repro.core.controller import SentinelController
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.retry.tracking import TrackedOffsets


class TrackedSentinelPolicy(SentinelController):
    """Tracked first attempt, sentinel inference on failure.

    If the inferred retry fails too, the standard sentinel flow runs from
    the default voltages (a fresh inference, calibration, vendor table).
    Its caps count retries from its own default read, so a read can take
    up to ``MAX_RETRIES + 2`` retries.
    """

    name = "tracking+sentinel"

    def __init__(
        self, ecc: CapabilityEcc, chip: FlashChip, model: SentinelModel
    ) -> None:
        super().__init__(ecc, model)
        #: ``tracked_offsets(block)``: the block's tracked optima
        self.tracked_offsets = TrackedOffsets(chip)

    def schedule(self, wordline, hint, outcome):
        # hint ignored: tracking already supplies the first-attempt voltages
        tracked = self.tracked_offsets(wordline.block)
        yield tracked
        # sentinel takeover at the position the failed read applied (the
        # tracked sentinel voltage).  The error difference depends, to
        # first order, only on the distance to the optimum, so f(d)
        # applies relative to it, clamped to half a state pitch.
        sentinel_offset, _, _ = self._infer(
            wordline, outcome,
            float(tracked[wordline.spec.sentinel_voltage - 1]), clamp=True,
        )
        yield self.model.offsets_from_sentinel(
            sentinel_offset, wordline.stress.temperature_c
        )
        yield from super().schedule(wordline, None, outcome)

    # perfbench/bench_trace.py wraps this by name in this class's own
    # __dict__, so it stays here as a delegation to the ReadPolicy driver
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)
