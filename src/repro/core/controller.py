"""The sentinel read controller: the paper's online read flow.

For a page read (Section III-B):

1. Read with the default voltages.  Decode -> done, zero retries.
2. On failure, obtain the sentinel error difference ``d`` at the default
   sentinel voltage.  For the LSB page the failed read already applied that
   voltage; for CSB/MSB pages one *extra single-voltage read* is issued —
   much cheaper than a retry, since sensing latency is proportional to the
   number of read voltages applied.
3. Map ``d`` through the fitted polynomial to the optimal sentinel-voltage
   offset, derive every other voltage from the correlation table for the
   current temperature, and retry.
4. If the retry still fails, run the state-change calibration loop
   (Section III-C): compare ``NCa`` with the scaled sentinel count, nudge the
   sentinel offset by ``Delta`` in the indicated direction, re-derive the
   other voltages, and retry — until decode, ``MAX_STEPS`` probes or
   ``MAX_RETRIES`` retries.
5. If calibration exhausts, walk the vendor retry table (up to
   ``MAX_RETRIES`` retries in all).

There is no soft-decode stage: a read whose schedule runs out fails.

The flow is a lazy offset :meth:`SentinelController.schedule`: each step's
voltages are decided after the previous attempt failed, from auxiliary
senses the schedule makes itself.  :class:`repro.retry.policy.ReadPolicy`
drives it per wordline or in lockstep over a columnar batch, like every
other policy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.calibration import MAX_STEPS, CalibrationConfig, Calibrator
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.flash.wordline import Wordline
from repro.retry.current_flash import vendor_table
from repro.retry.policy import (
    MAX_RETRIES, ReadOutcome, ReadPolicy, ScheduleEvent,
)

__all__ = ["SentinelController", "ReadOutcome"]

SENTINEL_INFERENCE = ScheduleEvent(
    "sentinel_inference",
    "repro_sentinel_inferences_total",
    "sentinel error-difference inferences",
)
CALIBRATION_STEP = ScheduleEvent(
    "calibration_step",
    "repro_calibration_steps_total",
    "state-change calibration nudges",
    labels=("case",),
)
FALLBACK_TABLE = ScheduleEvent(
    "fallback_table",
    "repro_fallback_table_reads_total",
    "reads that exhausted calibration and fell back to the vendor retry "
    "table",
)


class SentinelController(ReadPolicy):
    """Sentinel-assisted read policy ("sentinel" in the paper's figures)."""

    name = "sentinel"

    def __init__(
        self,
        ecc: CapabilityEcc,
        model: SentinelModel,
        calibration: Optional[CalibrationConfig] = None,
        fallback_table: bool = True,
    ) -> None:
        super().__init__(ecc)
        self.model = model
        self._calibrator: Optional[Calibrator] = (
            Calibrator(calibration) if calibration else None
        )
        # Real FTLs never leave data unreadable: when the calibration loop
        # exhausts, fall through to the standard vendor retry table.
        self.fallback_table = fallback_table

    def _calibrator_for(self, wordline: Wordline) -> Calibrator:
        if self._calibrator is None:
            self._calibrator = Calibrator(
                CalibrationConfig.for_spec(wordline.spec)
            )
        return self._calibrator

    # ------------------------------------------------------------------
    def schedule(self, wordline, hint, outcome):
        temperature = wordline.stress.temperature_c
        # A cached sentinel offset (from the serving layer's voltage cache)
        # replaces the default voltages on the first attempt; a fresh hint
        # usually decodes immediately, turning the read into a zero-retry one.
        if hint is None:
            yield None
        else:
            yield self.model.offsets_from_sentinel(float(hint), temperature)
        # the calibration and table caps count retries from this flow's
        # first attempt (a TrackedSentinelPolicy read's third)
        start = outcome.retries
        sentinel_offset, correction, d_rate = self._infer(
            wordline, outcome, 0.0 if hint is None else float(hint),
            clamp=hint is not None,
        )
        yield self.model.offsets_from_sentinel(sentinel_offset, temperature)

        # --- calibration --------------------------------------------------
        # One state-change comparison (Section III-C) picks the first probe
        # direction: Case 1 (all cells moved more than the scaled sentinels)
        # means the inferred tune fell short — probe further along the
        # inferred direction first; Case 2 means overshoot — probe back.
        # Because the verdict is a small-sample statistic, subsequent probes
        # expand around the inferred offset alternating sides, so a wrong
        # verdict costs one retry instead of a divergent walk.
        calibrator = self._calibrator_for(wordline)
        # the comparison needs single-voltage reads at the default and the
        # inferred sentinel positions; the default-position read is already
        # in hand (step 2), the inferred-position one is new
        outcome.extra_single_reads += 1
        verdict, _, _ = calibrator.state_change_verdict(
            wordline, sentinel_offset
        )
        sign = float(np.sign(correction or d_rate)) or -1.0
        first_side = sign if verdict == "further" else -sign
        case = "case1" if verdict == "further" else "case2"
        delta = calibrator.config.delta_steps
        for k in range(1, MAX_STEPS + 1):
            if outcome.retries - start >= MAX_RETRIES:
                break
            magnitude = (k + 1) // 2 * delta
            side = first_side if k % 2 == 1 else -first_side
            current = sentinel_offset + side * magnitude
            outcome.calibration_steps += 1
            self.note(
                outcome, CALIBRATION_STEP,
                step=k, case=case, offset=float(current),
            )
            yield self.model.offsets_from_sentinel(current, temperature)

        if self.fallback_table:
            self.note(outcome, FALLBACK_TABLE, after_retries=outcome.retries)
            for entry in vendor_table(wordline.spec):
                if outcome.retries - start >= MAX_RETRIES:
                    break
                yield entry

    # perfbench/bench_trace.py wraps this by name in this class's own
    # __dict__, so it stays here as a delegation to the ReadPolicy driver
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)

    # ------------------------------------------------------------------
    def _infer(
        self, wordline: Wordline, outcome: ReadOutcome, base: float,
        clamp: bool,
    ) -> Tuple[float, float, float]:
        """Sentinel inference after a failed read that applied ``base``.

        The error difference is measured at the position the failed read
        actually applied (``base`` at the sentinel voltage).  Returns the
        inferred sentinel offset, the correction it applies to ``base``
        and the error-difference rate.  ``f(d)`` was fitted at the default
        position; relative to any other base it is a first-order
        correction, so ``clamp`` bounds it to half a state pitch.
        """
        spec = wordline.spec
        if outcome.page != spec.gray.voltage_to_page(spec.sentinel_voltage):
            # CSB/MSB failure: issue the cheap extra read at the sentinel
            # voltage ("this is also an LSB page read").
            outcome.extra_single_reads += 1
        d_rate = wordline.sentinel_readout(base).difference_rate
        correction = float(np.round(self.model.infer_sentinel_offset(d_rate)))
        if clamp:
            half_pitch = spec.state_pitch / 2
            correction = float(np.clip(correction, -half_pitch, half_pitch))
        sentinel_offset = base + correction
        self.note(
            outcome, SENTINEL_INFERENCE,
            d_rate=float(d_rate),
            sentinel_offset=float(sentinel_offset),
            temperature=float(wordline.stress.temperature_c),
        )
        return sentinel_offset, correction, d_rate
