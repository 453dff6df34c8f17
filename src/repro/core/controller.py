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
   other voltages, and retry — until decode or retry exhaustion.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.calibration import CalibrationConfig, Calibrator
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.flash.wordline import Wordline
from repro.obs import OBS
from repro.retry.policy import ReadOutcome, ReadPolicy

__all__ = ["SentinelController", "ReadOutcome"]


class SentinelController(ReadPolicy):
    """Sentinel-assisted read policy ("sentinel" in the paper's figures)."""

    name = "sentinel"

    def __init__(
        self,
        ecc: CapabilityEcc,
        model: SentinelModel,
        calibration: Optional[CalibrationConfig] = None,
        max_retries: int = 10,
        fallback_table: bool = True,
        soft_fallback: bool = False,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.soft_fallback = soft_fallback
        self.model = model
        self._calibration_config = calibration
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
    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        spec = wordline.spec
        temperature = wordline.stress.temperature_c
        outcome = self.new_outcome(wordline, page)
        # A cached sentinel offset (from the serving layer's voltage cache)
        # replaces the default voltages on the first attempt; a fresh hint
        # usually decodes immediately, turning the read into a zero-retry one.
        first = (
            None if hint is None
            else self.model.offsets_from_sentinel(float(hint), temperature)
        )
        if self.attempt(wordline, outcome, first):
            return outcome

        # --- sentinel inference -------------------------------------------
        sentinel_page = spec.gray.voltage_to_page(spec.sentinel_voltage)
        if outcome.page != sentinel_page:
            # CSB/MSB failure: issue the cheap extra read at the sentinel
            # voltage ("this is also an LSB page read").
            outcome.extra_single_reads += 1
        # The error difference is measured at the position the failed read
        # actually applied: the default sentinel voltage, or the hinted one.
        base = float(hint) if hint is not None else 0.0
        readout = wordline.sentinel_readout(base)
        d_rate = readout.difference_rate
        correction = float(
            np.round(self.model.infer_sentinel_offset(d_rate))
        )
        if hint is not None:
            # f(d) was fitted at the default position; relative to a hint it
            # is a first-order correction, so clamp it to half a state pitch
            # (same guard as the tracking+sentinel combination policy).
            correction = float(np.clip(
                correction, -spec.state_pitch / 2, spec.state_pitch / 2
            ))
        sentinel_offset = base + correction
        if OBS.enabled:
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_sentinel_inferences_total",
                    help="sentinel error-difference inferences",
                ).inc()
            if OBS.tracer.enabled:
                OBS.tracer.emit(
                    "sentinel_inference",
                    policy=self.name,
                    page=outcome.page,
                    d_rate=float(d_rate),
                    sentinel_offset=float(sentinel_offset),
                    temperature=float(temperature),
                )
        offsets = self.model.offsets_from_sentinel(sentinel_offset, temperature)
        if self.attempt(wordline, outcome, offsets):
            return outcome

        # --- calibration --------------------------------------------------
        # One state-change comparison (Section III-C) picks the first probe
        # direction: Case 1 (all cells moved more than the scaled sentinels)
        # means the inferred tune fell short — probe further along the
        # inferred direction first; Case 2 means overshoot — probe back.
        # Because the verdict is a small-sample statistic, subsequent probes
        # expand around the inferred offset alternating sides, so a wrong
        # verdict costs one retry instead of a divergent walk.
        calibrator = self._calibrator_for(wordline)
        direction_hint = correction if correction != 0.0 else (
            d_rate if d_rate != 0.0 else -1.0
        )
        # the comparison needs single-voltage reads at the default and the
        # inferred sentinel positions; the default-position read is already
        # in hand (step 2), the inferred-position one is new
        outcome.extra_single_reads += 1
        verdict, _, _ = calibrator.state_change_verdict(
            wordline, sentinel_offset
        )
        sign = float(np.sign(direction_hint)) or -1.0
        first = sign if verdict == "further" else -sign
        # Case 1: all cells moved more than the scaled sentinels — the
        # inferred tune fell short; Case 2: overshoot.
        case = "case1" if verdict == "further" else "case2"
        delta = calibrator.config.delta_steps
        for k in range(1, calibrator.config.max_steps + 1):
            if outcome.retries >= self.max_retries:
                break
            magnitude = (k + 1) // 2 * delta
            side = first if k % 2 == 1 else -first
            current = sentinel_offset + side * magnitude
            outcome.calibration_steps += 1
            if OBS.enabled:
                if OBS.metrics.enabled:
                    OBS.metrics.counter(
                        "repro_calibration_steps_total",
                        help="state-change calibration nudges",
                        case=case,
                    ).inc()
                if OBS.tracer.enabled:
                    OBS.tracer.emit(
                        "calibration_step",
                        policy=self.name,
                        page=outcome.page,
                        step=k,
                        case=case,
                        offset=float(current),
                    )
            offsets = self.model.offsets_from_sentinel(current, temperature)
            if self.attempt(wordline, outcome, offsets):
                return outcome

        if self.fallback_table:
            from repro.retry.current_flash import RetryTable

            if OBS.enabled:
                if OBS.metrics.enabled:
                    OBS.metrics.counter(
                        "repro_fallback_table_reads_total",
                        help="reads that exhausted calibration and fell "
                             "back to the vendor retry table",
                    ).inc()
                if OBS.tracer.enabled:
                    OBS.tracer.emit(
                        "fallback_table",
                        policy=self.name,
                        page=outcome.page,
                        after_retries=outcome.retries,
                    )
            table = RetryTable.vendor_default(spec)
            for k in range(len(table)):
                if outcome.retries >= self.max_retries:
                    break
                if self.attempt(wordline, outcome, table.entry(k)):
                    return outcome
        if self.soft_fallback and not outcome.success:
            self.soft_rescue(wordline, outcome)
        return outcome
