"""Sentinel read controller and the calibration procedure."""

import numpy as np
import pytest

from repro import obs
from repro.core.calibration import (
    BACK, FURTHER, MAX_STEPS, calibration_delta, state_change_verdict,
)
from repro.core.characterization import characterize_chip
from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.obs import OBS
from repro.retry.policy import MAX_RETRIES

STRESSES = (
    StressState(pe_cycles=1000, retention_hours=720),
    StressState(pe_cycles=3000, retention_hours=8760),
    StressState(pe_cycles=5000, retention_hours=8760),
)


@pytest.fixture(scope="module")
def tlc_model(tiny_tlc):
    return characterize_chip(
        FlashChip(tiny_tlc, seed=42), blocks=(0,), stresses=STRESSES,
        wordlines=range(0, 8),
    ).model


@pytest.fixture(scope="module")
def qlc_model(tiny_qlc):
    return characterize_chip(
        FlashChip(tiny_qlc, seed=42), blocks=(0,), stresses=STRESSES,
        wordlines=range(0, 8),
    ).model


@pytest.fixture()
def ecc(tiny_tlc):
    return CapabilityEcc.for_spec(tiny_tlc)


class TestCalibrationDelta:
    def test_scales_with_state_pitch(self, tiny_tlc, tiny_qlc):
        assert calibration_delta(tiny_tlc) == 5
        assert calibration_delta(tiny_qlc) == 3


class TestStateChangeVerdict:
    def test_returns_valid_verdict(self, aged_tlc_chip):
        wl = aged_tlc_chip.wordline(0, 1)
        verdict, nca, ncs = state_change_verdict(wl, -20.0)
        assert verdict in (FURTHER, BACK)
        assert nca >= 0 and ncs >= 0


class TestControllerFlow:
    def test_fresh_page_zero_retries(self, tlc_chip, tlc_model, ecc):
        controller = SentinelController(ecc, tlc_model)
        outcome = controller.read(tlc_chip.wordline(0, 1), "MSB")
        assert outcome.success
        assert outcome.retries == 0
        assert outcome.extra_single_reads == 0

    def test_aged_page_one_retry_typical(self, aged_tlc_chip, tlc_model, ecc):
        controller = SentinelController(ecc, tlc_model)
        retries = []
        for w in range(6):
            outcome = controller.read(aged_tlc_chip.wordline(0, w), "MSB")
            if outcome.success:
                retries.append(outcome.retries)
        assert retries, "no aged read succeeded at all"
        assert np.mean(retries) <= 4.0

    def test_msb_failure_charges_extra_read(self, aged_tlc_chip, tlc_model, ecc):
        controller = SentinelController(ecc, tlc_model)
        outcome = controller.read(aged_tlc_chip.wordline(0, 1), "MSB")
        if outcome.retries >= 1:
            # CSB/MSB failures need the auxiliary LSB-equivalent read
            assert outcome.extra_single_reads >= 1

    def test_lsb_failure_no_extra_sentinel_read(
        self, aged_tlc_chip, tlc_model, ecc
    ):
        controller = SentinelController(ecc, tlc_model)
        outcome = controller.read(aged_tlc_chip.wordline(0, 1), "LSB")
        if outcome.retries == 1 and outcome.calibration_steps == 0:
            # the failed LSB read itself supplies the sentinel errors
            assert outcome.extra_single_reads == 0

    def test_outcome_accounting(self, aged_tlc_chip, tlc_model, ecc):
        controller = SentinelController(ecc, tlc_model)
        outcome = controller.read(aged_tlc_chip.wordline(0, 2), "MSB")
        # every full read is one recorded attempt: the first plus retries,
        # each applying the page's own read voltages
        assert len(outcome.attempts) == 1 + outcome.retries
        spec = aged_tlc_chip.spec
        assert outcome.page == spec.gray.page_index("MSB")
        assert outcome.page_voltages == len(
            spec.gray.page_voltages(outcome.page)
        )

    def test_final_offsets_negative_when_aged(self, aged_tlc_chip, tlc_model, ecc):
        controller = SentinelController(ecc, tlc_model)
        outcome = controller.read(aged_tlc_chip.wordline(0, 3), "MSB")
        if outcome.success and outcome.retries >= 1:
            assert outcome.final_offsets[tlc_model.sentinel_voltage - 1] < 0

    def test_max_retries_respected(self, aged_tlc_chip, tlc_model):
        impossible = CapabilityEcc(capability_rber=1e-9, frame_bits=1024)
        controller = SentinelController(impossible, tlc_model)
        outcome = controller.read(aged_tlc_chip.wordline(0, 1), "MSB")
        assert not outcome.success
        # inferred retry + calibration probes + the vendor-table fallback
        # would exceed the cap, so the cap stops the read
        assert outcome.retries == MAX_RETRIES

    def test_fallback_table_disabled(self, aged_tlc_chip, tlc_model):
        impossible = CapabilityEcc(capability_rber=1e-9, frame_bits=1024)
        controller = SentinelController(
            impossible, tlc_model, delta_steps=5.0, fallback_table=False,
        )
        outcome = controller.read(aged_tlc_chip.wordline(0, 1), "MSB")
        # initial + inferred + the calibration probes only
        assert MAX_STEPS + 1 < MAX_RETRIES
        assert outcome.retries == MAX_STEPS + 1
        assert outcome.calibration_steps == MAX_STEPS

    def test_calibration_step_follows_each_reads_spec(
        self, aged_tlc_chip, tiny_qlc, aged_stress, tlc_model, qlc_model
    ):
        """One controller reads TLC, then QLC: each read's probes move by
        its own spec's Delta (5 steps, then 3), around the inferred offset.
        The model is per chip kind, so it is handed over between reads."""
        qlc_chip = FlashChip(tiny_qlc, seed=7)
        qlc_chip.set_block_stress(0, aged_stress)
        impossible = CapabilityEcc(capability_rber=1e-9, frame_bits=1024)
        controller = SentinelController(
            impossible, tlc_model, fallback_table=False
        )
        obs.enable()
        for chip, model, delta in (
            (aged_tlc_chip, tlc_model, 5), (qlc_chip, qlc_model, 3),
        ):
            controller.model = model
            controller.read(chip.wordline(0, 1), "MSB")
            probes = [
                e.fields["offset"] for e in OBS.tracer.events()
                if e.kind == "calibration_step"
            ][-MAX_STEPS:]
            inferred = (probes[0] + probes[1]) / 2
            assert [abs(p - inferred) for p in probes] == [
                (k + 1) // 2 * delta for k in range(1, MAX_STEPS + 1)
            ]

    def test_reads_are_reproducible_on_a_fresh_wordline(
        self, tiny_tlc, aged_stress, tlc_model, ecc
    ):
        """A re-created wordline replays its read-noise stream."""
        from repro.flash.wordline import Wordline

        controller = SentinelController(ecc, tlc_model)

        def read():
            wl = Wordline(tiny_tlc, 7, 0, 1, stress=aged_stress)
            return controller.read(wl, "MSB")

        a, b = read(), read()
        assert a.retries == b.retries
        assert a.final_rber == b.final_rber
