"""Sentinel read controller and the calibration procedure."""

import numpy as np
import pytest

from repro.core.calibration import (
    BACK, FURTHER, MAX_STEPS, CalibrationConfig, Calibrator,
)
from repro.core.characterization import characterize_chip
from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.retry.policy import MAX_RETRIES


@pytest.fixture(scope="module")
def tlc_model(tiny_tlc):
    chip = FlashChip(tiny_tlc, seed=42)
    stresses = (
        StressState(pe_cycles=1000, retention_hours=720),
        StressState(pe_cycles=3000, retention_hours=8760),
        StressState(pe_cycles=5000, retention_hours=8760),
    )
    return characterize_chip(
        chip, blocks=(0,), stresses=stresses, wordlines=range(0, 8)
    ).model


@pytest.fixture()
def ecc(tiny_tlc):
    return CapabilityEcc.for_spec(tiny_tlc)


class TestCalibrationConfig:
    def test_for_spec_scales_delta(self, tiny_tlc, tiny_qlc):
        tlc = CalibrationConfig.for_spec(tiny_tlc)
        qlc = CalibrationConfig.for_spec(tiny_qlc)
        assert tlc.delta_steps > qlc.delta_steps


class TestCalibratorVerdict:
    def test_returns_valid_verdict(self, aged_tlc_chip):
        wl = aged_tlc_chip.wordline(0, 1)
        cal = Calibrator(CalibrationConfig.for_spec(wl.spec))
        verdict, nca, ncs = cal.state_change_verdict(wl, -20.0)
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
            impossible, tlc_model, fallback_table=False,
            calibration=CalibrationConfig(delta_steps=5.0),
        )
        outcome = controller.read(aged_tlc_chip.wordline(0, 1), "MSB")
        # initial + inferred + the calibration probes only
        assert MAX_STEPS + 1 < MAX_RETRIES
        assert outcome.retries == MAX_STEPS + 1
        assert outcome.calibration_steps == MAX_STEPS

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
