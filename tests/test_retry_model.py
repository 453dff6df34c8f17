"""Retry profiles bridging chip-level behaviour into the SSD simulator."""

import numpy as np
import pytest

from repro.core.characterization import characterize_chip
from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.retry import CurrentFlashPolicy
from repro.ssd.retry_model import RetryDraws, RetryProfile
from repro.ssd.timing import NandTiming
from repro.util.rng import derive_rng
from tests.profiles import ideal_profile


@pytest.fixture(scope="module")
def measured_profiles(tiny_tlc):
    chip = FlashChip(tiny_tlc, seed=7)
    chip.set_block_stress(0, StressState(pe_cycles=3000, retention_hours=8760))
    ecc = CapabilityEcc.for_spec(tiny_tlc)
    model = characterize_chip(
        FlashChip(tiny_tlc, seed=42),
        blocks=(0,),
        stresses=(
            StressState(pe_cycles=1000, retention_hours=720),
            StressState(pe_cycles=3000, retention_hours=8760),
        ),
        wordlines=range(0, 8),
    ).model
    current = RetryProfile.measure(
        chip, CurrentFlashPolicy(ecc, tiny_tlc), wordlines=range(0, 8)
    )
    sentinel = RetryProfile.measure(
        chip, SentinelController(ecc, model), wordlines=range(0, 8)
    )
    return current, sentinel


class TestMeasure:
    def test_covers_all_page_types(self, measured_profiles, tiny_tlc):
        current, _ = measured_profiles
        assert set(current.samples) == set(range(tiny_tlc.pages_per_wordline))

    def test_page_voltages_recorded(self, measured_profiles):
        current, _ = measured_profiles
        assert current.page_voltages[0] == 1  # LSB
        assert current.page_voltages[2] == 4  # MSB

    def test_sentinel_retries_fewer(self, measured_profiles):
        current, sentinel = measured_profiles
        assert sentinel.mean_retries() < current.mean_retries()

    def test_msb_retries_most(self, measured_profiles):
        current, _ = measured_profiles
        assert current.mean_retries(2) >= current.mean_retries(0)

    def test_mean_read_time_ordering(self, measured_profiles):
        current, sentinel = measured_profiles
        timing = NandTiming()
        assert sentinel.mean_read_us(timing) < current.mean_read_us(timing)


class TestSampling:
    def test_samples_from_pool(self, measured_profiles):
        current, _ = measured_profiles
        draws = RetryDraws(derive_rng(1))
        pool = {tuple(r) for r in current.samples[2]}
        for _ in range(20):
            assert current.sample(2, draws) in pool

    def test_ideal_profile_zero(self):
        profile = ideal_profile([0, 1, 2], {0: 1, 1: 2, 2: 4})
        draws = RetryDraws(derive_rng(2))
        assert profile.sample(1, draws) == (0, 0)
        assert profile.mean_retries() == 0.0
