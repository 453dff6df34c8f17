"""Baseline read policies: retry table, tracking, layer similarity, oracle."""

import numpy as np
import pytest

from repro.ecc.capability import CapabilityEcc
from repro.retry import (
    MAX_RETRIES,
    CurrentFlashPolicy,
    LayerSimilarityPolicy,
    OraclePolicy,
    TrackingPolicy,
    vendor_table,
)


@pytest.fixture()
def ecc(tiny_tlc):
    return CapabilityEcc.for_spec(tiny_tlc)


class TestRetryTable:
    def test_vendor_default_shape(self, tiny_tlc):
        table = vendor_table(tiny_tlc)
        assert table.shape == (12, tiny_tlc.n_voltages)

    def test_entries_grow_in_magnitude(self, tiny_tlc):
        table = vendor_table(tiny_tlc)
        norms = np.abs(table).sum(axis=1)
        assert (np.diff(norms) > 0).all()

    def test_programmed_boundaries_move_down(self, tiny_tlc):
        table = vendor_table(tiny_tlc)
        # V2..V7 separate programmed states, which leak downward
        assert (table[:, 1:] <= 0).all()

    def test_v1_correction_smaller_than_v2(self, tiny_tlc):
        # the erased state creeps up, partially cancelling V1's correction
        table = vendor_table(tiny_tlc)
        assert abs(table[-1, 0]) < abs(table[-1, 1])

    def test_len_and_entry(self, tiny_tlc):
        """The table is a read-only array: a policy cannot edit the ladder
        another policy of the same chip walks."""
        table = vendor_table(tiny_tlc)
        assert len(table) > MAX_RETRIES
        assert table[0].shape == (tiny_tlc.n_voltages,)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestCurrentFlashPolicy:
    def test_fresh_read_no_retry(self, tlc_chip, ecc):
        policy = CurrentFlashPolicy(ecc, tlc_chip.spec)
        outcome = policy.read(tlc_chip.wordline(0, 0), "MSB")
        assert outcome.success and outcome.retries == 0

    def test_aged_read_walks_table(self, aged_tlc_chip, ecc):
        policy = CurrentFlashPolicy(ecc, aged_tlc_chip.spec)
        outcomes = [
            policy.read(aged_tlc_chip.wordline(0, w), "MSB") for w in range(6)
        ]
        assert any(o.retries >= 2 for o in outcomes)

    def test_never_exceeds_max_retries(self, aged_tlc_chip):
        impossible = CapabilityEcc(capability_rber=1e-9, frame_bits=1024)
        policy = CurrentFlashPolicy(impossible, aged_tlc_chip.spec)
        outcome = policy.read(aged_tlc_chip.wordline(0, 0), "MSB")
        # the 12-entry table is longer than the cap, so the cap stops it
        assert outcome.retries == MAX_RETRIES and not outcome.success

    def test_attempts_recorded(self, aged_tlc_chip, ecc):
        policy = CurrentFlashPolicy(ecc, aged_tlc_chip.spec)
        outcome = policy.read(aged_tlc_chip.wordline(0, 1), "MSB")
        assert len(outcome.attempts) == outcome.retries + 1
        assert outcome.attempts[0].rber >= outcome.final_rber * 0.5


class TestOraclePolicy:
    def test_succeeds_on_aged_block(self, aged_tlc_chip, ecc):
        policy = OraclePolicy(ecc)
        outcome = policy.read(aged_tlc_chip.wordline(0, 1), "MSB")
        assert outcome.success
        assert outcome.retries <= 1

    def test_oracle_beats_default_rber(self, aged_tlc_chip, ecc):
        policy = OraclePolicy(ecc)
        outcome = policy.read(aged_tlc_chip.wordline(0, 1), "MSB")
        if outcome.retries:
            assert outcome.final_rber < outcome.attempts[0].rber


class TestTrackingPolicy:
    def test_tracked_offsets_cached_per_stress(self, aged_tlc_chip, ecc):
        policy = TrackingPolicy(ecc, aged_tlc_chip)
        a = policy.tracked_offsets(0)
        b = policy.tracked_offsets(0)
        assert a is b

    def test_tracked_offsets_follow_stress(self, tlc_chip, ecc, aged_stress):
        policy = TrackingPolicy(ecc, tlc_chip)
        fresh = policy.tracked_offsets(0).copy()
        tlc_chip.set_block_stress(0, aged_stress)
        aged = policy.tracked_offsets(0)
        assert np.abs(aged).sum() > np.abs(fresh).sum()

    def test_helps_on_aged_block(self, aged_tlc_chip, ecc):
        policy = TrackingPolicy(ecc, aged_tlc_chip)
        outcome = policy.read(aged_tlc_chip.wordline(0, 3), "MSB")
        assert outcome.success
        # tracked voltages usually land within a couple of retries
        assert outcome.retries <= 4


class TestLayerSimilarityPolicy:
    def test_per_layer_tracking(self, aged_tlc_chip, ecc):
        policy = LayerSimilarityPolicy(ecc, aged_tlc_chip)
        a = policy.tracked_offsets(0, 0)
        b = policy.tracked_offsets(0, 1)
        assert not np.array_equal(a, b)

    def test_reads_succeed(self, aged_tlc_chip, ecc):
        policy = LayerSimilarityPolicy(ecc, aged_tlc_chip)
        outcome = policy.read(aged_tlc_chip.wordline(0, 1), "MSB")
        assert outcome.success

    def test_layer_tracking_at_least_as_good_as_block(
        self, aged_tlc_chip, ecc
    ):
        block_policy = TrackingPolicy(ecc, aged_tlc_chip)
        layer_policy = LayerSimilarityPolicy(ecc, aged_tlc_chip)
        block_retries = layer_retries = 0
        for w in range(6):
            block_retries += block_policy.read(
                aged_tlc_chip.wordline(0, w), "MSB"
            ).retries
            layer_retries += layer_policy.read(
                aged_tlc_chip.wordline(0, w), "MSB"
            ).retries
        assert layer_retries <= block_retries + 2

