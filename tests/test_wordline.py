"""Wordline programming, reads, and error accounting."""

import dataclasses

import numpy as np
import pytest

from repro.exp.fig7 import error_positions
from repro.flash.mechanisms import StressState
from repro.flash.wordline import Wordline, make_offsets
from repro.util.rng import derive_rng


@pytest.fixture()
def fresh_wl(tiny_tlc):
    return Wordline(tiny_tlc, chip_seed=1, block=0, index=3)


@pytest.fixture()
def aged_wl(tiny_tlc, aged_stress):
    return Wordline(tiny_tlc, chip_seed=1, block=0, index=3, stress=aged_stress)


@pytest.fixture()
def aged_qlc_wl(tiny_qlc, aged_stress):
    return Wordline(tiny_qlc, chip_seed=1, block=0, index=3, stress=aged_stress)


class TestMakeOffsets:
    def test_none_gives_zeros(self, tiny_tlc):
        np.testing.assert_array_equal(make_offsets(tiny_tlc), np.zeros(7))

    def test_scalar_broadcast(self, tiny_tlc):
        np.testing.assert_array_equal(make_offsets(tiny_tlc, -5), -5 * np.ones(7))

    def test_mapping(self, tiny_tlc):
        dense = make_offsets(tiny_tlc, {4: -10, 7: 3})
        assert dense[3] == -10 and dense[6] == 3 and dense[0] == 0

    def test_mapping_bad_index(self, tiny_tlc):
        with pytest.raises(IndexError):
            make_offsets(tiny_tlc, {8: 1})

    def test_dense_passthrough_copies(self, tiny_tlc):
        src = np.arange(7, dtype=float)
        dense = make_offsets(tiny_tlc, src)
        dense[0] = 99
        assert src[0] == 0

    def test_wrong_shape_rejected(self, tiny_tlc):
        with pytest.raises(ValueError):
            make_offsets(tiny_tlc, np.zeros(6))


class TestConstruction:
    def test_deterministic_cells(self, tiny_tlc):
        a = Wordline(tiny_tlc, 1, 0, 3)
        b = Wordline(tiny_tlc, 1, 0, 3)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.vth, b.vth)

    def test_different_wordlines_differ(self, tiny_tlc):
        a = Wordline(tiny_tlc, 1, 0, 3)
        b = Wordline(tiny_tlc, 1, 0, 4)
        assert not np.array_equal(a.states, b.states)

    def test_sentinel_reservation(self, fresh_wl):
        spec = fresh_wl.spec
        expected = spec.sentinel_cells(0.002)
        assert fresh_wl.n_sentinels == expected
        assert fresh_wl.n_data_cells == spec.cells_per_wordline - expected

    def test_sentinels_in_adjacent_states(self, fresh_wl):
        s_lo, s_hi = fresh_wl.spec.gray.adjacent_states(
            fresh_wl.spec.sentinel_voltage
        )
        states = fresh_wl.sentinel_states
        assert set(np.unique(states)) == {s_lo, s_hi}
        # evenly split between the two states
        assert abs((states == s_lo).sum() - (states == s_hi).sum()) <= 1

    def test_sentinels_spread_along_wordline(self, fresh_wl):
        idx = fresh_wl.sentinel_indices
        gaps = np.diff(idx)
        assert gaps.max() < 2.5 * gaps.min() + 2

    def test_no_sentinels_mode(self, tiny_tlc):
        wl = Wordline(tiny_tlc, 1, 0, 3, sentinel_ratio=0.0)
        assert wl.n_sentinels == 0
        with pytest.raises(RuntimeError):
            wl.sentinel_readout()

    def test_layer_attribute(self, tiny_tlc):
        wl = Wordline(tiny_tlc, 1, 0, 3)
        assert wl.layer == tiny_tlc.layer_of_wordline(3)


class TestReads:
    def test_fresh_read_nearly_clean(self, fresh_wl):
        result = fresh_wl.read_page("MSB")
        assert result.rber < 1e-3

    def test_aged_read_much_worse(self, fresh_wl, aged_wl):
        fresh = fresh_wl.read_page("MSB").rber
        aged = aged_wl.read_page("MSB").rber
        assert aged > 5 * max(fresh, 1e-5)

    def test_read_noise_varies_between_reads(self, aged_wl):
        a = aged_wl.read_page("MSB").n_errors
        b = aged_wl.read_page("MSB").n_errors
        # same voltages, different sensing noise -> usually different counts
        c = aged_wl.read_page("MSB").n_errors
        assert len({a, b, c}) > 1

    def test_fresh_wordline_reproducible(self, tiny_tlc, aged_stress):
        """Re-creating a wordline restarts its read-noise stream."""
        def first_read():
            wl = Wordline(tiny_tlc, 1, 0, 3, stress=aged_stress)
            return wl.read_page("MSB").mismatch

        np.testing.assert_array_equal(first_read(), first_read())

    def test_mismatch_mask_matches_count(self, aged_wl):
        result = aged_wl.read_page("MSB")
        assert result.mismatch.sum() == result.n_errors
        assert len(result.mismatch) == aged_wl.n_data_cells

    def test_all_pages_readable(self, aged_qlc_wl):
        for page in aged_qlc_wl.spec.gray.page_names:
            result = aged_qlc_wl.read_page(page)
            assert 0 <= result.rber < 0.5

    def test_good_offsets_reduce_errors(self, aged_wl):
        from repro.flash.optimal import optimal_offsets

        default = aged_wl.read_page("MSB").n_errors
        tuned = aged_wl.read_page("MSB", optimal_offsets(aged_wl)).n_errors
        assert tuned < default

    def test_set_stress_reuses_cells(self, tiny_tlc):
        wl = Wordline(tiny_tlc, 1, 0, 3)
        states_before = wl.states.copy()
        wl.set_stress(StressState(pe_cycles=3000, retention_hours=8760))
        np.testing.assert_array_equal(wl.states, states_before)

    def test_more_stress_lower_vth(self, tiny_tlc):
        wl = Wordline(tiny_tlc, 1, 0, 3)
        fresh_mean = wl.vth[wl.states == 5].mean()
        wl.set_stress(StressState(pe_cycles=3000, retention_hours=8760))
        aged_mean = wl.vth[wl.states == 5].mean()
        assert aged_mean < fresh_mean - 10


class TestPerVoltageErrors:
    def test_sums_to_all_boundary_crossings(self, tiny_tlc, aged_stress):
        # two copies of one wordline sense with the same noise draws
        twin = Wordline(tiny_tlc, 1, 0, 3, stress=aged_stress)
        wl = Wordline(tiny_tlc, 1, 0, 3, stress=aged_stress)
        est = twin.store.read_states_batch()[0]
        data = wl.data_mask
        crossings = np.abs(
            est[data].astype(int) - wl.states[data].astype(int)
        ).sum()
        per_v = wl.store.per_voltage_errors_batch()[0]
        assert per_v.sum() == crossings

    def test_low_voltages_dominate_when_aged(self, aged_qlc_wl):
        errors = aged_qlc_wl.store.per_voltage_errors_batch()[0]
        assert errors[1] > errors[-1]  # V2 >> V15 under retention

    def test_zero_when_noiseless_and_fresh(self, tiny_tlc):
        quiet = dataclasses.replace(tiny_tlc, read_noise_sigma=0.0)
        wl = Wordline(quiet, 1, 0, 3)
        est = wl.store.read_states_batch()[0]
        data = wl.data_mask
        assert (est[data] == wl.states[data]).mean() > 0.999


class TestSentinelReadout:
    def test_counts_bounded(self, aged_wl):
        r = aged_wl.sentinel_readout()
        assert 0 <= r.up_errors <= r.n_sentinels
        assert 0 <= r.down_errors <= r.n_sentinels
        assert r.difference == r.up_errors - r.down_errors

    def test_aged_shows_down_errors(self, aged_wl):
        # retention shifts down: more down errors than up errors
        r = aged_wl.sentinel_readout()
        assert r.difference <= 0

    def test_difference_rate(self, aged_wl):
        r = aged_wl.sentinel_readout()
        assert r.difference_rate == pytest.approx(r.difference / r.n_sentinels)

    def test_tuned_offset_balances(self, aged_wl):
        from repro.flash.optimal import optimal_offset

        opt = optimal_offset(aged_wl, aged_wl.spec.sentinel_voltage)
        at_default = abs(aged_wl.sentinel_readout(0.0).difference)
        at_optimal = abs(aged_wl.sentinel_readout(opt).difference)
        assert at_optimal <= at_default


class TestStateChangeCounts:
    @staticmethod
    def counts(wl, position_a, position_b):
        nca, ncs = wl.store.state_change_counts_batch(position_a, position_b)
        return nca[0], ncs[0]

    def test_zero_for_identical_positions(self, aged_wl):
        pos = aged_wl.spec.read_voltage(4)
        nca, ncs = self.counts(aged_wl, pos, pos)
        # read noise may flip a few cells near the threshold, but the
        # identical-position count must be far below a real move
        moved = self.counts(aged_wl, pos, pos - 30)[0]
        assert nca < moved

    def test_wider_window_more_changes(self, aged_wl):
        pos = aged_wl.spec.read_voltage(4)
        small = self.counts(aged_wl, pos, pos - 10)[0]
        large = self.counts(aged_wl, pos, pos - 40)[0]
        assert large > small

    def test_sentinel_count_scales(self, aged_wl):
        pos = aged_wl.spec.read_voltage(aged_wl.spec.sentinel_voltage)
        nca, ncs = self.counts(aged_wl, pos, pos - 40)
        # sentinels are 100% boundary-adjacent vs 2/8 of data cells
        data_adjacent = 2 * aged_wl.n_data_cells / aged_wl.spec.n_states
        if ncs > 5:
            ratio = (nca / data_adjacent) / (ncs / aged_wl.n_sentinels)
            assert 0.3 < ratio < 3.0


class TestErrorCellIndices:
    def test_indices_are_data_cells(self, aged_wl):
        idx = error_positions(aged_wl.store)[0]
        assert not aged_wl.sentinel_mask[idx].any()

    def test_aged_has_errors(self, aged_wl):
        assert len(error_positions(aged_wl.store)[0]) > 10


class TestProgramPages:
    def _payload(self, wl, seed=3):
        rng = derive_rng(seed)
        return {
            page: rng.integers(0, 2, wl.n_data_cells).astype(np.uint8)
            for page in wl.spec.gray.page_names
        }

    def test_roundtrip_stored_bits(self, fresh_wl):
        payload = self._payload(fresh_wl)
        fresh_wl.program_pages(payload)
        for page, bits in payload.items():
            np.testing.assert_array_equal(
                fresh_wl.stored_page_bits(page), bits
            )

    def test_fresh_read_recovers_data(self, fresh_wl):
        payload = self._payload(fresh_wl)
        fresh_wl.program_pages(payload)
        for page, bits in payload.items():
            result = fresh_wl.read_page(page)
            mismatches = int((result.bits != bits).sum())
            assert mismatches < fresh_wl.n_data_cells * 1e-3

    def test_sentinels_survive_programming(self, fresh_wl):
        before = fresh_wl.sentinel_states.copy()
        fresh_wl.program_pages(self._payload(fresh_wl))
        np.testing.assert_array_equal(fresh_wl.sentinel_states, before)

    def test_aged_data_recoverable_via_controller(self, tiny_tlc, aged_stress):
        """End-to-end data integrity: write -> age -> sentinel read."""
        from repro.core.characterization import characterize_chip
        from repro.core.controller import SentinelController
        from repro.ecc.capability import CapabilityEcc
        from repro.flash.chip import FlashChip

        wl = Wordline(tiny_tlc, chip_seed=5, block=0, index=1)
        payload = self._payload(wl, seed=8)
        wl.program_pages(payload)
        wl.set_stress(aged_stress)
        model = characterize_chip(
            FlashChip(tiny_tlc, seed=42),
            blocks=(0,),
            stresses=(aged_stress,),
            wordlines=range(0, 8),
        ).model
        controller = SentinelController(CapabilityEcc.for_spec(tiny_tlc), model)
        outcome = controller.read(wl, "MSB")
        assert outcome.success
        # the ECC-decodable read differs from the stored bits by less than
        # the correction capability
        result = wl.read_page("MSB", outcome.final_offsets)
        errors = int((result.bits != payload["MSB"]).sum())
        assert errors <= CapabilityEcc.for_spec(tiny_tlc).effective_rber * wl.n_data_cells * 2

    def test_requires_all_pages(self, fresh_wl):
        with pytest.raises(ValueError):
            fresh_wl.program_pages({"LSB": np.zeros(fresh_wl.n_data_cells)})

    def test_rejects_wrong_length(self, fresh_wl):
        payload = self._payload(fresh_wl)
        payload["MSB"] = payload["MSB"][:-1]
        with pytest.raises(ValueError):
            fresh_wl.program_pages(payload)
