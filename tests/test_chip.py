"""Chip-level API: stress bookkeeping, caching, iteration."""

import numpy as np
import pytest

from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState


class TestWordlineAccess:
    def test_same_wordline_cached(self, tlc_chip):
        a = tlc_chip.wordline(0, 1)
        b = tlc_chip.wordline(0, 1)
        assert a is b

    def test_cache_eviction(self, tiny_tlc):
        chip = FlashChip(tiny_tlc, seed=7, cache_wordlines=2)
        first = chip.wordline(0, 0)
        chip.wordline(0, 1)
        chip.wordline(0, 2)  # evicts wordline 0
        again = chip.wordline(0, 0)
        assert first is not again
        np.testing.assert_array_equal(first.states, again.states)

    def test_map_wordlines_ordered(self, tlc_chip):
        indices = [4, 0, 2]
        seen = tlc_chip.map_wordlines(
            lambda cols: [wl.index for wl in cols.iter_views()], indices
        )
        assert seen == indices

    def test_map_default_covers_block(self, tlc_chip):
        seen = tlc_chip.map_wordlines(lambda cols: list(cols.indices))
        assert seen == list(range(tlc_chip.spec.wordlines_per_block))

    def test_same_seed_same_chip(self, tiny_tlc):
        a = FlashChip(tiny_tlc, seed=5).wordline(0, 3)
        b = FlashChip(tiny_tlc, seed=5).wordline(0, 3)
        np.testing.assert_array_equal(a.vth, b.vth)

    def test_different_seed_different_chip(self, tiny_tlc):
        a = FlashChip(tiny_tlc, seed=5).wordline(0, 3)
        b = FlashChip(tiny_tlc, seed=6).wordline(0, 3)
        assert not np.array_equal(a.vth, b.vth)


class TestStress:
    def test_default_stress_fresh(self, tlc_chip):
        assert tlc_chip.block_stress(0) == StressState()

    def test_set_stress_applies_to_new_wordlines(self, tlc_chip, aged_stress):
        tlc_chip.set_block_stress(0, aged_stress)
        assert tlc_chip.wordline(0, 1).stress == aged_stress

    def test_set_stress_updates_cached_wordlines(self, tlc_chip, aged_stress):
        wl = tlc_chip.wordline(0, 1)
        before = wl.vth.copy()
        tlc_chip.set_block_stress(0, aged_stress)
        assert wl.stress == aged_stress
        assert not np.array_equal(wl.vth, before)

    def test_stress_is_per_block(self, tlc_chip, aged_stress):
        tlc_chip.set_block_stress(1, aged_stress)
        assert tlc_chip.block_stress(0) == StressState()

    def test_cached_wordline_refreshed_on_fetch(self, tlc_chip, aged_stress):
        tlc_chip.wordline(0, 1)
        tlc_chip._stress[0] = aged_stress  # bypass set_block_stress
        wl = tlc_chip.wordline(0, 1)
        assert wl.stress == aged_stress


class TestErase:
    def test_erase_counts(self, tlc_chip):
        assert tlc_chip.erase_count(0) == 0
        tlc_chip.erase_block(0)
        tlc_chip.erase_block(0)
        assert tlc_chip.erase_count(0) == 2

    def test_erase_resets_retention(self, tlc_chip, aged_stress):
        tlc_chip.set_block_stress(0, aged_stress)
        tlc_chip.erase_block(0)
        stress = tlc_chip.block_stress(0)
        assert stress.retention_hours == 0.0
        assert stress.pe_cycles >= aged_stress.pe_cycles


class TestSentinelBudget:
    def test_oob_flag(self, tiny_tlc):
        ok = FlashChip(tiny_tlc, seed=1, sentinel_ratio=0.002)
        assert ok.sentinels_fit_oob
        overflow = FlashChip(tiny_tlc, seed=1, sentinel_ratio=0.05)
        assert not overflow.sentinels_fit_oob

    def test_read_page_convenience(self, aged_tlc_chip):
        result = aged_tlc_chip.read_page(0, 1, "MSB")
        assert result.n_errors > 0
