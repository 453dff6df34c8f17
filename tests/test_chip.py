"""Chip-level API: stress bookkeeping, wordline access, block sweeps."""

import numpy as np

from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.wordline import Wordline


class TestWordlineAccess:
    def test_fetch_returns_seed_cells_at_current_stress(
        self, tiny_tlc, aged_stress
    ):
        """A fetched handle's programming never leaks into a later fetch,
        however many other wordlines were fetched in between."""
        chip = FlashChip(tiny_tlc, seed=7)
        seed = Wordline(tiny_tlc, 7, 0, 0, stress=aged_stress)
        programmed = chip.wordline(0, 0)
        programmed.program_pages({
            page: np.zeros(programmed.n_data_cells, dtype=np.uint8)
            for page in tiny_tlc.gray.page_names
        })
        chip.set_block_stress(0, aged_stress)
        others = [(block, index) for block in (1, 2) for index in range(8)]
        for between in (0, 16):
            for block, index in others[:between]:
                chip.wordline(block, index)
            again = chip.wordline(0, 0)
            assert again is not programmed
            assert again.stress == aged_stress
            np.testing.assert_array_equal(again.states, seed.states)
            np.testing.assert_array_equal(again.vth, seed.vth)

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

    def test_stress_is_per_block(self, tlc_chip, aged_stress):
        tlc_chip.set_block_stress(1, aged_stress)
        assert tlc_chip.block_stress(0) == StressState()

    def test_cached_wordline_refreshed_on_fetch(self, tlc_chip, aged_stress):
        tlc_chip.wordline(0, 1)
        tlc_chip._stress[0] = aged_stress  # bypass set_block_stress
        wl = tlc_chip.wordline(0, 1)
        assert wl.stress == aged_stress
