"""Ground-truth optimal read-voltage search."""

import numpy as np
import pytest

from repro.flash.optimal import (
    boundary_error_counts_batch,
    default_search_range,
    errors_at_offsets,
    optimal_offset,
    optimal_offsets,
)
from repro.flash.wordline import Wordline


@pytest.fixture()
def aged_wl(tiny_tlc, aged_stress):
    return Wordline(tiny_tlc, chip_seed=2, block=0, index=5, stress=aged_stress)


class TestSearchRange:
    def test_scales_with_pitch(self):
        lo_t, hi_t = default_search_range(256)
        lo_q, hi_q = default_search_range(128)
        assert abs(lo_t - 2 * lo_q) <= 1  # integer truncation only
        assert lo_t < 0 < hi_t

    def test_reaches_deep(self):
        lo, _ = default_search_range(128)
        assert lo <= -100  # aged low boundaries need most of a pitch


class TestErrorsAtOffsets:
    def test_counts_decrease_toward_optimum(self, aged_wl):
        offsets = np.arange(-80, 20)
        errors = errors_at_offsets(aged_wl, 4, offsets)
        at_default = errors[offsets.tolist().index(0)]
        assert errors.min() < at_default

    def test_convex_ish_shape(self, aged_wl):
        offsets = np.arange(-100, 40)
        errors = errors_at_offsets(aged_wl, 4, offsets)
        # far ends are much worse than the minimum
        assert errors[0] > 3 * errors.min() + 10
        assert errors[-1] > 3 * errors.min() + 10

    def test_monotone_components(self, aged_wl):
        # up errors fall with threshold position; down errors grow
        up, down = boundary_error_counts_batch(
            aged_wl.store, [aged_wl.row], 4, np.arange(-50, 50)
        )
        up, down = up[0], down[0]
        assert (np.diff(up) <= 0).all()
        assert (np.diff(down) >= 0).all()


class TestOptimalOffset:
    def test_negative_when_aged(self, aged_wl):
        # retention shifts distributions down; the optimum follows
        for v in (2, 3, 4, 5):
            assert optimal_offset(aged_wl, v) < 0

    def test_near_zero_when_fresh(self, tiny_tlc):
        wl = Wordline(tiny_tlc, chip_seed=2, block=0, index=5)
        for v in (3, 4, 5):
            assert abs(optimal_offset(wl, v)) < 25

    def test_beats_default(self, aged_wl):
        for v in range(1, 8):
            opt = optimal_offset(aged_wl, v)
            best = errors_at_offsets(aged_wl, v, [opt])[0]
            default = errors_at_offsets(aged_wl, v, [0])[0]
            assert best <= default

    def test_near_global_minimum(self, aged_wl):
        """Window-center estimate stays within tolerance of the argmin."""
        lo, hi = default_search_range(aged_wl.spec.state_pitch)
        grid = np.arange(lo, hi)
        for v in (2, 4, 6):
            errors = errors_at_offsets(aged_wl, v, grid)
            best = errors.min()
            chosen = errors_at_offsets(aged_wl, v, [optimal_offset(aged_wl, v)])[0]
            assert chosen <= best + max(2, 0.03 * best) + 1

    def test_deterministic(self, aged_wl):
        assert optimal_offset(aged_wl, 4) == optimal_offset(aged_wl, 4)


class TestOptimalOffsets:
    def test_dense_shape(self, aged_wl):
        dense = optimal_offsets(aged_wl)
        assert dense.shape == (7,)

    def test_subset_leaves_others_zero(self, aged_wl):
        dense = optimal_offsets(aged_wl, voltages=[4])
        assert dense[3] != 0
        assert dense[0] == 0 and dense[6] == 0

    def test_lower_voltages_need_more(self, tiny_qlc, aged_stress):
        wl = Wordline(tiny_qlc, chip_seed=2, block=0, index=5, stress=aged_stress)
        dense = optimal_offsets(wl)
        # the Figure 6 pattern
        assert abs(dense[1]) > abs(dense[-1])

