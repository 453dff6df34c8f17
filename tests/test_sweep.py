"""Read sweeps and valley search (measured optima)."""

import numpy as np
import pytest

from repro.flash.optimal import optimal_offset
from repro.flash.sweep import (
    measured_optimal_offset,
    measured_optimal_offsets,
    read_sweep,
)
from repro.flash.wordline import Wordline


@pytest.fixture()
def aged_wl(tiny_tlc, aged_stress):
    return Wordline(tiny_tlc, chip_seed=4, block=0, index=2, stress=aged_stress)


class TestReadSweep:
    def test_histogram_accounts_cells_in_window(self, aged_wl):
        sweep = read_sweep(aged_wl, 4)
        window_cells = sweep.cumulative[-1] - sweep.cumulative[0]
        assert sweep.histogram.sum() == pytest.approx(window_cells, abs=window_cells * 0.02 + 5)

    def test_cumulative_nondecreasing_mostly(self, aged_wl):
        sweep = read_sweep(aged_wl, 4)
        drops = np.diff(sweep.cumulative) < 0
        assert drops.mean() < 0.2  # only sensing noise

    def test_reads_used_counts_positions(self, aged_wl):
        sweep = read_sweep(aged_wl, 4, span=(-40, 40), step=10)
        assert sweep.reads_used == len(np.arange(-40, 41, 10))

    def test_histogram_has_valley(self, aged_wl):
        """Density dips between the two states around the boundary."""
        sweep = read_sweep(aged_wl, 4)
        hist = sweep.histogram.astype(float)
        mid_min = hist[3:-3].min()
        assert mid_min < hist[0] or mid_min < hist[-1]


class TestValley:
    def test_valley_matches_analytic_optimum(self, aged_wl):
        for v in (2, 4, 6):
            measured, _ = measured_optimal_offset(aged_wl, v, step=4)
            analytic = optimal_offset(aged_wl, v)
            assert abs(measured - analytic) < 20, f"V{v}"

    def test_valley_reduces_errors(self, aged_wl):
        from repro.flash.optimal import errors_at_offsets

        measured, _ = measured_optimal_offset(aged_wl, 4)
        at_valley = errors_at_offsets(aged_wl, 4, [measured])[0]
        at_default = errors_at_offsets(aged_wl, 4, [0])[0]
        assert at_valley < at_default

    def test_full_wordline_sweep_cost(self, aged_wl):
        """Finding one wordline's optima costs ~a hundred reads — the
        overhead the paper attributes to tracking approaches."""
        dense, reads = measured_optimal_offsets(aged_wl, step=8)
        assert len(dense) == aged_wl.spec.n_voltages
        assert reads > 50
        assert (dense < 10).all()  # aged: optima at or below default
