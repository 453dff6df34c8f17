"""Vth-distribution estimation from read sweeps."""

import numpy as np
import pytest

from repro.analysis.distributions import (
    estimate_states,
    find_state_peaks,
    full_axis_histogram,
    true_state_statistics,
)
from repro.flash.mechanisms import StressState
from repro.flash.wordline import Wordline


@pytest.fixture(scope="module")
def fresh_wl(tiny_tlc):
    return Wordline(tiny_tlc, chip_seed=6, block=0, index=1)


@pytest.fixture(scope="module")
def aged_wl(tiny_tlc):
    return Wordline(
        tiny_tlc, chip_seed=6, block=0, index=1,
        stress=StressState(pe_cycles=3000, retention_hours=8760),
    )


class TestFullAxisHistogram:
    def test_accounts_for_all_cells(self, fresh_wl):
        hist = full_axis_histogram(fresh_wl, step=16)
        assert hist.counts.sum() == pytest.approx(
            fresh_wl.n_cells, rel=0.02
        )

    def test_reads_counted(self, fresh_wl):
        hist = full_axis_histogram(fresh_wl, step=64)
        assert hist.reads_used == len(hist.positions)

    def test_centers_between_positions(self, fresh_wl):
        hist = full_axis_histogram(fresh_wl, step=32)
        assert (hist.centers > hist.positions[:-1]).all()
        assert (hist.centers < hist.positions[1:]).all()


class TestPeaks:
    def test_finds_all_states_fresh(self, fresh_wl):
        hist = full_axis_histogram(fresh_wl, step=8)
        peaks = find_state_peaks(hist, fresh_wl.spec.n_states)
        assert len(peaks) == 8
        assert (np.diff(peaks) > 0).all()

    def test_peaks_near_state_centers_fresh(self, fresh_wl):
        hist = full_axis_histogram(fresh_wl, step=8)
        peaks = find_state_peaks(hist, 8)
        truth = true_state_statistics(fresh_wl)
        for peak, state in zip(peaks, truth):
            assert abs(peak - state.mean) < 40

    def test_too_many_states_requested(self, fresh_wl):
        hist = full_axis_histogram(fresh_wl, step=8)
        with pytest.raises(ValueError):
            find_state_peaks(hist, 64)


class TestEstimates:
    def test_means_match_truth_fresh(self, fresh_wl):
        estimates, _ = estimate_states(fresh_wl, step=8)
        truth = true_state_statistics(fresh_wl)
        for est, ref in zip(estimates, truth):
            assert abs(est.mean - ref.mean) < 25, f"state {est.index}"

    def test_sigmas_in_range_fresh(self, fresh_wl):
        estimates, _ = estimate_states(fresh_wl, step=8)
        truth = true_state_statistics(fresh_wl)
        for est, ref in zip(estimates[1:], truth[1:]):  # skip wide erase
            assert est.sigma == pytest.approx(ref.sigma, rel=0.8)

    def test_detects_retention_shift(self, fresh_wl, aged_wl):
        fresh_est, _ = estimate_states(fresh_wl, step=8)
        aged_est, _ = estimate_states(aged_wl, step=8)
        # the top state's measured mean must visibly drop with retention
        assert aged_est[-1].mean < fresh_est[-1].mean - 20

    def test_cell_counts_roughly_uniform(self, fresh_wl):
        estimates, _ = estimate_states(fresh_wl, step=8)
        expected = fresh_wl.n_cells / fresh_wl.spec.n_states
        for est in estimates:
            assert est.cells == pytest.approx(expected, rel=0.4)
