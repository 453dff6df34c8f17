"""Soft sensing: LLR generation from page reads."""

import numpy as np
import pytest

from repro.ecc.soft import SoftSensing, extract_frames, page_llrs
from repro.flash.wordline import Wordline
from repro.util.rng import derive_rng


@pytest.fixture()
def aged_wl(tiny_qlc, aged_stress):
    return Wordline(tiny_qlc, chip_seed=3, block=0, index=2, stress=aged_stress)


class TestSoftSensing:
    def test_modes(self):
        assert SoftSensing(mode="hard").n_bins == 1
        assert SoftSensing(mode="soft2").n_bins == 2
        assert SoftSensing(mode="soft3").n_bins == 4

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SoftSensing(mode="soft4")

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            SoftSensing(mode="hard", delta=0)

    def test_for_pitch_scales_delta(self):
        a = SoftSensing.for_pitch(256)
        b = SoftSensing.for_pitch(128)
        assert a.delta == pytest.approx(2 * b.delta)

    def test_magnitude_monotone_in_distance(self):
        s = SoftSensing(mode="soft3", delta=5.0)
        d = np.array([0.0, 4.0, 6.0, 11.0, 16.0, 100.0])
        mags = s.magnitude_for_distance(d)
        assert (np.diff(mags) >= 0).all()

    def test_hard_magnitude_constant(self):
        s = SoftSensing(mode="hard", delta=5.0)
        mags = s.magnitude_for_distance(np.array([0.0, 3.0, 50.0]))
        assert len(set(mags.tolist())) == 1


class TestPageLlrs:
    def test_shapes(self, aged_wl):
        err, mag = page_llrs(aged_wl, "MSB")
        assert len(err) == aged_wl.n_data_cells
        assert len(mag) == aged_wl.n_data_cells

    def test_error_rate_matches_read(self, aged_wl):
        err, _ = page_llrs(aged_wl, "MSB", rng=derive_rng(1))
        rber = err.mean()
        reference = aged_wl.read_page("MSB").rber
        assert rber == pytest.approx(reference, rel=0.6, abs=2e-3)

    def test_errors_have_lower_confidence(self, aged_wl):
        """Misread cells sit near thresholds, so their |LLR| is smaller."""
        sensing = SoftSensing.for_pitch(aged_wl.spec.state_pitch, "soft3")
        err, mag = page_llrs(aged_wl, "MSB", sensing=sensing)
        if err.sum() > 10:
            assert mag[err].mean() < mag[~err].mean()

    def test_hard_mode_uniform_magnitudes(self, aged_wl):
        _, mag = page_llrs(aged_wl, "MSB")
        assert len(np.unique(mag)) == 1


class TestExtractFrames:
    def test_tiling(self):
        err = np.zeros(1000, dtype=bool)
        mag = np.ones(1000)
        fe, fm = extract_frames(err, mag, frame_len=300)
        assert fe.shape == (3, 300) and fm.shape == (3, 300)

    def test_max_frames(self):
        err = np.zeros(1000, dtype=bool)
        fe, _ = extract_frames(err, np.ones(1000), frame_len=100, max_frames=2)
        assert fe.shape == (2, 100)

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            extract_frames(np.zeros(10, dtype=bool), np.ones(10), frame_len=100)
