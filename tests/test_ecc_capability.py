"""Capability-threshold ECC model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.ecc.capability import MODE_GAIN, CapabilityEcc
from repro.flash.spec import QLC_SPEC, TLC_SPEC


class TestConfiguration:
    def test_defaults_valid(self):
        ecc = CapabilityEcc()
        assert ecc.effective_rber == ecc.capability_rber

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CapabilityEcc(mode="soft9")

    def test_bad_parity_donated_rejected(self):
        with pytest.raises(ValueError):
            CapabilityEcc(parity_donated=1.0)
        with pytest.raises(ValueError):
            CapabilityEcc(parity_donated=-0.1)

    def test_bad_frame_bits_rejected(self):
        with pytest.raises(ValueError):
            CapabilityEcc(frame_bits=0)

    def test_for_spec_frames_fit_page(self):
        for spec in (TLC_SPEC, QLC_SPEC):
            ecc = CapabilityEcc.for_spec(spec)
            assert ecc.frame_bits <= spec.cells_per_wordline

    def test_for_spec_overrides(self):
        ecc = CapabilityEcc.for_spec(TLC_SPEC, capability_rber=1e-3)
        assert ecc.capability_rber == 1e-3


class TestModesAndPenalty:
    def test_soft_modes_raise_capability(self):
        hard = CapabilityEcc(mode="hard")
        soft2 = hard.with_mode("soft2")
        soft3 = hard.with_mode("soft3")
        assert hard.effective_rber < soft2.effective_rber < soft3.effective_rber

    def test_mode_gains_match_table(self):
        base = CapabilityEcc(capability_rber=1e-3)
        for mode, gain in MODE_GAIN.items():
            assert base.with_mode(mode).effective_rber == pytest.approx(1e-3 * gain)

    def test_parity_donation_lowers_capability(self):
        full = CapabilityEcc()
        donated = replace(full, parity_donated=0.02)
        assert donated.effective_rber < full.effective_rber

    def test_extreme_donation_clamps_at_zero(self):
        assert CapabilityEcc(parity_donated=0.9).effective_rber == 0.0


class TestDecoding:
    def test_clean_page_decodes(self):
        ecc = CapabilityEcc(capability_rber=1e-3, frame_bits=1024)
        assert ecc.decode_ok(np.zeros(4096, dtype=bool))

    def test_uniform_errors_at_threshold(self):
        ecc = CapabilityEcc(capability_rber=0.01, frame_bits=1000)
        mask = np.zeros(4000, dtype=bool)
        mask[::100] = True  # exactly 10 per frame = capability
        assert ecc.decode_ok(mask)
        mask[1] = True  # one frame now exceeds
        assert not ecc.decode_ok(mask)

    def test_concentrated_errors_fail_page(self):
        """A spatially concentrated burst fails even at low average RBER."""
        ecc = CapabilityEcc(capability_rber=0.01, frame_bits=1000)
        mask = np.zeros(8000, dtype=bool)
        mask[:60] = True  # burst in frame 0: 60 > 10 allowed
        assert mask.mean() < 0.01
        assert not ecc.decode_ok(mask)

    def test_frame_error_counts_split(self):
        ecc = CapabilityEcc(frame_bits=100)
        mask = np.zeros(250, dtype=bool)
        mask[0] = mask[120] = mask[240] = True
        counts = ecc.frame_error_counts(mask)
        assert counts.sum() == 3 and len(counts) == 3
