"""Capability-threshold ECC model."""

import numpy as np
import pytest

from repro.ecc.capability import CapabilityEcc
from repro.flash.spec import QLC_SPEC, TLC_SPEC


class TestConfiguration:
    def test_defaults_valid(self):
        ecc = CapabilityEcc()
        assert ecc.max_errors_per_frame() == int(
            ecc.capability_rber * ecc.frame_bits
        )

    def test_bad_frame_bits_rejected(self):
        with pytest.raises(ValueError):
            CapabilityEcc(frame_bits=0)

    def test_for_spec_frames_fit_page(self):
        for spec in (TLC_SPEC, QLC_SPEC):
            ecc = CapabilityEcc.for_spec(spec)
            assert ecc.frame_bits <= spec.cells_per_wordline


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
