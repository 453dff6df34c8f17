"""Real-code page ECC: tiling, and end-to-end controller runs on the LDPC."""

import numpy as np
import pytest

from repro.ecc.ldpc import LdpcCode
from repro.ecc.page_ecc import RealPageEcc
from repro.util.rng import derive_rng


@pytest.fixture(scope="module")
def code512():
    return LdpcCode.random_regular(512, rate=0.85, seed=4)


@pytest.fixture(scope="module")
def code1023():
    # rate 0.84, the (1023, 863) shape of a classic t=8 flash frame
    return LdpcCode.random_regular(1023, rate=0.84, seed=9)


def _hard_capability(code, min_success, trials):
    """The largest error count ``e`` such that the hard decoder corrects at
    least ``min_success`` of ``trials`` random ``e``-error frames, for every
    count up to ``e``."""
    rng = derive_rng(12)
    magnitude = np.ones(code.n)
    e = 0
    while True:
        ok = 0
        for _ in range(trials):
            frame = np.zeros(code.n, dtype=bool)
            frame[rng.choice(code.n, e + 1, replace=False)] = True
            ok += code.decode_error_pattern(frame, magnitude).success
        if ok < min_success:
            return e
        e += 1


class TestRealPageEcc:
    """Page tiling into 512-bit frames.  The decoder is deterministic, so a
    given mask always decodes, or always fails: a single error per frame
    decodes, and a 16-error burst in one frame fails it."""

    def test_clean_page_decodes(self, code512):
        assert RealPageEcc(code512).decode_ok(np.zeros(2048, dtype=bool))

    def test_burst_in_one_frame_fails_page(self, code512):
        ecc = RealPageEcc(code512)
        mask = np.zeros(2048, dtype=bool)
        mask[:16] = True  # frame 0 only; frames 1-3 are clean
        assert not ecc.decode_ok(mask)

    def test_spread_errors_decode(self, code512):
        ecc = RealPageEcc(code512)
        mask = np.zeros(2048, dtype=bool)
        mask[::600] = True  # ~1 error per frame
        assert ecc.decode_ok(mask)

    def test_tail_shorter_than_a_frame_is_decoded(self, code512):
        """Errors in the partial last frame count like any other frame's."""
        ecc = RealPageEcc(code512)
        mask = np.zeros(2 * 512 + 100, dtype=bool)
        mask[1024:1028] = True  # 4 errors in the 100-bit tail
        assert ecc.decode_ok(mask)
        mask[1024:1040] = True  # the same 16-error burst that fails frame 0
        assert not ecc.decode_ok(mask)

    def test_ldpc_backend(self, code512):
        ecc = RealPageEcc(code512)
        mask = np.zeros(2048, dtype=bool)
        mask[[3, 700, 1400]] = True
        assert ecc.decode_ok(mask)

    def test_page_too_small(self, code512):
        with pytest.raises(ValueError):
            RealPageEcc(code512).decode_ok(np.zeros(100, dtype=bool))


class TestControllerWithRealEcc:
    """The whole sentinel pipeline against the real LDPC decoder."""

    def test_sentinel_controller_end_to_end(
        self, tiny_tlc, aged_stress, code1023
    ):
        from repro.core.characterization import characterize_chip
        from repro.core.controller import SentinelController
        from repro.flash.chip import FlashChip

        model = characterize_chip(
            FlashChip(tiny_tlc, seed=42),
            blocks=(0,),
            stresses=(aged_stress,),
            wordlines=range(0, 8),
        ).model
        chip = FlashChip(tiny_tlc, seed=1)
        chip.set_block_stress(0, aged_stress)
        # tiny wordline ~8176 data cells -> 7 frames of 1023 bits and a tail
        controller = SentinelController(RealPageEcc(code1023), model)
        outcomes = [
            controller.read(chip.wordline(0, w), "MSB") for w in range(5)
        ]
        assert sum(o.success for o in outcomes) >= 4
        assert any(o.retries >= 1 for o in outcomes)

    def test_real_and_threshold_ecc_agree_on_aged_block(
        self, tiny_tlc, aged_stress, code1023
    ):
        """The threshold model's verdicts track the real LDPC's when its
        capability is the LDPC's own: the largest frame error count at
        which the hard decoder corrects at least 95 % of random patterns,
        measured on synthetic frames, not on the pages compared."""
        from repro.ecc.capability import CapabilityEcc
        from repro.flash.chip import FlashChip

        t = _hard_capability(code1023, min_success=95, trials=100)
        chip = FlashChip(tiny_tlc, seed=1)
        chip.set_block_stress(0, aged_stress)
        real = RealPageEcc(code1023)
        model = CapabilityEcc(capability_rber=t / code1023.n, frame_bits=code1023.n)
        assert model.max_errors_per_frame() == t
        agree = total = 0
        for w in range(4):
            wl = chip.wordline(0, w)
            for offsets in (None, {4: -40}):
                result = wl.read_page("MSB", offsets)
                agree += real.decode_ok(result) == model.decode_ok(result)
                total += 1
        assert agree >= total - 1  # boundary frames may disagree rarely

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: at the shipped 5e-3 capability the "
        "threshold model fails most aged-block MSB pages that the real hard "
        "LDPC decodes",
    )
    def test_ldpc_and_shipped_model_agree_on_aged_block(
        self, tiny_tlc, aged_stress, code1023
    ):
        """The shipped capability model's page verdicts track the real
        LDPC's at the LDPC's frame length, on default and shifted reads."""
        from repro.ecc.capability import CapabilityEcc
        from repro.flash.chip import FlashChip

        chip = FlashChip(tiny_tlc, seed=1)
        chip.set_block_stress(0, aged_stress)
        real = RealPageEcc(code1023)
        model = CapabilityEcc(
            capability_rber=CapabilityEcc.for_spec(tiny_tlc).capability_rber,
            frame_bits=code1023.n,
        )
        agree = total = 0
        for w in range(4):
            wl = chip.wordline(0, w)
            for offsets in (None, {4: -40}):
                result = wl.read_page("MSB", offsets)
                agree += real.decode_ok(result) == model.decode_ok(result)
                total += 1
        assert agree >= total - 1  # boundary frames may disagree rarely
