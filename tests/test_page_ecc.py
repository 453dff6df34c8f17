"""Real-code page ECC: shortening, tiling, and end-to-end controller runs."""

import numpy as np
import pytest

from repro.ecc.bch import BchCode
from repro.ecc.ldpc import LdpcCode
from repro.ecc.page_ecc import RealPageEcc, ShortenedBch, shortened_bch
from repro.util.rng import derive_rng


class TestShortenedBch:
    @pytest.fixture(scope="class")
    def code(self):
        return shortened_bch(frame_bits=512, t=6, m=10)

    def test_frame_size(self, code):
        assert code.frame_bits == 512
        assert code.base.n == 1023
        assert code.shortened == 1023 - 512

    def test_corrects_up_to_t(self, code):
        rng = derive_rng(1)
        for n_err in (0, 1, code.t):
            mask = np.zeros(code.frame_bits, dtype=bool)
            if n_err:
                mask[rng.choice(code.frame_bits, n_err, replace=False)] = True
            assert code.decode_error_mask(mask)

    def test_rejects_beyond_t(self, code):
        rng = derive_rng(2)
        failures = 0
        for _ in range(5):
            mask = np.zeros(code.frame_bits, dtype=bool)
            mask[rng.choice(code.frame_bits, code.t + 2, replace=False)] = True
            failures += not code.decode_error_mask(mask)
        assert failures >= 4

    def test_wrong_frame_size_rejected(self, code):
        with pytest.raises(ValueError):
            code.decode_error_mask(np.zeros(100, dtype=bool))

    def test_cannot_shorten_past_data(self):
        with pytest.raises(ValueError):
            shortened_bch(frame_bits=10, t=50, m=10)

    def test_oversized_frame_rejected(self):
        with pytest.raises(ValueError):
            shortened_bch(frame_bits=2048, t=4, m=10)

    def test_shortening_preserves_t(self):
        full = BchCode(m=10, t=6)
        short = ShortenedBch(base=full, shortened=400)
        rng = derive_rng(3)
        mask = np.zeros(short.frame_bits, dtype=bool)
        mask[rng.choice(short.frame_bits, 6, replace=False)] = True
        assert short.decode_error_mask(mask)


class TestRealPageEcc:
    def test_clean_page_decodes(self):
        ecc = RealPageEcc(shortened_bch(frame_bits=512, t=4, m=10))
        assert ecc.decode_ok(np.zeros(2048, dtype=bool))

    def test_burst_in_one_frame_fails_page(self):
        ecc = RealPageEcc(shortened_bch(frame_bits=512, t=4, m=10))
        mask = np.zeros(2048, dtype=bool)
        mask[:8] = True  # 8 > t=4 in frame 0
        assert not ecc.decode_ok(mask)

    def test_spread_errors_decode(self):
        ecc = RealPageEcc(shortened_bch(frame_bits=512, t=4, m=10))
        mask = np.zeros(2048, dtype=bool)
        mask[::600] = True  # ~1 error per frame
        assert ecc.decode_ok(mask)

    def test_tail_shorter_than_a_frame_is_decoded(self):
        """Errors in the partial last frame count like any other frame's."""
        ecc = RealPageEcc(shortened_bch(frame_bits=512, t=4, m=10))
        mask = np.zeros(2 * 512 + 100, dtype=bool)
        mask[1024:1028] = True  # t=4 errors in the 100-bit tail
        assert ecc.decode_ok(mask)
        mask[1028] = True  # 5 > t
        assert not ecc.decode_ok(mask)

    def test_ldpc_backend(self):
        code = LdpcCode.random_regular(512, rate=0.85, seed=4)
        ecc = RealPageEcc(code)
        mask = np.zeros(2048, dtype=bool)
        mask[[3, 700, 1400]] = True
        assert ecc.decode_ok(mask)

    def test_soft_mode_helps_ldpc(self):
        rng = derive_rng(5)
        code = LdpcCode.random_regular(512, rate=0.85, seed=4)
        hard = RealPageEcc(code, mode="hard")
        soft = RealPageEcc(code, mode="soft3")
        hard_ok = soft_ok = 0
        for _ in range(6):
            mask = np.zeros(512, dtype=bool)
            mask[rng.choice(512, 16, replace=False)] = True
            hard_ok += hard.decode_ok(mask)
            soft_ok += soft.decode_ok(mask)
        assert soft_ok >= hard_ok

    def test_page_too_small(self):
        ecc = RealPageEcc(shortened_bch(frame_bits=512, t=4, m=10))
        with pytest.raises(ValueError):
            ecc.decode_ok(np.zeros(100, dtype=bool))


class TestControllerWithRealEcc:
    """The whole sentinel pipeline against a genuine BCH decoder."""

    def test_sentinel_controller_end_to_end(self, tiny_tlc, aged_stress):
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
        # t sized so default reads fail and near-optimal reads pass:
        # tiny wordline ~8176 data cells -> 4 frames of 1023 bits
        ecc = RealPageEcc(ShortenedBch(base=BchCode(m=10, t=8), shortened=0))
        controller = SentinelController(ecc, model)
        outcomes = [
            controller.read(chip.wordline(0, w), "MSB") for w in range(5)
        ]
        assert sum(o.success for o in outcomes) >= 4
        assert any(o.retries >= 1 for o in outcomes)

    def test_real_and_threshold_ecc_agree_on_aged_block(
        self, tiny_tlc, aged_stress
    ):
        """The capability model's verdicts track the real BCH's."""
        from repro.ecc.capability import CapabilityEcc
        from repro.flash.chip import FlashChip

        chip = FlashChip(tiny_tlc, seed=1)
        chip.set_block_stress(0, aged_stress)
        bch = BchCode(m=10, t=8)
        real = RealPageEcc(ShortenedBch(base=bch, shortened=0))
        model = CapabilityEcc(capability_rber=bch.t / bch.n, frame_bits=bch.n)
        agree = total = 0
        for w in range(4):
            wl = chip.wordline(0, w)
            for offsets in (None, {4: -40}):
                result = wl.read_page("MSB", offsets)
                agree += real.decode_ok(result) == model.decode_ok(result)
                total += 1
        assert agree >= total - 1  # boundary frames may disagree rarely
