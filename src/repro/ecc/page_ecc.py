"""Real-code page ECC: run the controllers against actual decoders.

:class:`repro.ecc.capability.CapabilityEcc` abstracts a decoder as a
threshold so block-scale sweeps stay fast.  This module provides the
non-abstracted alternative: a page ECC whose ``decode_ok`` tiles the page
into frames and runs a *real* decoder (BCH or LDPC) on each one, via the
symmetric-channel shortcut (all-zero codeword, the page's error mask as the
received pattern).  Any read policy accepts it in place of the threshold
model, so the whole sentinel pipeline can be validated against genuine
coding behaviour — see ``tests/test_page_ecc.py``.

Shortening: flash frames rarely match a natural code length, so
:func:`shortened_bch` builds a BCH whose data portion is cut down (leading
data bits pinned to zero), the standard construction in flash controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.ecc.bch import BchCode
from repro.ecc.ldpc import LdpcCode
from repro.flash.wordline import ReadResult
from repro.obs import OBS


@dataclass(frozen=True)
class ShortenedBch:
    """A BCH code with the leading data bits pinned to zero.

    The effective frame carries ``frame_bits = n - shortened`` bits with the
    same correction power ``t`` (shortening never weakens a BCH code).
    """

    base: BchCode
    shortened: int

    def __post_init__(self) -> None:
        if not 0 <= self.shortened < self.base.k:
            raise ValueError("can only shorten within the data portion")

    @property
    def frame_bits(self) -> int:
        return self.base.n - self.shortened

    @property
    def t(self) -> int:
        return self.base.t

    def decode_error_mask(self, mask: np.ndarray) -> bool:
        """Whether a frame with the given error positions decodes."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.frame_bits,):
            raise ValueError(
                f"expected {self.frame_bits} bits, got {mask.shape}"
            )
        received = np.zeros(self.base.n, dtype=np.int64)
        # shortened positions sit at the head of the data portion and are
        # known-zero; the frame occupies the rest of the codeword
        received[self.base.n - self.frame_bits :] = mask
        result = self.base.decode(received)
        return bool(result.success and not result.bits.any())


def shortened_bch(frame_bits: int, t: int, m: int = 13) -> ShortenedBch:
    """A BCH correcting ``t`` errors over exactly ``frame_bits`` bits."""
    base = BchCode(m=m, t=t)
    if frame_bits > base.n:
        raise ValueError(
            f"frame of {frame_bits} bits exceeds the m={m} code length {base.n}"
        )
    return ShortenedBch(base=base, shortened=base.n - frame_bits)


class RealPageEcc:
    """Page ECC backed by a real decoder; drop-in for ``CapabilityEcc``.

    Implements the methods the read policies use (``decode_ok``, its
    per-row ``decode_ok_batch`` and ``with_mode``) by tiling the page's
    error mask into code-sized frames.
    ``mode`` switching is supported for LDPC (soft decoding raises the LLR
    quality, approximated here by scaling weak-error confidence); BCH is
    hard-decision only and ignores it.
    """

    def __init__(self, code: Union[ShortenedBch, LdpcCode], mode: str = "hard"):
        self.code = code
        self.mode = mode

    # -- CapabilityEcc-compatible surface --------------------------------
    def with_mode(self, mode: str) -> "RealPageEcc":
        return RealPageEcc(self.code, mode=mode)

    def decode_ok(self, read: Union[ReadResult, np.ndarray]) -> bool:
        mask = read.mismatch if isinstance(read, ReadResult) else read
        mask = np.asarray(mask, dtype=bool)
        frame_bits = (
            self.code.frame_bits
            if isinstance(self.code, ShortenedBch)
            else self.code.n
        )
        n_frames = len(mask) // frame_bits
        if n_frames == 0:
            raise ValueError("page smaller than one ECC frame")
        page_ok = True
        for f in range(-(-len(mask) // frame_bits)):
            frame = mask[f * frame_bits : (f + 1) * frame_bits]
            if len(frame) < frame_bits:
                # the tail shorter than a frame is its own shortened frame:
                # the missing positions are known-zero, so error-free
                frame = np.concatenate(
                    [frame, np.zeros(frame_bits - len(frame), dtype=bool)]
                )
            if isinstance(self.code, ShortenedBch):
                ok = self.code.decode_error_mask(frame)
            else:
                magnitude = np.ones(len(frame))
                if self.mode != "hard":
                    # soft sensing: errors sit near thresholds and arrive
                    # with reduced confidence
                    magnitude = np.where(frame, 0.4, 1.0)
                ok = self.code.decode_error_pattern(frame, magnitude).success
            if not ok:
                page_ok = False
                break
        if OBS.enabled and OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_ecc_decodes_total",
                help="page decode attempts by outcome",
                result="ok" if page_ok else "fail",
            ).inc()
        return page_ok

    def decode_ok_batch(self, mismatch: np.ndarray) -> np.ndarray:
        """:meth:`decode_ok` of each row of a ``(rows, cells)`` error mask."""
        return np.array([self.decode_ok(row) for row in mismatch], dtype=bool)
