"""Real-code page ECC: run the controllers against the real LDPC decoder.

:class:`repro.ecc.capability.CapabilityEcc` abstracts a decoder as a
threshold so block-scale sweeps stay fast.  This module provides the
non-abstracted alternative: a page ECC whose ``decode_ok`` tiles the page
into frames and runs the LDPC decoder of :mod:`repro.ecc.ldpc` on each one,
via the symmetric-channel shortcut (all-zero codeword, the page's error mask
as the received pattern, every bit at full hard-decision confidence).  Any read policy accepts it in place of the
threshold model, so a controller can run against genuine coding behaviour.

It is the instrument for holding the threshold model to the real decoder
(ROADMAP item 12).  In ``tests/test_page_ecc.py`` the threshold rule, at the
capability measured from the LDPC itself, agrees with it on aged-block page
verdicts; at the shipped capability the two disagree on most of them, and
that test is a strict xfail.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

import numpy as np

from repro.ecc.capability import report_decode
from repro.ecc.ldpc import LdpcCode
from repro.flash.wordline import ReadResult
from repro.obs import OBS


class RealPageEcc:
    """Page ECC backed by the real LDPC decoder; drop-in for ``CapabilityEcc``.

    Implements the methods the read policies use (``decode_ok`` and its
    per-row ``decode_ok_batch``) by tiling the page's error mask into
    ``code.n``-bit frames, each decoded from hard-decision input.
    """

    def __init__(self, code: LdpcCode):
        self.code = code

    # -- CapabilityEcc-compatible surface --------------------------------
    def decode_ok(
        self,
        read: Union[ReadResult, np.ndarray],
        deferred: Optional[List[Callable[[], None]]] = None,
    ) -> bool:
        """Whether every frame decodes; reported as
        :meth:`CapabilityEcc.decode_ok` reports it."""
        mask = read.mismatch if isinstance(read, ReadResult) else read
        mask = np.asarray(mask, dtype=bool)
        frame_bits = self.code.n
        if len(mask) < frame_bits:
            raise ValueError("page smaller than one ECC frame")
        frames = [
            mask[start : start + frame_bits]
            for start in range(0, len(mask), frame_bits)
        ]
        magnitude = np.ones(frame_bits)
        page_ok = True
        for frame in frames:
            if len(frame) < frame_bits:
                # the tail shorter than a frame is its own shortened frame:
                # the missing positions are known-zero, so error-free
                frame = np.concatenate(
                    [frame, np.zeros(frame_bits - len(frame), dtype=bool)]
                )
            if not self.code.decode_error_pattern(frame, magnitude).success:
                page_ok = False
                break
        if OBS.enabled:
            report_decode(
                deferred, page_ok, len(frames),
                max(int(frame.sum()) for frame in frames),
            )
        return page_ok

    def decode_ok_batch(
        self,
        mismatch: np.ndarray,
        deferred: Optional[List[Callable[[], None]]] = None,
    ) -> np.ndarray:
        """:meth:`decode_ok` of each row of a ``(rows, cells)`` error mask."""
        return np.array(
            [self.decode_ok(row, deferred) for row in mismatch], dtype=bool
        )
