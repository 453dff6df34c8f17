"""Correction-capability threshold model of the page ECC.

A page stores several ECC frames; a page read succeeds only if *every* frame
decodes.  A frame decodes iff its raw bit errors stay within the capability.
Splitting the page into contiguous frames matters: on spatially non-uniform
wordlines the errors concentrate, so a page can fail even when its average
RBER looks fine — one of the effects the paper's calibration step exists to
handle.

The capability is expressed as a correctable RBER per frame of hard-decision
input: the read flow of Section III-B/C has no soft-decode stage (Figure
19's soft sensing runs the real LDPC through :mod:`repro.ecc.soft`).
The threshold rule tracks the real LDPC decoder of :mod:`repro.ecc.ldpc`
when the capability is the LDPC's own, measured on random frames
(``tests/test_page_ecc.py``).  The default values are not yet held to it:
at the shipped capability that comparison is a strict xfail (ROADMAP.md,
"Hold the ECC stand-in to the real decoder").  A one-off comparison at
2,048-bit frames on the aged TLC evaluation block agreed on 95.3 % of
frames, with this model the stricter one at default read voltages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Union

import numpy as np

from repro.flash.spec import FlashSpec
from repro.flash.wordline import ReadResult
from repro.obs import OBS

def _emit_decode(decoded: bool, frames: int, max_frame_errors: int) -> None:
    if OBS.metrics.enabled:
        OBS.metrics.counter(
            "repro_ecc_decodes_total",
            help="page decode attempts by outcome",
            result="ok" if decoded else "fail",
        ).inc()
    if OBS.tracer.enabled:
        OBS.tracer.emit(
            "ecc_decode",
            decoded=decoded,
            frames=frames,
            max_frame_errors=max_frame_errors,
        )


def report_decode(
    deferred: Optional[List[Callable[[], None]]], decoded: bool, frames: int,
    max_frame_errors: int,
) -> None:
    """Count and trace one page decode (``repro_ecc_decodes_total``,
    ``ecc_decode``) now or, given a list ``deferred``, append that
    emission to it as a call for the caller to make in its own place."""
    if not OBS.enabled:
        return
    emit = partial(_emit_decode, decoded, frames, max_frame_errors)
    if deferred is None:
        emit()
    else:
        deferred.append(emit)


@dataclass(frozen=True)
class CapabilityEcc:
    """Threshold-capability ECC.

    Parameters
    ----------
    capability_rber:
        Correctable raw bit error rate per frame for hard decoding.
    frame_bits:
        Payload+parity bits covered by one frame (frames tile the page).
    """

    capability_rber: float = 2.8e-3
    frame_bits: int = 16384

    def __post_init__(self) -> None:
        if self.frame_bits <= 0:
            raise ValueError("frame_bits must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def for_spec(cls, spec: FlashSpec) -> "CapabilityEcc":
        """An ECC sized for a chip spec.

        The capability sits between the optimal-voltage RBER and the
        default-voltage RBER of an aged block — the regime the paper's
        evaluation lives in (default reads fail, optimal reads succeed).
        """
        return cls(
            capability_rber=5.0e-3,
            frame_bits=min(16384, spec.cells_per_wordline // 4 or 1),
        )

    def max_errors_per_frame(self) -> int:
        return int(self.capability_rber * self.frame_bits)

    # ------------------------------------------------------------------
    def frame_error_counts(self, mismatch: np.ndarray) -> np.ndarray:
        """Per-frame error counts of a page given its error mask."""
        n = len(mismatch)
        n_frames = max(1, -(-n // self.frame_bits))  # ceil
        return np.array(
            [int(chunk.sum()) for chunk in np.array_split(mismatch, n_frames)],
            dtype=np.int64,
        )

    def decode_ok(
        self,
        read: Union[ReadResult, np.ndarray],
        deferred: Optional[List[Callable[[], None]]] = None,
    ) -> bool:
        """Whether the page decodes: every frame within capability.

        The decode is counted and traced as :func:`report_decode` says.
        """
        mismatch = read.mismatch if isinstance(read, ReadResult) else read
        counts = self.frame_error_counts(np.asarray(mismatch, dtype=bool))
        ok = bool((counts <= self.max_errors_per_frame()).all())
        report_decode(deferred, ok, len(counts), int(counts.max()))
        return ok

    def decode_ok_batch(
        self,
        mismatch: np.ndarray,
        deferred: Optional[List[Callable[[], None]]] = None,
    ) -> np.ndarray:
        """Batched :meth:`decode_ok`: one row of error masks per wordline.

        Frame boundaries match ``np.array_split`` in
        :meth:`frame_error_counts` exactly, so ``decode_ok_batch(m)[i] ==
        decode_ok(m[i])`` for every row.  Each row's decode is reported
        as in :meth:`decode_ok`, in row order: the read driver passes
        ``deferred`` and emits each row's in that read's canonical place.
        """
        m = np.asarray(mismatch, dtype=bool)
        n = m.shape[1]
        n_frames = max(1, -(-n // self.frame_bits))  # ceil
        base, rem = divmod(n, n_frames)
        sizes = [base + 1] * rem + [base] * (n_frames - rem)
        bounds = np.cumsum([0] + sizes[:-1])
        # sum the bool mask as int32 directly: no int32 copy of the mask
        counts = np.add.reduceat(m, bounds, axis=1, dtype=np.int32)
        ok = (counts <= self.max_errors_per_frame()).all(axis=1)
        if OBS.enabled:
            for i in range(len(ok)):
                report_decode(
                    deferred, bool(ok[i]), n_frames, int(counts[i].max())
                )
        return ok
