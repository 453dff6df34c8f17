"""Hard and soft sensing: from cell voltages to decoder LLRs.

Hard decoding uses the single page read: every bit enters the decoder with
the same confidence.  Soft decoding re-reads the page with the thresholds
nudged around each read voltage — 2-bit soft sensing places one extra read on
each side (4 confidence levels), 3-bit places three (8 levels).  Cells sensed
close to a threshold get low-confidence LLRs, exactly the information an
LDPC min-sum decoder exploits.

Because normalized min-sum is invariant to a global LLR scale, only the
*ratios* between confidence levels matter; the tables below are standard
monotone profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.flash.wordline import OffsetsLike, Wordline

#: LLR magnitude per distance bin (nearest first) for each sensing mode.
_MAGNITUDES = {
    "hard": np.array([1.0]),
    "soft2": np.array([0.25, 1.0]),
    "soft3": np.array([0.20, 0.55, 0.85, 1.20]),
}


@dataclass(frozen=True)
class SoftSensing:
    """Sensing configuration for ECC decoding.

    ``delta`` is the spacing of the auxiliary reads in DAC steps; the default
    (set per chip from the state pitch) is chosen so the innermost bin
    brackets the distribution overlap region.
    """

    mode: str = "hard"
    delta: float = 8.0

    def __post_init__(self) -> None:
        if self.mode not in _MAGNITUDES:
            raise ValueError(
                f"unknown sensing mode {self.mode!r}; one of {sorted(_MAGNITUDES)}"
            )
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @classmethod
    def for_pitch(cls, state_pitch: int, mode: str = "hard") -> "SoftSensing":
        return cls(mode=mode, delta=max(2.0, 0.06 * state_pitch))

    @property
    def n_bins(self) -> int:
        return len(_MAGNITUDES[self.mode])

    def magnitudes(self) -> np.ndarray:
        return _MAGNITUDES[self.mode]

    def magnitude_for_distance(self, distance: np.ndarray) -> np.ndarray:
        """LLR magnitude of cells at |distance| steps from the threshold."""
        mags = self.magnitudes()
        bins = np.minimum(
            (np.abs(distance) / self.delta).astype(np.int64), self.n_bins - 1
        )
        return mags[bins]


def page_llrs(
    wordline: Wordline,
    page: "int | str",
    offsets: OffsetsLike = None,
    sensing: Optional[SoftSensing] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Error mask and LLR magnitudes of one page read, data cells only.

    Returns ``(error_mask, magnitudes)`` — suitable for
    :meth:`repro.ecc.ldpc.LdpcCode.decode_error_pattern` via the symmetric
    channel shortcut.  The same sensed voltage drives both the readout and
    the soft bins, modelling back-to-back reads of the soft-sensing sweep.
    """
    sensing = sensing or SoftSensing.for_pitch(wordline.spec.state_pitch)
    spec = wordline.spec
    p = spec.gray.page_index(page)
    positions = wordline.page_positions(p, offsets)

    gen = rng if rng is not None else wordline.read_rng
    noise = spec.read_noise_sigma * gen.standard_normal(wordline.n_cells)
    sensed = wordline.vth + noise.astype(np.float32)

    regions = np.searchsorted(np.sort(positions), sensed, side="left")
    pattern = spec.gray.region_bits(p)
    bits = pattern[regions]
    stored = spec.gray.stored_bits(p, wordline.states)
    data_mask = wordline.data_mask
    error_mask = (bits != stored)[data_mask]

    distances = np.min(
        np.abs(sensed[data_mask, None] - positions[None, :]), axis=1
    )
    magnitudes = sensing.magnitude_for_distance(distances)
    return error_mask, magnitudes


def extract_frames(
    error_mask: np.ndarray,
    magnitudes: np.ndarray,
    frame_len: int,
    max_frames: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tile a page into decoder-sized frames.

    Returns ``(errors, mags)`` with shape ``(n_frames, frame_len)``; the tail
    that does not fill a frame is dropped.
    """
    n = len(error_mask) // frame_len
    if max_frames is not None:
        n = min(n, max_frames)
    if n == 0:
        raise ValueError("page too small for even one frame")
    cut = n * frame_len
    return (
        error_mask[:cut].reshape(n, frame_len),
        magnitudes[:cut].reshape(n, frame_len),
    )
