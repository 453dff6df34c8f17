"""Figure 19: LDPC decoding success — the sentinel parity worst case.

Section IV-C evaluates the pessimistic configuration where every sentinel
cell displaces ECC parity.  Three voltage sources (OPT, current flash after
its retry walk, sentinel after calibration) are decoded with a real LDPC
code under hard, 2-bit soft and 3-bit soft sensing across P/E counts; the
sentinel variant additionally punctures the parity fraction its cells
consumed.  Shapes to reproduce: everything decodes at low P/E; hard decoding
degrades first as wear grows; the punctured sentinel code sits slightly
below the other two under hard/2-bit sensing, and soft sensing recovers the
loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.controller import SentinelController
from repro.core.sentinel import worst_case_parity_donation
from repro.ecc.ldpc import LdpcCode
from repro.ecc.soft import SoftSensing, extract_frames, page_llrs
from repro.exp.common import (
    ONE_YEAR_H, default_ecc, eval_chip, read_rows, trained_model,
)
from repro.flash.mechanisms import StressState
from repro.flash.optimal import optimal_offsets_batch
from repro.retry import CurrentFlashPolicy
from repro.util.rng import derive_rng

METHODS = ("opt", "current-flash", "sentinel")
MODES = ("hard", "soft2", "soft3")
#: rate of the LDPC code the frames are decoded with
CODE_RATE = 0.89


@dataclass
class Fig19Result:
    kind: str
    pe_cycles: Sequence[int]
    success: Dict[Tuple[str, str], np.ndarray]  # (mode, method) -> per-PE rate
    frames_per_point: int
    punctured_parity_fraction: float

    def rate(self, mode: str, method: str, pe: int) -> float:
        return float(self.success[(mode, method)][list(self.pe_cycles).index(pe)])

    def rows(self) -> list:
        out = []
        for mode in MODES:
            for i, pe in enumerate(self.pe_cycles):
                out.append(
                    (
                        mode,
                        pe,
                        *(
                            f"{self.success[(mode, m)][i]:.0%}"
                            for m in METHODS
                        ),
                    )
                )
        return out


def run_fig19(
    kind: str = "tlc",
    pe_cycles: Sequence[int] = (0, 1000, 2000, 3000, 4000, 5000),
    frame_bits: int = 2048,
    wordline_step: int = 64,
    frames_per_wordline: int = 4,
    page: str = "MSB",
    sentinel_ratio: float = 0.002,
) -> Fig19Result:
    """Decode real LDPC frames read at each method's final voltages."""
    chip = eval_chip(kind)
    spec = chip.spec
    ecc = default_ecc(kind)
    model = trained_model(kind)
    code = LdpcCode.random_regular(frame_bits, CODE_RATE, seed=12)
    rng = derive_rng(19, "fig19", kind)

    # sentinel worst case: its cells puncture this fraction of the parity
    donated = worst_case_parity_donation(spec, sentinel_ratio)
    n_punct = int(round(donated * len(code.parity_cols)))
    punctured = np.zeros(frame_bits, dtype=bool)
    if n_punct:
        punctured[code.parity_cols[:n_punct]] = True

    indices = range(0, spec.wordlines_per_block, wordline_step)
    success = {
        (mode, method): np.zeros(len(pe_cycles))
        for mode in MODES
        for method in METHODS
    }
    for pi, pe in enumerate(pe_cycles):
        chip.set_block_stress(
            0, StressState(pe_cycles=pe, retention_hours=ONE_YEAR_H)
        )
        current_policy = CurrentFlashPolicy(ecc, spec)
        sentinel_policy = SentinelController(ecc, model)

        def batch(cols):
            # per row: current flash, then sentinel, then the LDPC frames
            # (these draw the shared rng, in row order)
            reads = zip(
                cols.iter_views(), optimal_offsets_batch(cols),
                read_rows(current_policy, cols, page),
                read_rows(sentinel_policy, cols, page),
            )
            decodes = []
            for wl, opt, cur, sen in reads:
                offsets = {"opt": opt, "current-flash": cur.final_offsets,
                           "sentinel": sen.final_offsets}
                for method, off in offsets.items():
                    for mode in MODES:
                        sensing = SoftSensing.for_pitch(spec.state_pitch, mode)
                        err, mag = page_llrs(wl, page, off, sensing, rng)
                        frames_e, frames_m = extract_frames(
                            err, mag, frame_bits, max_frames=frames_per_wordline
                        )
                        for fe, fm in zip(frames_e, frames_m):
                            result = code.decode_error_pattern(
                                fe, fm, punctured if method == "sentinel" else None
                            )
                            decodes.append(((mode, method), result.success))
            return decodes

        counts = {key: [0, 0] for key in success}  # decoded, total
        for key, decoded in chip.map_wordlines(batch, indices):
            counts[key][0] += decoded
            counts[key][1] += 1
        for key, (decoded, total) in counts.items():
            success[key][pi] = decoded / max(total, 1)
    return Fig19Result(
        kind=kind,
        pe_cycles=tuple(pe_cycles),
        success=success,
        frames_per_point=len(list(indices)) * frames_per_wordline,
        punctured_parity_fraction=donated,
    )
