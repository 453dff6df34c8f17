"""3D NAND flash device model.

This subpackage is the hardware substrate of the reproduction.  It replaces
the real Micron 64-layer TLC/QLC chips used by the paper with a Monte-Carlo
cell model:

* ``spec``        — chip geometry and reliability parameters (TLC/QLC).
* ``gray``        — state/bit Gray coding and page-to-read-voltage mapping.
* ``mechanisms``  — P/E wear, Arrhenius-accelerated retention, read disturb.
* ``variation``   — layer-to-layer / wordline-to-wordline process variation.
* ``vth``         — per-cell threshold-voltage synthesis.
* ``wordline``    — one wordline: programming, page and sentinel reads.
* ``block``       — columnar block store + batched sense/decode kernels.
* ``chip``        — chip-level API (blocks, stress, wordline factory).
* ``optimal``     — ground-truth optimal read-voltage search.
"""

from repro.flash.spec import FlashSpec, ReliabilityParams, TLC_SPEC, QLC_SPEC
from repro.flash.gray import GrayCode
from repro.flash.mechanisms import StressState, arrhenius_factor
from repro.flash.wordline import Wordline, ReadResult
from repro.flash.block import BlockColumns
from repro.flash.chip import FlashChip
from repro.flash.optimal import optimal_offsets, errors_at_offsets

__all__ = [
    "FlashSpec",
    "ReliabilityParams",
    "TLC_SPEC",
    "QLC_SPEC",
    "GrayCode",
    "StressState",
    "arrhenius_factor",
    "Wordline",
    "ReadResult",
    "BlockColumns",
    "FlashChip",
    "optimal_offsets",
    "errors_at_offsets",
]
