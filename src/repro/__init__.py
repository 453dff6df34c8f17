"""Reproduction of *Shaving Retries with Sentinels for Fast Read over
High-Density 3D Flash* (MICRO 2020).

The package is organised as follows:

``repro.flash``
    A Monte-Carlo 3D NAND device model: per-cell threshold voltages under
    program/erase wear, temperature-accelerated retention, read disturb and
    layer-to-layer process variation, plus ground-truth optimal read-voltage
    search.
``repro.ecc``
    Error-correction substrate: a correction-capability threshold model for
    large sweeps and a real QC-LDPC encoder/min-sum decoder with 2-bit/3-bit
    soft sensing for the decoding-success experiments.
``repro.core``
    The paper's contribution: sentinel cells, error-difference inference of
    the optimal sentinel-voltage offset, cross-voltage correlation, the
    state-change calibration procedure, and the full sentinel read controller.
``repro.retry``
    Baselines: the current-flash retry table, the tracking method of
    Cai et al. (HPCA'15), the layer-similarity method of Shim et al.
    (MICRO'19), and an oracle that reads at the true optimum.
``repro.ssd``
    A trace-driven, event-based SSD simulator (channels/dies/planes,
    page-mapping FTL, garbage collection) used for the system-level read
    latency evaluation.
``repro.traces``
    MSR-Cambridge trace parsing plus synthetic generators for the eight
    workloads used in the paper.
``repro.exp``
    One driver per paper table/figure; the benchmark suite calls these.
``repro.obs``
    Observability: metrics registry, structured event tracer with JSONL
    export, and logging — disabled by default, no-op on the hot path
    (see ``docs/OBSERVABILITY.md``).
"""

from repro.flash.spec import FlashSpec, TLC_SPEC, QLC_SPEC
from repro.flash.chip import FlashChip, StressState
from repro.flash.wordline import Wordline, ReadResult
# repro.retry first: its TrackedSentinelPolicy subclasses SentinelController,
# whose module in turn imports repro.retry.policy
import repro.retry  # noqa: F401  (import order)
from repro.core.controller import SentinelController, ReadOutcome
from repro.core.characterization import CharacterizationResult, characterize_chip
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc

__version__ = "1.0.0"

__all__ = [
    "FlashSpec",
    "TLC_SPEC",
    "QLC_SPEC",
    "FlashChip",
    "StressState",
    "Wordline",
    "ReadResult",
    "SentinelController",
    "ReadOutcome",
    "CharacterizationResult",
    "characterize_chip",
    "SentinelModel",
    "CapabilityEcc",
    "__version__",
]
