"""Empirical retry profiles: the bridge from chip-level to system-level.

Running the cell-accurate flash model for every I/O of a multi-hour block
trace would be absurd; the paper itself feeds SSDSim with the retry
behaviour measured on its real chips.  We do the same: a
:class:`RetryProfile` measures the joint distribution of (retries, auxiliary
single-voltage reads) per page type for a given read policy on an aged
block, then replays i.i.d. samples per simulated read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flash.chip import FlashChip
from repro.obs import OBS
from repro.retry.policy import ReadPolicy
from repro.ssd.timing import NandTiming


def _measure_shard(
    policy: ReadPolicy,
    pages: Tuple[int, ...],
    hint_fn: Optional[Callable[..., float]],
    cols,
) -> List[tuple]:
    """Measure one columnar sub-batch; rows in (wordline, page) order.

    The policy reads the sub-batch with :meth:`ReadPolicy.read_batch`, in
    kernel lockstep.  Each wordline's draws come from its own seed-tree
    streams in its per-row order, so the rows do not depend on the
    sub-batch size.  Emits one ``read_complete`` per row.
    """
    hints = None
    if hint_fn is not None:
        hints = [hint_fn(v) for v in cols.iter_views()]
    rows = [
        (
            p,
            outcome.retries,
            outcome.extra_single_reads,
            outcome.calibration_steps,
            bool(outcome.success),
        )
        for row_outcomes in policy.read_batch(cols, pages, hints)
        for p, outcome in zip(pages, row_outcomes)
    ]
    if OBS.enabled and OBS.tracer.enabled:
        for p, retries, extra, calibration_steps, success in rows:
            OBS.tracer.emit(
                "read_complete", policy=policy.name, page=p, retries=retries,
                extra=extra, calibration_steps=calibration_steps,
                success=success,
            )
    return rows


def _emit_read_spans(
    trace: str, row: tuple, n_voltages: int, pipelined: bool, t0: float
) -> float:
    """Emit one chip-level read's span tree in deterministic virtual time.

    Duration and phases come from :meth:`NandTiming.read_cost`, as in the
    serving layer; the last child is clamped to the root's end so float
    noise cannot open a gap.  Returns the read's duration so the caller
    can advance its cumulative clock."""
    page, retries, extra, calibration_steps, success = row
    phases: List[tuple] = []
    die, channel, overlap = NandTiming().read_cost(
        n_voltages, retries, extra, retries if pipelined else 0,
        phases=phases,
    )
    duration = die + channel - overlap
    t1 = t0 + duration
    OBS.tracer.emit(
        "span", trace=trace, span=0, parent=None, name="chip_read",
        t0=t0, t1=t1, page=page, retries=retries, extra=extra,
        calibration_steps=calibration_steps, success=success,
    )
    t = t0
    for j, (pname, pdur, pattrs) in enumerate(phases):
        p_t1 = t1 if j == len(phases) - 1 else t + pdur
        OBS.tracer.emit(
            "span", trace=trace, span=j + 1, parent=0, name=pname,
            t0=t, t1=p_t1, **pattrs,
        )
        t = p_t1
    return duration


@dataclass
class RetryProfile:
    """Per-page-type empirical (retries, extra single reads) samples."""

    policy_name: str
    page_voltages: Dict[int, int]  # page type -> voltages per full read
    samples: Dict[int, np.ndarray]  # page type -> (n, 2) [retries, extra]
    #: the measured policy pipelines speculative retry sensing (Park et
    #: al.); replayed reads price retries with the sense/transfer overlap
    #: shaved (see :meth:`NandTiming.read_cost`)
    pipelined: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def measure(
        cls,
        chip: FlashChip,
        policy: ReadPolicy,
        block: int = 0,
        wordlines: Optional[Sequence[int]] = None,
        pages: Optional[Sequence[int]] = None,
        hint_fn: Optional[Callable[..., float]] = None,
        name: Optional[str] = None,
        workers: int = 1,
        trace_prefix: str = "",
    ) -> "RetryProfile":
        """Measure a policy on one (aged) block of the chip model.

        ``hint_fn(wordline)`` supplies a cached sentinel-voltage offset per
        wordline, passed as the ``hint`` of every read — this is how the
        serving layer measures its *warm* profile (reads that start from a
        voltage-cache hit) alongside the cold one.  ``name`` overrides the
        stored policy name so both profiles stay distinguishable.

        The block is swept by :meth:`FlashChip.map_wordlines` at its
        current stress: each columnar sub-batch is read with the policy's
        ``read_batch`` (:func:`_measure_shard`), in lockstep batched
        sense/decode kernels.  With ``workers > 1`` the sweep fans out over
        :class:`repro.engine.ParallelMap`; the samples are byte-identical
        to a serial run because each wordline's randomness derives from its
        own seed-tree streams.  With span tracing on, read ``i`` is the
        span tree ``f"{trace_prefix}measure/{name}/{i}"``; a caller that
        measures one name more than once tells the runs apart by prefix.
        """
        spec = chip.spec
        if wordlines is None:
            step = max(1, spec.wordlines_per_block // 64)
            wordlines = range(0, spec.wordlines_per_block, step)
        page_list = list(pages) if pages is not None else list(
            range(spec.pages_per_wordline)
        )
        collected: Dict[int, List[Tuple[int, int]]] = {p: [] for p in page_list}
        voltages = {
            p: len(spec.gray.page_voltages(p)) for p in page_list
        }
        per_row = chip.map_wordlines(
            partial(_measure_shard, policy, tuple(page_list), hint_fn),
            wordlines,
            blocks=(block,),
            workers=workers,
            label="profile-measure",
        )
        # span trees emit here, post-merge, on one cumulative virtual
        # clock in canonical sweep order
        spans_on = (
            OBS.enabled and OBS.tracer.enabled and OBS.spans_enabled
        )
        pipelined = bool(getattr(policy, "pipelined", False))
        span_trace = f"{trace_prefix}measure/{name or policy.name}/"
        span_clock = 0.0
        for i, row in enumerate(per_row):
            p, retries, extra = row[0], row[1], row[2]
            collected[p].append((retries, extra))
            if spans_on:
                span_clock += _emit_read_spans(
                    f"{span_trace}{i}", row, voltages[p], pipelined,
                    span_clock,
                )
        return cls(
            policy_name=name or policy.name,
            page_voltages=voltages,
            samples={
                p: np.asarray(v, dtype=np.int64) for p, v in collected.items()
            },
            pipelined=pipelined,
        )

    @classmethod
    def ideal(cls, page_types: Sequence[int], voltages: Dict[int, int]) -> "RetryProfile":
        """A zero-retry profile (fresh chip / perfect knowledge)."""
        return cls(
            policy_name="ideal",
            page_voltages=dict(voltages),
            samples={p: np.zeros((1, 2), dtype=np.int64) for p in page_types},
        )

    # ------------------------------------------------------------------
    def sample(
        self, page_type: int, rng: np.random.Generator
    ) -> Tuple[int, int]:
        """Draw one (retries, extra single reads) pair for a page type."""
        pool = self.samples[page_type]
        row = pool[rng.integers(len(pool))]
        return int(row[0]), int(row[1])

    def mean_retries(self, page_type: Optional[int] = None) -> float:
        if page_type is not None:
            return float(self.samples[page_type][:, 0].mean())
        all_rows = np.vstack(list(self.samples.values()))
        return float(all_rows[:, 0].mean())

    def mean_read_us(self, timing: NandTiming) -> float:
        """Analytic mean read service time across page types."""
        costs = [
            timing.read_us(self.page_voltages[p], retries, extra,
                           pipelined=self.pipelined)
            for p, rows in self.samples.items() for retries, extra in rows
        ]
        return sum(costs) / len(costs) if costs else 0.0
