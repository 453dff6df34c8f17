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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import ParallelMap, WordlineShard, plan_wordline_shards
from repro.flash.chip import FlashChip
from repro.obs import OBS
from repro.retry.policy import ReadPolicy
from repro.ssd.timing import NandTiming

#: Cells per columnar sub-batch of a measure shard (bounds peak memory on
#: whole-block sweeps at paper scale: ~150 MB of column arrays per batch).
_MEASURE_BATCH_CELLS = 1 << 23


@dataclass(frozen=True)
class _MeasureTask:
    """Everything a worker needs to measure one shard of wordlines.

    The chip is rebuilt worker-side from ``(spec, seed, sentinel_ratio,
    stress)`` — by construction that yields exactly the wordlines the
    caller's chip would (the seed tree keys all randomness by wordline
    identity), so sharding cannot change a single sample.
    """

    spec: object
    seed: int
    sentinel_ratio: float
    stress: object
    policy: ReadPolicy
    pages: Tuple[int, ...]
    hint_fn: Optional[Callable[..., float]]


def _outcome_row(p: int, outcome) -> tuple:
    return (
        p,
        outcome.retries,
        outcome.extra_single_reads,
        outcome.calibration_steps,
        bool(outcome.success),
    )


def _measure_shard(task: _MeasureTask, shard: WordlineShard) -> List[tuple]:
    """Measure one shard; rows in (wordline, page) sweep order.

    The shard's wordlines are built as :class:`BlockColumns` sub-batches
    (one batched synthesize for the whole sub-batch) and read with the
    policy's :meth:`ReadPolicy.read_batch`, in kernel lockstep.  Each
    wordline's draws come from its own seed-tree streams in its per-row
    order, so the rows do not depend on the sub-batch size.
    """
    from repro.flash.block import BlockColumns

    rows: List[tuple] = []
    indices = list(shard.wordlines)
    per_batch = max(1, _MEASURE_BATCH_CELLS // max(task.spec.cells_per_wordline, 1))
    for b0 in range(0, len(indices), per_batch):
        cols = BlockColumns(
            task.spec,
            task.seed,
            shard.block,
            indices[b0 : b0 + per_batch],
            task.sentinel_ratio,
            stress=task.stress,
        )
        hints = None
        if task.hint_fn is not None:
            hints = [task.hint_fn(v) for v in cols.iter_views()]
        outcomes = task.policy.read_batch(cols, task.pages, hints)
        for row_outcomes in outcomes:
            for p, outcome in zip(task.pages, row_outcomes):
                rows.append(_outcome_row(p, outcome))
    return rows


def _emit_read_complete(policy_name: str, row: tuple) -> None:
    page, retries, extra, calibration_steps, success = row
    OBS.tracer.emit(
        "read_complete",
        policy=policy_name,
        page=page,
        retries=retries,
        extra=extra,
        calibration_steps=calibration_steps,
        success=success,
    )


#: measure() invocations that emitted span trees, for unique trace ids —
#: advanced identically by serial and sharded runs of the same process
_MEASURE_SPAN_RUNS = 0


def _emit_read_spans(
    trace: str, row: tuple, n_voltages: int, timing: NandTiming, t0: float
) -> float:
    """Emit one chip-level read's span tree in deterministic virtual time.

    Same phase decomposition as the serving layer (sense with the
    sentinel inference, transfer + host ECC, auxiliary single-voltage
    reads, retry rounds); the last child is clamped to the root's end so
    the phases tile it exactly.  Returns the read's duration so the
    caller can advance its cumulative clock."""
    page, retries, extra, calibration_steps, success = row
    duration = timing.read_us(n_voltages, retries, extra)
    t1 = t0 + duration
    OBS.tracer.emit(
        "span", trace=trace, span=0, parent=None, name="chip_read",
        t0=t0, t1=t1, page=page, retries=retries, extra=extra,
        calibration_steps=calibration_steps, success=success,
    )
    phases: List[tuple] = [
        ("sense", timing.sense_us(n_voltages), {}),
        ("xfer_ecc", timing.t_transfer_us, {}),
    ]
    if extra:
        phases.append((
            "aux_reads",
            extra * (timing.sense_us(1) + timing.t_transfer_us),
            {"count": extra},
        ))
    for r in range(1, retries + 1):
        phases.append((
            "retry_round",
            timing.sense_us(n_voltages) + timing.t_transfer_us,
            {"round": r},
        ))
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
    #: shaved (see :meth:`NandTiming.read_us`)
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
    ) -> "RetryProfile":
        """Measure a policy on one (aged) block of the chip model.

        ``hint_fn(wordline)`` supplies a cached sentinel-voltage offset per
        wordline, passed as the ``hint`` of every read — this is how the
        serving layer measures its *warm* profile (reads that start from a
        voltage-cache hit) alongside the cold one.  ``name`` overrides the
        stored policy name so both profiles stay distinguishable.

        With ``workers > 1`` the wordline sweep fans out over
        :class:`repro.engine.ParallelMap`; the samples are byte-identical
        to a serial run because each wordline's randomness derives from its
        own seed-tree streams.  Policy-internal trace events are lost in
        worker processes.  At any worker count the parent emits one
        ``read_complete`` per read after the merge, in canonical sweep
        order, as one contiguous block.

        Wordlines are measured through the columnar
        :class:`repro.flash.block.BlockColumns` store and the policy's
        ``read_batch`` — batched synthesize plus lockstep batched
        sense/decode kernels, for every policy.
        """
        from functools import partial

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
        task = _MeasureTask(
            spec=spec,
            seed=chip.seed,
            sentinel_ratio=chip.sentinel_ratio,
            stress=chip.block_stress(block),
            policy=policy,
            pages=tuple(page_list),
            hint_fn=hint_fn,
        )
        shards = plan_wordline_shards(block, wordlines, workers)
        engine = ParallelMap(workers=workers)
        per_shard = engine.run(
            partial(_measure_shard, task), shards, label="profile-measure"
        )
        # read_complete events and span trees always emit here, post-merge,
        # in canonical sweep order — serial and sharded runs produce an
        # identical stream
        spans_on = (
            OBS.enabled and OBS.tracer.enabled and OBS.spans_enabled
        )
        if spans_on:
            global _MEASURE_SPAN_RUNS
            _MEASURE_SPAN_RUNS += 1
            span_label = name or policy.name
            span_timing = NandTiming()
            span_clock = 0.0
            span_index = 0
        for rows in per_shard:
            for row in rows:
                p, retries, extra = row[0], row[1], row[2]
                collected[p].append((retries, extra))
                if OBS.enabled and OBS.tracer.enabled:
                    _emit_read_complete(policy.name, row)
                if spans_on:
                    trace = (
                        f"measure/{span_label}/"
                        f"{_MEASURE_SPAN_RUNS}/{span_index}"
                    )
                    span_clock += _emit_read_spans(
                        trace, row, voltages[p], span_timing, span_clock
                    )
                    span_index += 1
        return cls(
            policy_name=name or policy.name,
            page_voltages=voltages,
            samples={
                p: np.asarray(v, dtype=np.int64) for p, v in collected.items()
            },
            pipelined=bool(getattr(policy, "pipelined", False)),
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
        total = 0.0
        count = 0
        for p, rows in self.samples.items():
            for retries, extra in rows:
                total += timing.read_us(
                    self.page_voltages[p], retries, extra,
                    pipelined=self.pipelined,
                )
                count += 1
        return total / count if count else 0.0
