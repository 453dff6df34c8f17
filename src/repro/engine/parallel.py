"""The deterministic fan-out executor.

:class:`ParallelMap` runs one picklable callable over a list of shards.
With ``workers <= 1`` it is a plain in-process loop; with more workers it
fans out over a ``ProcessPoolExecutor`` (``fork`` context where
available, so per-process caches like the fitted sentinel model are
inherited instead of re-computed).  Either way the results come back **in
canonical shard order** — completion order never leaks into the output,
which is what makes parallel runs byte-identical to serial ones.

If the pool cannot be created or breaks (sandboxed environments, pickling
restrictions, dying workers), the engine falls back to the serial loop
and recomputes everything in order — same results, just slower.  Errors
raised by the shard function itself are *not* swallowed: they would occur
serially too, so they propagate.

Observability: each run emits ``shard_dispatch``/``shard_merge`` trace
events and ``repro_engine_*`` metrics (see ``repro stats``).  Trace
events a shard emits in a pool worker come back with its result and are
re-emitted by the parent in canonical shard order, before
``shard_merge`` — the same stream a serial run emits live.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import OBS

log = logging.getLogger("repro.engine")

#: Pool-infrastructure failures that trigger the serial fallback.  Shard
#: function errors mostly reproduce serially and are deliberately not
#: listed; AttributeError/TypeError appear because pickling a closure or
#: lambda raises them (a genuine shard-fn error of those types simply
#: re-raises from the serial rerun).
_POOL_FAILURES = (
    BrokenProcessPool,
    OSError,
    pickle.PicklingError,
    EOFError,
    AttributeError,
    TypeError,
)


def available_workers() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def merge_in_order(results: Dict[int, Any], n_shards: int) -> List[Any]:
    """Order a {shard_index: result} map canonically; every index required."""
    missing = [i for i in range(n_shards) if i not in results]
    if missing:
        raise RuntimeError(f"engine merge missing shard results: {missing}")
    return [results[i] for i in range(n_shards)]


def _timed_call(fn: Callable[[Any], Any], index: int, shard: Any):
    """Worker-side wrapper: run one shard and report its busy time."""
    t0 = time.perf_counter()
    value = fn(shard)
    return index, value, time.perf_counter() - t0


def _pool_call(fn: Callable[[Any], Any], index: int, shard: Any):
    """Pool-worker wrapper: run one shard, return its trace events too.

    The fork-inherited tracer is cut from the parent's live stream and
    emptied first, so only this shard's events (and drops) come back."""
    OBS.tracer.close_stream()
    OBS.tracer.clear()
    index, value, seconds = _timed_call(fn, index, shard)
    events = [(e.kind, e.fields) for e in OBS.tracer.events()]
    return index, (value, events, OBS.tracer.dropped), seconds


@dataclass
class EngineReport:
    """Accounting of one :meth:`ParallelMap.run` call."""

    label: str
    mode: str  # "serial" | "parallel" | "serial-fallback"
    workers: int
    shards: int
    wall_seconds: float
    busy_seconds: float  # sum of per-shard execution times
    merge_seconds: float

    @property
    def utilization(self) -> float:
        """Fraction of the worker-pool capacity spent executing shards."""
        capacity = self.workers * self.wall_seconds
        return self.busy_seconds / capacity if capacity > 0 else 0.0


class ParallelMap:
    """Deterministic map over shards; serial below 2 workers.

    Parameters
    ----------
    workers:
        Worker processes to use.  ``<= 1`` selects the in-process serial
        path (no pool, no pickling).  The pool uses the ``fork`` start
        method where available, so workers inherit per-process caches.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.last_report: Optional[EngineReport] = None

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[Any], Any],
        shards: Sequence[Any],
        label: str = "engine",
    ) -> List[Any]:
        """Apply ``fn`` to every shard; results in canonical shard order."""
        shards = list(shards)
        mode = "serial" if self.workers <= 1 or len(shards) <= 1 else "parallel"
        if OBS.enabled:
            self._obs_dispatch(label, mode, len(shards))
        t0 = time.perf_counter()
        if mode == "parallel":
            try:
                results, busy = self._run_pool(fn, shards)
            except _POOL_FAILURES as exc:
                log.warning(
                    "engine: process pool unavailable (%s: %s); "
                    "falling back to serial execution", type(exc).__name__, exc,
                )
                mode = "serial-fallback"
                results, busy = self._run_serial(fn, shards)
        else:
            results, busy = self._run_serial(fn, shards)
        t_merge = time.perf_counter()
        ordered = merge_in_order(results, len(shards))
        if mode == "parallel":  # worker events, in canonical shard order
            for _, events, dropped in ordered:
                OBS.tracer.dropped += dropped
                for kind, fields in events:
                    OBS.tracer.emit(kind, **fields)
            ordered = [value for value, _, _ in ordered]
        merge_seconds = time.perf_counter() - t_merge
        report = EngineReport(
            label=label,
            mode=mode,
            workers=self.workers if mode == "parallel" else 1,
            shards=len(shards),
            wall_seconds=time.perf_counter() - t0,
            busy_seconds=busy,
            merge_seconds=merge_seconds,
        )
        self.last_report = report
        if OBS.enabled:
            self._obs_merge(report)
        return ordered

    # ------------------------------------------------------------------
    def _run_serial(self, fn, shards) -> "tuple[Dict[int, Any], float]":
        results: Dict[int, Any] = {}
        busy = 0.0
        for index, shard in enumerate(shards):
            _, value, seconds = _timed_call(fn, index, shard)
            results[index] = value
            busy += seconds
        return results, busy

    def _run_pool(self, fn, shards) -> "tuple[Dict[int, Any], float]":
        import multiprocessing as mp

        context = None
        if "fork" in mp.get_all_start_methods():
            context = mp.get_context("fork")
        workers = min(self.workers, len(shards))
        results: Dict[int, Any] = {}
        busy = 0.0
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [
                pool.submit(_pool_call, fn, index, shard)
                for index, shard in enumerate(shards)
            ]
            for future in as_completed(futures):
                index, value, seconds = future.result()
                results[index] = value
                busy += seconds
        return results, busy

    # ------------------------------------------------------------------
    def _obs_dispatch(self, label: str, mode: str, n_shards: int) -> None:
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_engine_runs_total",
                help="engine fan-out runs by execution mode",
                label=label, mode=mode,
            ).inc()
            OBS.metrics.counter(
                "repro_engine_shards_total",
                help="shards dispatched by the engine",
                label=label,
            ).inc(n_shards)
            OBS.metrics.gauge(
                "repro_engine_workers",
                help="worker processes of the most recent engine run",
            ).set(self.workers)
        if OBS.tracer.enabled:
            OBS.tracer.emit(
                "shard_dispatch",
                label=label, mode=mode, shards=n_shards, workers=self.workers,
            )

    def _obs_merge(self, report: EngineReport) -> None:
        if OBS.metrics.enabled:
            OBS.metrics.histogram(
                "repro_engine_merge_seconds",
                help="time spent merging shard results in canonical order",
                edges=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0],
                label=report.label,
            ).observe(report.merge_seconds)
            OBS.metrics.histogram(
                "repro_engine_run_seconds",
                help="wall-clock of engine runs",
                label=report.label,
            ).observe(report.wall_seconds)
            OBS.metrics.gauge(
                "repro_engine_worker_utilization",
                help="busy fraction of the pool in the most recent run",
                label=report.label,
            ).set(report.utilization)
        if OBS.tracer.enabled:
            OBS.tracer.emit(
                "shard_merge",
                label=report.label,
                mode=report.mode,
                shards=report.shards,
                workers=report.workers,
                wall_s=report.wall_seconds,
                busy_s=report.busy_seconds,
                merge_s=report.merge_seconds,
                utilization=report.utilization,
            )


def run_sharded(
    fn: Callable[[Any], Any],
    shards: Sequence[Any],
    workers: int = 1,
    label: str = "engine",
) -> "tuple[List[Any], EngineReport]":
    """One-shot convenience: run and return (ordered results, report)."""
    engine = ParallelMap(workers=workers)
    ordered = engine.run(fn, shards, label=label)
    assert engine.last_report is not None
    return ordered, engine.last_report


__all__ = [
    "ParallelMap",
    "EngineReport",
    "available_workers",
    "merge_in_order",
    "run_sharded",
]
