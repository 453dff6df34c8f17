"""Span tracing for the traced benchmark run (``--trace 1``).

Everything here lives outside the simulator: :func:`install` wraps the
public entry points of each ``repro`` layer *from the outside* and
changes nothing under ``src/``.  Every wrapped call records one span —
name, start, end and parent — in a :class:`Tracer`, kept in memory as
flat arrays and written out once the sample ends.  Self time is a span's
duration minus its children's, so the self times of all spans (the two
``bench.*`` roots included) add up to the traced wall time exactly.

A wrapped function is rebound in **every** loaded ``repro`` module that
holds it, because callers such as ``repro.campaign.runner`` bind
``measure_stress_profile`` at import time; patching only the defining
module would miss those calls.  Wrappers keep the original's module and
qualified name (``functools.wraps``), so functions handed to the process
pool still pickle by reference.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: layers, in report order: the ``repro`` modules a workload runs, plus
#: ``bench`` for time outside every wrapped call (interpreter work of the
#: harness itself, module imports during set-up, glue between calls)
LAYERS = (
    "cli", "traces", "replay", "service", "ssd", "flash", "ecc", "retry",
    "core", "engine", "tournament", "campaign", "report", "bench",
)


class Tracer:
    """In-memory span recorder: one row per span in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        #: 1 when no span of the same name encloses this one
        self.outermost = array("b")
        self._stack: List[int] = []
        self._active: Dict[int, int] = defaultdict(int)
        #: per-layer counters filled by the wrappers' count hooks
        self.counts: Dict[str, float] = defaultdict(float)
        #: last seen device counters per live serving broker
        self.services: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: measured retry-profile samples: reads, first tries, senses
        self.profile_rows = [0, 0, 0]

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.t0)
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t0.append(time.perf_counter())
        self.t1.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.t1[index] = time.perf_counter()
        self._active[self.name_id[index]] -= 1
        self._stack.pop()

    # ------------------------------------------------------------------
    def span_name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def self_times(self) -> List[float]:
        """Duration minus the children's durations, per span."""
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent) as one ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
        )


# ----------------------------------------------------------------------
# count hooks: (tracer, span index, args, kwargs, result) -> None
# ----------------------------------------------------------------------
def _rows_arg(args, kwargs, position: int) -> int:
    rows = kwargs.get("rows", args[position] if len(args) > position else None)
    return args[0].n_wordlines if rows is None else len(rows)


def _count_sense(position: int) -> Callable:
    def hook(tracer, index, args, kwargs, result):
        if tracer.outermost[index]:
            tracer.counts["flash.sense_rows"] += _rows_arg(args, kwargs, position)
    return hook


def _count_decode_batch(tracer, index, args, kwargs, result):
    ecc, mismatch = args[0], args[1]
    rows, bits = mismatch.shape
    tracer.counts["ecc.decode_frames"] += rows * max(1, -(-bits // ecc.frame_bits))


def _count_decode(tracer, index, args, kwargs, result):
    ecc, read = args[0], args[1]
    bits = len(getattr(read, "mismatch", read))
    tracer.counts["ecc.decode_frames"] += max(1, -(-bits // ecc.frame_bits))


def _count_scrub(tracer, index, args, kwargs, result):
    tracer.counts["service.scrub_entries_scanned"] += len(args[0])
    tracer.counts["service.scrub_refreshed"] += len(result)


def _count_profile(tracer, index, args, kwargs, result):
    for rows in result.samples.values():
        retries, extra = rows[:, 0], rows[:, 1]
        tracer.profile_rows[0] += len(rows)
        tracer.profile_rows[1] += int((retries == 0).sum())
        tracer.profile_rows[2] += int(len(rows) + retries.sum() + extra.sum())


def _record_service(tracer, index, args, kwargs, result):
    """Add a broker's cache/batch/FTL counter growth since its last run
    (a campaign broker serves every phase, and its counters accumulate)."""
    svc = args[0]
    now = {
        "service.cache_lookups": svc.cache.lookups,
        "service.cache_hits": svc.cache.hits,
        "service.batch_coalesced": svc.batch_stats["coalesced_reads"],
        "ssd.host_writes": svc.ftl.host_writes,
        "ssd.gc_writes": svc.ftl.gc_writes,
        "ssd.gc_erases": svc.ftl.gc_erases,
    }
    before = tracer.services.get(svc, {})
    for key, value in now.items():
        tracer.counts[key] += value - before.get(key, 0)
    tracer.services[svc] = now


# ----------------------------------------------------------------------
# what to wrap: (module, attribute path, span name, count hook)
# ----------------------------------------------------------------------
#: Functions and methods wrapped as spans.  An attribute path with a dot
#: names a method on a class; a bare name is a module-level function,
#: rebound wherever a ``repro`` module imported it.
TARGETS = (
    ("repro.traces.synthetic", "generate_workload", "traces.generate", None),
    ("repro.core.characterization", "characterize_chip", "core.characterize", None),
    ("repro.core.models", "SentinelModel.infer_sentinel_offset", "core.infer", None),
    ("repro.core.models", "SentinelModel.offsets_from_sentinel", "core.infer", None),
    ("repro.flash.chip", "FlashChip.__init__", "flash.build", None),
    ("repro.flash.block", "BlockColumns.__init__", "flash.build", None),
    ("repro.flash.block", "BlockColumns.read_page_batch", "flash.sense", _count_sense(3)),
    ("repro.flash.block", "BlockColumns.sense_regions_batch", "flash.sense", _count_sense(2)),
    ("repro.flash.block", "BlockColumns.sentinel_readout_batch", "flash.sense", _count_sense(2)),
    ("repro.flash.wordline", "Wordline.read_page", "flash.wordline_read", None),
    ("repro.flash.wordline", "Wordline.sentinel_readout", "flash.wordline_read", None),
    ("repro.flash.optimal", "optimal_offsets", "flash.optimal", None),
    ("repro.flash.optimal", "optimal_offset", "flash.optimal", None),
    ("repro.ecc.capability", "CapabilityEcc.decode_ok_batch", "ecc.decode", _count_decode_batch),
    ("repro.ecc.capability", "CapabilityEcc.decode_ok", "ecc.decode", _count_decode),
    ("repro.retry.policy", "ReadPolicy.read_batch", "retry.read", None),
    ("repro.retry.current_flash", "CurrentFlashPolicy.read", "retry.read", None),
    ("repro.retry.current_flash", "CurrentFlashPolicy.read_batch", "retry.read", None),
    ("repro.retry.adaptive", "AdaptiveRetryPolicy.read", "retry.read", None),
    ("repro.retry.adaptive", "AdaptiveRetryPolicy.read_batch", "retry.read", None),
    ("repro.retry.online_model", "OnlineModelPolicy.read", "retry.read", None),
    ("repro.retry.online_model", "OnlineModelPolicy.read_batch", "retry.read", None),
    ("repro.retry.oracle", "OraclePolicy.read", "retry.read", None),
    ("repro.retry.tracked_sentinel", "TrackedSentinelPolicy.read", "retry.read", None),
    ("repro.core.controller", "SentinelController.read", "retry.read", None),
    ("repro.ssd.retry_model", "RetryProfile.measure", "ssd.measure", _count_profile),
    ("repro.ssd.retry_model", "_measure_shard", "ssd.measure_shard", None),
    ("repro.ssd.ftl", "PageMappingFtl.write_ops", "ssd.ftl_write", None),
    ("repro.service.broker", "FlashReadService.run_prepared", "service.serve", _record_service),
    ("repro.service.voltage_cache", "VoltageOffsetCache.scrub_candidates", "service.scrub_scan", _count_scrub),
    ("repro.service.profiles", "SentinelHintFn.__call__", "service.hint", None),
    ("repro.replay.translate", "translate_trace", "replay.translate", None),
    ("repro.replay.translate", "_TranslateShardFn.__call__", "replay.translate_shard", None),
    ("repro.replay.frontend", "replay_trace", "replay.replay", None),
    ("repro.engine.parallel", "ParallelMap.run", "engine.run", None),
    ("repro.tournament.runner", "run_tournament", "tournament.run", None),
    ("repro.tournament.runner", "_run_cell", "tournament.cell", None),
    ("repro.tournament.runner", "measure_cell_profile", "tournament.measure", None),
    ("repro.tournament.runner", "measure_stress_profile", "tournament.measure_stress", None),
    ("repro.tournament.runner", "replay_cell_frontend", "tournament.replay", None),
    ("repro.campaign.runner", "run_campaign", "campaign.run", None),
    ("repro.campaign.runner", "_run_cell", "campaign.cell", None),
    ("repro.tournament.report", "TournamentReport.to_json", "report.to_json", None),
    ("repro.campaign.report", "CampaignReport.to_json", "report.to_json", None),
    ("repro.replay.report", "ReplayReport.to_json", "report.to_json", None),
    ("repro.service.report", "ServiceReport.to_json", "report.to_json", None),
)

#: a caller's import-time binding that gets its own span name, so the
#: same function is attributed to the layer that called it
BINDING_NAMES = {
    ("repro.campaign.runner", "measure_stress_profile"): "campaign.measure",
}


def _span_wrapper(tracer: Tracer, name: str, fn: Callable,
                  hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, index, args, kwargs, result)
        return result
    return wrapper


def _patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every target; rebind module-level functions everywhere."""
    originals: Dict[int, tuple] = {}
    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            _patch_method(
                getattr(module, cls_name), attr,
                lambda fn, n=name, h=hook: _span_wrapper(tracer, n, fn, h),
            )
        else:
            fn = getattr(module, path)
            originals[id(fn)] = (fn, name, hook)
    # counted, not timed: one call per simulated event scheduled
    queue = importlib.import_module("repro.ssd.events").EventQueue
    schedule = queue.schedule

    @functools.wraps(schedule)
    def counted_schedule(self, time, callback):
        tracer.counts["ssd.events"] += 1
        schedule(self, time, callback)

    queue.schedule = counted_schedule
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is None or entry[0] is not value:
                continue
            fn, name, hook = entry
            name = BINDING_NAMES.get((module_name, attr), name)
            setattr(module, attr, _span_wrapper(tracer, name, fn, hook))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: ``<metric>_s`` = inclusive time of the outermost spans with that name
INCLUSIVE = {
    "cli.import_s": "cli.import",
    "core.characterize_s": "core.characterize",
    "traces.generate_s": "traces.generate",
    "flash.build_s": "flash.build",
    "flash.sense_s": "flash.sense",
    "flash.wordline_read_s": "flash.wordline_read",
    "flash.optimal_s": "flash.optimal",
    "ecc.decode_s": "ecc.decode",
    "ssd.measure_s": "ssd.measure",
    "ssd.ftl_write_s": "ssd.ftl_write",
    "service.serve_s": "service.serve",
    "service.scrub_scan_s": "service.scrub_scan",
    "replay.translate_s": "replay.translate",
    "tournament.measure_s": "tournament.measure",
    "tournament.replay_s": "tournament.replay",
    "campaign.measure_s": "campaign.measure",
    "report.to_json_s": "report.to_json",
}

#: call counts of the outermost spans with that name
CALLS = {
    "flash.build_calls": "flash.build",
    "flash.wordline_read_calls": "flash.wordline_read",
    "flash.optimal_calls": "flash.optimal",
    "ssd.ftl_write_calls": "ssd.ftl_write",
    "service.scrub_scans": "service.scrub_scan",
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of one traced sample (see README.md)."""
    own = tracer.self_times()
    names = [tracer.span_name(i) for i in range(len(own))]
    parent = tracer.parent
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    campaign_serve = 0.0
    for i, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += own[i]
        if not tracer.outermost[i]:
            continue  # nested same-name span: counted by its outermost one
        inclusive[name] += tracer.t1[i] - tracer.t0[i]
        calls[name] += 1
        if name == "service.serve":
            p = parent[i]
            while p >= 0 and names[p] != "campaign.cell":
                p = parent[p]
            if p >= 0:
                campaign_serve += tracer.t1[i] - tracer.t0[i]
    wall = sum(tracer.t1[i] - tracer.t0[i]
               for i in range(len(own)) if parent[i] < 0)

    out: Dict[str, float] = {}
    for metric, span in INCLUSIVE.items():
        out[metric] = inclusive[span]
    for metric, span in CALLS.items():
        out[metric] = float(calls[span])
    out["campaign.serve_s"] = campaign_serve
    out["engine.overhead_s"] = sum(
        own[i] for i, n in enumerate(names) if n == "engine.run"
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]

    c = tracer.counts
    out["flash.sense_rows"] = c["flash.sense_rows"]
    out["ecc.decode_frames"] = c["ecc.decode_frames"]
    reads, first, senses = tracer.profile_rows
    out["ssd.measure_reads"] = float(reads)
    out["retry.first_try_frac"] = first / reads if reads else 0.0
    out["retry.senses_per_read"] = senses / reads if reads else 0.0
    scanned = c["service.scrub_entries_scanned"]
    out["service.scrub_entries_scanned"] = scanned
    out["service.scrub_refresh_per_scanned"] = (
        c["service.scrub_refreshed"] / scanned if scanned else 0.0
    )
    lookups = c["service.cache_lookups"]
    host = c["ssd.host_writes"]
    out["service.cache_lookups"] = lookups
    out["service.cache_hit_rate"] = (
        c["service.cache_hits"] / lookups if lookups else 0.0
    )
    out["service.batch_coalesced"] = c["service.batch_coalesced"]
    out["ssd.write_amplification"] = (
        (host + c["ssd.gc_writes"]) / host if host else 1.0
    )
    out["ssd.gc_erases"] = c["ssd.gc_erases"]
    events = c["ssd.events"]
    out["ssd.events"] = events
    out["ssd.host_us_per_event"] = (
        1e6 * out["service.serve_s"] / events if events else 0.0
    )
    out["trace.wall_s"] = wall
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric == "ssd.host_us_per_event":
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_rate", "_per_read", "_per_scanned",
                        "write_amplification")):
        return "ratio"
    return "count"
