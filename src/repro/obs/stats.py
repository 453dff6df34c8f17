"""Trace replay and aggregation: what ``python -m repro stats`` prints.

Folds an exported JSONL event stream (see :mod:`repro.obs.trace`) into one
:class:`Summary` per report section.  :data:`SUMMARIES` lists them in
render order; ``docs/OBSERVABILITY.md`` maps each section to the event
kinds it folds.  The first three are the views the paper's evaluation
keeps coming back to: the retry-count histogram (Figure 13), the
calibration-case breakdown (Case 1 undershoot vs. Case 2 overshoot) and
die/channel occupancy.

Events whose kind is not in :data:`repro.obs.trace.EVENT_KINDS` (a trace
written by a newer build, say) still count and render — they are listed in
the kind table and flagged in a summary line instead of crashing the
replay.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence
from typing import Tuple, Type, TypeVar

from repro.analysis.ascii_plot import bar_chart
from repro.analysis.report import format_table
from repro.obs.trace import EVENT_KINDS, TraceEvent, load_jsonl

_CASE_NAMES = {"case1": "case1 (undershoot: probe further)",
               "case2": "case2 (overshoot: probe back)"}


def _tally(counts: Mapping[Any, int], fmt: str = "{}={}") -> str:
    """``k=v, ...`` over ``counts`` in key order (``fmt`` shapes a pair)."""
    return ", ".join(fmt.format(k, v) for k, v in sorted(counts.items()))


def _snapshot(f: Mapping[str, Any], keys: Sequence[str]) -> Dict[str, float]:
    return {key: float(f.get(key, 0.0)) for key in keys}


def _paragraph(*lines: Any) -> str:
    """The truthy ``lines``, one per line (``cond and text`` drops out)."""
    return "\n".join(line for line in lines if line)


class Summary:
    """One ``repro stats`` section.

    ``fold`` sees every event whose kind is in ``kinds``; ``render``
    returns the section's text, or ``""`` to leave the section out.
    """

    kinds: Tuple[str, ...] = ()

    def fold(self, kind: str, f: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def render(self, width: int) -> str:
        raise NotImplementedError


@dataclass
class RetryHistogram(Summary):
    """Retries -> reads, from events that carry a read's retry total."""

    kinds = ("read_attempt", "read_complete")
    histogram: Counter = field(default_factory=Counter)

    def fold(self, kind, f):
        # chip-level read_attempt events are per attempt and carry no total
        retries = f.get("retries", 0 if kind == "read_complete" else None)
        if retries is not None:
            self.histogram[int(retries)] += 1

    @property
    def reads(self) -> int:
        return sum(self.histogram.values())

    @property
    def mean_retries(self) -> float:
        total = sum(k * v for k, v in self.histogram.items())
        return total / self.reads if self.reads else 0.0

    def render(self, width):
        if not self.histogram:
            return "retry-count histogram: no read events in trace"
        ks = range(min(self.histogram), max(self.histogram) + 1)
        return bar_chart(
            [str(k) for k in ks], [float(self.histogram[k]) for k in ks],
            width=width,
            title=(f"retry-count histogram ({self.reads} reads, "
                   f"mean {self.mean_retries:.2f} retries/read)"),
        )


@dataclass
class CalibrationCases(Summary):
    """Calibration steps by state-change diagnosis (Section III-C)."""

    kinds = ("calibration_step",)
    cases: Counter = field(default_factory=Counter)

    def fold(self, kind, f):
        self.cases[str(f.get("case", "unknown"))] += 1

    def render(self, width):
        if not self.cases:
            return "calibration-case breakdown: no calibration events"
        rows = [(_CASE_NAMES.get(case, case), count)
                for case, count in sorted(self.cases.items())]
        return format_table(rows, headers=["calibration case", "steps"],
                            title="calibration-case breakdown")


@dataclass
class Occupancy(Summary):
    """Busy us per die/channel against a horizon scrub passes advance too."""

    kinds = ("die_busy", "channel_busy", "scrub_pass")
    #: resource name -> cumulative busy microseconds
    busy_us: Dict[str, float] = field(default_factory=dict)
    horizon_us: float = 0.0

    def fold(self, kind, f):
        end = float(f.get("end", 0.0))
        if kind != "scrub_pass":
            name = str(f.get("resource", kind))
            busy = end - float(f.get("start", 0.0))
            self.busy_us[name] = self.busy_us.get(name, 0.0) + busy
        self.horizon_us = max(self.horizon_us, end)

    def utilization(self) -> Dict[str, float]:
        if self.horizon_us <= 0:
            return {name: 0.0 for name in self.busy_us}
        return {name: busy / self.horizon_us
                for name, busy in self.busy_us.items()}

    def render(self, width):
        if not self.busy_us:
            return ""
        util = self.utilization()
        rows = [(name, f"{busy:.0f}", f"{util[name]:.1%}")
                for name, busy in sorted(self.busy_us.items())]
        return format_table(
            rows, headers=["resource", "busy us", "utilization"],
            title=f"die/channel occupancy (horizon {self.horizon_us:.0f} us)",
        )


@dataclass
class Serving(Summary):
    """Voltage-cache lookups, scrub passes and sheds (:mod:`repro.service`)."""

    kinds = ("cache_hit", "cache_miss", "scrub_pass", "shed")
    counts: Counter = field(default_factory=Counter)  # kind -> events
    scrub_refreshed: int = 0
    shed_by_client: Counter = field(default_factory=Counter)

    def fold(self, kind, f):
        self.counts[kind] += 1
        if kind == "scrub_pass":
            self.scrub_refreshed += int(f.get("refreshed", 0))
        elif kind == "shed":
            self.shed_by_client[str(f.get("client", "unknown"))] += 1

    def render(self, width):
        hits, passes = self.counts["cache_hit"], self.counts["scrub_pass"]
        lookups = hits + self.counts["cache_miss"]
        if not (lookups or passes or self.shed_by_client):
            return ""
        rate = hits / lookups if lookups else 0.0
        shed = self.shed_by_client
        return _paragraph(
            "serving layer:",
            f"  voltage cache: {hits}/{lookups} hits ({rate:.1%})",
            f"  scrubber: {passes} passes, "
            f"{self.scrub_refreshed} entries refreshed",
            shed and f"  shed requests: {sum(shed.values())} ({_tally(shed)})",
        )


@dataclass
class Faults(Summary):
    """Injections, breaker trips and degraded reads (:mod:`repro.faults`)."""

    kinds = ("fault_injected", "breaker_trip", "degraded_read")
    by_kind: Counter = field(default_factory=Counter)
    trips_by_die: Counter = field(default_factory=Counter)
    degraded_by_reason: Counter = field(default_factory=Counter)

    def fold(self, kind, f):
        if kind == "fault_injected":
            self.by_kind[str(f.get("fault", "unknown"))] += 1
        elif kind == "breaker_trip":
            self.trips_by_die[int(f.get("die", -1))] += 1
        else:
            self.degraded_by_reason[str(f.get("reason", "unknown"))] += 1

    def render(self, width):
        trips, degraded = self.trips_by_die, self.degraded_by_reason
        if not (self.by_kind or trips or degraded):
            return ""
        return _paragraph(
            "faults:",
            f"  injected: {sum(self.by_kind.values())} "
            f"({_tally(self.by_kind) or 'none'})",
            trips and f"  breaker trips: {sum(trips.values())} "
                      f"({_tally(trips, 'die{}={}')})",
            degraded and f"  degraded reads: {sum(degraded.values())} "
                         f"({_tally(degraded)})",
        )


@dataclass
class Replay(Summary):
    """Batched die scheduling and progress ticks (:mod:`repro.replay`)."""

    kinds = ("batch_coalesce", "replay_tick")
    batches: int = 0
    coalesced_reads: int = 0
    max_size: int = 0
    batches_by_die: Counter = field(default_factory=Counter)
    ticks: int = 0
    last: Dict[str, float] = field(default_factory=dict)

    def fold(self, kind, f):
        if kind == "batch_coalesce":
            self.batches += 1
            size = int(f.get("size", 0))
            self.coalesced_reads += max(size - 1, 0)
            self.max_size = max(self.max_size, size)
            self.batches_by_die[int(f.get("die", -1))] += 1
        else:
            self.ticks += 1
            self.last = _snapshot(f, ("ts", "offered", "completed", "shed"))

    def render(self, width):
        if not (self.batches or self.ticks):
            return ""
        last = self.last
        return _paragraph(
            "trace replay:",
            self.batches and (
                f"  batched die scheduling: {self.batches} batches, "
                f"{self.coalesced_reads} reads coalesced (largest "
                f"{self.max_size}; {_tally(self.batches_by_die, 'die{}={}')})"
            ),
            self.ticks and (
                f"  progress ticks: {self.ticks} (last at "
                f"{last['ts']:.0f} us: {last['completed']:.0f}/"
                f"{last['offered']:.0f} done, {last['shed']:.0f} shed)"
            ),
        )


@dataclass
class Kernels(Summary):
    """Columnar kernel calls and time by kernel (:mod:`repro.flash.block`)."""

    kinds = ("batch_sense",)
    #: kernel name -> [calls, wordlines, kernel seconds]
    by_kernel: Dict[str, List[float]] = field(default_factory=dict)

    def fold(self, kind, f):
        entry = self.by_kernel.setdefault(str(f.get("kernel", "unknown")),
                                          [0, 0, 0.0])
        entry[0] += 1
        entry[1] += int(f.get("wordlines", 0))
        entry[2] += float(f.get("seconds", 0.0))

    def render(self, width):
        if not self.by_kernel:
            return ""
        rows = [(kernel, n, wl, f"{wl / n:.1f}", f"{seconds * 1e3:.1f}")
                for kernel, (n, wl, seconds) in sorted(self.by_kernel.items())]
        return format_table(rows, headers=["kernel", "calls", "wordlines",
                                           "wl/call", "total ms"],
                            title="columnar batched kernels")


@dataclass
class Spans(Summary):
    """Span time by name, root outcomes and the sentinel's saving."""

    kinds = ("span",)
    events: int = 0
    #: span name -> [count, total duration us]
    phase_us: Dict[str, List[float]] = field(default_factory=dict)
    outcomes: Counter = field(default_factory=Counter)
    saved_us: float = 0.0
    saved_reads: int = 0

    def fold(self, kind, f):
        self.events += 1
        dur = float(f.get("t1", 0.0)) - float(f.get("t0", 0.0))
        entry = self.phase_us.setdefault(str(f.get("name", "unknown")),
                                         [0, 0.0])
        entry[0] += 1
        entry[1] += dur
        if f.get("parent") is None:
            self.outcomes[str(f.get("outcome", "ok"))] += 1
        if f.get("saved_us") is not None:
            self.saved_us += float(f["saved_us"])
            self.saved_reads += 1

    def render(self, width):
        if not self.events:
            return ""
        rows = [(name, count, f"{total:.1f}", f"{total / count:.1f}")
                for name, (count, total) in sorted(
                    self.phase_us.items(), key=lambda item: -item[1][1])]
        return _paragraph(
            format_table(
                rows, headers=["span", "count", "total us", "mean us"],
                title=(f"request spans ({self.events} spans, "
                       f"outcomes: {_tally(self.outcomes) or 'none'})"),
            ),
            self.saved_reads and (
                f"  sentinel vs fallback-table estimate: saved "
                f"{self.saved_us:.1f} us over {self.saved_reads} reads"
            ),
            "  (per-request critical paths: `repro spans <trace>`)",
        )


@dataclass
class SloWindows(Summary):
    """Event-time SLO windows closed per client (:mod:`repro.service.slo`)."""

    kinds = ("slo_window",)
    closed: Counter = field(default_factory=Counter)
    #: client -> the last closed window's fields, cumulative late arrivals
    last: Dict[str, Tuple[Dict[str, float], int]] = field(
        default_factory=dict)

    def fold(self, kind, f):
        client = str(f.get("client", "unknown"))
        self.closed[client] += 1
        self.last[client] = (
            _snapshot(f, ("window_start_us", "completed", "iops",
                          "read_p99_us")),
            int(f.get("late", 0)),
        )

    def render(self, width):
        if not self.closed:
            return ""
        lines = ["streaming SLO windows (closed by watermark):"]
        for client in sorted(self.closed):
            last, late = self.last[client]
            lines.append(
                f"  {client}: {self.closed[client]} closed (last @ "
                f"{last['window_start_us']:.0f} us: "
                f"{last['completed']:.0f} done, {last['iops']:.0f} IOPS, "
                f"p99 {last['read_p99_us']:.0f} us; {late} late arrivals)"
            )
        return "\n".join(lines)


@dataclass
class Fleet(Summary):
    """Routes, warm starts and per-tenant SLO rollups (:mod:`repro.fleet`)."""

    kinds = ("fleet_dispatch", "cache_warm_start", "tenant_slo")
    dispatches: int = 0
    requests_routed: int = 0
    spilled: int = 0
    devices_by_tenant: Counter = field(default_factory=Counter)
    warm_starts: int = 0  # devices warm-started
    warm_entries: int = 0  # cache entries imported fleet-wide
    tenant_slo: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def fold(self, kind, f):
        if kind == "fleet_dispatch":
            self.dispatches += 1
            self.requests_routed += int(f.get("requests", 0))
            self.spilled += int(f.get("spilled", 0))
            self.devices_by_tenant[str(f.get("tenant", "unknown"))] += 1
        elif kind == "cache_warm_start":
            self.warm_starts += 1
            self.warm_entries += int(f.get("imported", 0))
        else:
            self.tenant_slo[str(f.get("tenant", "unknown"))] = _snapshot(
                f, ("offered", "served", "degraded", "shed", "read_p99_us"))

    def render(self, width):
        if not (self.dispatches or self.tenant_slo):
            return ""
        return _paragraph(
            "fleet:",
            self.dispatches and (
                f"  dispatch: {self.requests_routed} requests over "
                f"{self.dispatches} tenant-device routes "
                f"({self.spilled} spilled past affinity; devices per "
                f"tenant: {_tally(self.devices_by_tenant, '{}:{}')})"
            ),
            self.warm_starts and (
                f"  warm-start: {self.warm_starts} devices seeded "
                f"with {self.warm_entries} cache entries"
            ),
            *(f"  {tenant}: {t['served']:.0f} served + "
              f"{t['degraded']:.0f} degraded + {t['shed']:.0f} shed = "
              f"{t['offered']:.0f} offered "
              f"(read p99 {t['read_p99_us']:.0f} us)"
              for tenant, t in sorted(self.tenant_slo.items())),
        )


@dataclass
class _PolicyGrid(Summary):
    """Per-policy ``[n, sum retries/read, sum p99 us]`` over grid events."""

    unit = ""  # what one event is: "cells", "phases"
    title = ""
    by_policy: Dict[str, List[float]] = field(default_factory=dict)
    imbalanced: int = 0

    def fold(self, kind, f):
        entry = self.by_policy.setdefault(str(f.get("policy", "unknown")),
                                          [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += float(f.get("retries_per_read", 0.0))
        entry[2] += float(f.get("p99_us", 0.0))
        self.imbalanced += not f.get("balanced", True)

    def notes(self) -> List[str]:
        return []

    def render(self, width):
        if not self.by_policy:
            return ""
        rows = [(policy, n, f"{retries / n:.3f}", f"{p99 / n:.0f}")
                for policy, (n, retries, p99)
                in sorted(self.by_policy.items())]
        return _paragraph(
            format_table(rows, headers=["policy", self.unit,
                                        "mean retries/read", "mean p99 us"],
                         title=self.title),
            *self.notes(),
            self.imbalanced and (
                f"  WARNING: {self.imbalanced} {self.unit} broke "
                f"served + degraded + shed == offered"
            ),
        )


@dataclass
class Tournament(_PolicyGrid):
    """Policy tournament cells (:mod:`repro.tournament`)."""

    kinds = ("tournament_cell",)
    unit = "cells"
    title = "policy tournament"


@dataclass
class Campaign(_PolicyGrid):
    """Served campaign phases and the oldest age (:mod:`repro.campaign`)."""

    kinds = ("campaign_phase",)
    unit = "phases"
    title = "lifetime campaign"
    max_age_hours: float = 0.0

    def fold(self, kind, f):
        super().fold(kind, f)
        self.max_age_hours = max(self.max_age_hours,
                                 float(f.get("age_hours", 0.0)))

    def notes(self):
        return [f"  oldest device age: {self.max_age_hours:.0f} h"]


@dataclass
class Engine(Summary):
    """Fan-out runs, modes and pool utilization (:mod:`repro.engine`)."""

    kinds = ("shard_dispatch", "shard_merge")
    dispatches: int = 0
    shards: int = 0
    merges: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    merge_seconds: float = 0.0
    capacity_seconds: float = 0.0  # sum of workers * wall per run
    modes: Counter = field(default_factory=Counter)  # runs by mode
    labels: Counter = field(default_factory=Counter)  # runs by label

    def fold(self, kind, f):
        if kind == "shard_dispatch":
            self.dispatches += 1
            self.shards += int(f.get("shards", 0))
            self.modes[str(f.get("mode", "unknown"))] += 1
            self.labels[str(f.get("label", "engine"))] += 1
        else:
            self.merges += 1
            wall = float(f.get("wall_s", 0.0))
            self.wall_seconds += wall
            self.busy_seconds += float(f.get("busy_s", 0.0))
            self.merge_seconds += float(f.get("merge_s", 0.0))
            self.capacity_seconds += wall * float(f.get("workers", 1))

    @property
    def utilization(self) -> float:
        """Busy fraction of the dispatched worker-pool capacity."""
        if self.capacity_seconds <= 0:
            return 0.0
        return self.busy_seconds / self.capacity_seconds

    def render(self, width):
        if not self.dispatches:
            return ""
        return _paragraph(
            "parallel engine:",
            f"  runs: {self.dispatches} ({self.shards} shards; "
            f"{_tally(self.modes)})",
            f"  by label: {_tally(self.labels)}",
            f"  wall {self.wall_seconds:.3f}s, busy "
            f"{self.busy_seconds:.3f}s, merge {self.merge_seconds:.4f}s "
            f"(pool utilization {self.utilization:.1%})",
        )


@dataclass
class Counters(Summary):
    """The closing paragraph: fallback-table reads, ECC decodes and GC
    migrations (the unrecognized-kinds line joins it)."""

    kinds = ("fallback_table", "ecc_decode", "gc_migrate")
    fallback_reads: int = 0
    ecc_decodes: int = 0
    ecc_failures: int = 0
    gc_pages_migrated: int = 0

    def fold(self, kind, f):
        if kind == "fallback_table":
            self.fallback_reads += 1
        elif kind == "ecc_decode":
            self.ecc_decodes += 1
            self.ecc_failures += not f.get("decoded", True)
        else:
            self.gc_pages_migrated += int(f.get("migrated", 0))

    def render(self, width):
        return _paragraph(
            self.fallback_reads and (
                f"fallback-table reads: {self.fallback_reads}"),
            self.ecc_decodes and (
                f"ECC decodes: {self.ecc_decodes} "
                f"({self.ecc_failures} failed)"),
            self.gc_pages_migrated and (
                f"GC pages migrated: {self.gc_pages_migrated}"),
        )


#: Every ``repro stats`` section, in render order.  ``sentinel_inference``
#: is the one registered kind no section folds: the inferences show up
#: through the retry histogram of the reads they serve.
SUMMARIES: Tuple[Type[Summary], ...] = (
    RetryHistogram, CalibrationCases, Occupancy, Serving, Faults, Replay,
    Kernels, Spans, SloWindows, Fleet, Tournament, Campaign, Engine,
    Counters,
)

S = TypeVar("S", bound=Summary)


class TraceStats:
    """Aggregates of one event stream: the per-kind count table, the
    export trailer's truncation record, and one instance of each
    :data:`SUMMARIES` section."""

    def __init__(self) -> None:
        self.n_events = 0
        self.kind_counts: Counter = Counter()
        self.unknown_kinds: Counter = Counter()  # not in ``EVENT_KINDS``
        self.trace_dropped = self.trace_capacity = 0  # from ``trace_meta``
        self.sections = tuple(cls() for cls in SUMMARIES)
        self._by_kind: Dict[str, List[Summary]] = {}
        for section in self.sections:
            for kind in section.kinds:
                self._by_kind.setdefault(kind, []).append(section)

    def section(self, cls: Type[S]) -> S:
        """This stream's instance of the section class ``cls``."""
        return self.sections[SUMMARIES.index(cls)]


def aggregate(events: Iterable[TraceEvent]) -> TraceStats:
    """Fold an event stream into :class:`TraceStats`."""
    stats = TraceStats()
    for event in events:
        fold(stats, event)
    return stats


def fold(stats: TraceStats, event: TraceEvent) -> None:
    """Fold one event into ``stats`` (incremental form of ``aggregate``;
    ``repro stats --follow`` feeds events through here as the trace file
    grows)."""
    f = event.fields
    if event.kind == "trace_meta":
        # export trailer, not a simulation event: don't count it
        stats.trace_dropped = max(stats.trace_dropped,
                                  int(f.get("dropped", 0)))
        stats.trace_capacity = max(stats.trace_capacity,
                                   int(f.get("capacity", 0)))
        return
    stats.n_events += 1
    stats.kind_counts[event.kind] += 1
    if event.kind not in EVENT_KINDS:
        stats.unknown_kinds[event.kind] += 1
    for section in stats._by_kind.get(event.kind, ()):
        section.fold(event.kind, f)


def render(stats: TraceStats, width: int = 48) -> str:
    """Human-readable report of a :class:`TraceStats` (ASCII only)."""
    sections = [format_table(sorted(stats.kind_counts.items()),
                             headers=["event kind", "count"],
                             title=f"trace: {stats.n_events} events")]
    if stats.trace_dropped:
        sections.append(
            f"WARNING: ring buffer dropped {stats.trace_dropped} oldest "
            f"events (capacity {stats.trace_capacity}) — this trace is "
            f"truncated and every aggregate below undercounts early "
            f"activity"
        )
    sections += [section.render(width) for section in stats.sections]
    if stats.unknown_kinds:
        unknown = ("unrecognized event kinds (newer trace format?): "
                   + _tally(stats.unknown_kinds, "{} x{}"))
        # the line closes the last section's paragraph
        sections[-1] = _paragraph(sections[-1], unknown)
    return "\n\n".join(filter(None, sections))


def stats_from_jsonl(path: str) -> TraceStats:
    """Load + aggregate in one call (the ``repro stats`` entry point)."""
    return aggregate(load_jsonl(path))


def follow_stats(
    path: str,
    interval_s: float = 1.0,
    width: int = 48,
    max_updates: Optional[int] = None,
    out=None,
    clear: bool = True,
) -> int:
    """Live terminal view: re-render as the trace file grows.

    Pairs with a run started with ``--obs-trace PATH --obs-stream``: the
    tracer flushes each event to the file as it happens and this loop
    tails it, folding complete lines incrementally (a partial trailing
    line stays buffered until its newline arrives).  Corrupt lines are
    skipped rather than fatal — a live file can always be mid-write.
    Stops after ``max_updates`` renders (tests) or on Ctrl-C; returns 0.
    """
    import sys
    import time

    out = out if out is not None else sys.stdout
    stats, buf, fh, updates = TraceStats(), "", None, 0
    try:
        while True:
            if fh is None:
                try:
                    fh = open(path, "r", encoding="utf-8")
                except OSError:
                    pass  # not created yet: keep polling
            if fh is not None:
                # a partial trailing line waits for its newline
                *lines, buf = (buf + fh.read()).split("\n")
                for line in filter(None, map(str.strip, lines)):
                    try:
                        event = TraceEvent.from_json(line)
                    except (KeyError, ValueError):  # JSONDecodeError too
                        continue
                    fold(stats, event)
            if clear:
                out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            out.write(f"following {path} — {stats.n_events} events "
                      f"(Ctrl-C to stop)\n\n{render(stats, width=width)}\n")
            out.flush()
            updates += 1
            if max_updates is not None and updates >= max_updates:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
    finally:
        if fh is not None:
            fh.close()
