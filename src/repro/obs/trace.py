"""Structured event tracer: typed events in a ring buffer, JSONL in/out.

Every interesting transition of the read/retry/SSD pipeline emits one
:class:`TraceEvent` — a kind from :data:`EVENT_KINDS` plus free-form
scalar fields.  Events land in a bounded ring buffer (``collections.deque``
with ``maxlen``), so a long simulation cannot exhaust memory; the newest
events win.  ``export_jsonl``/``load_jsonl`` round-trip the buffer through
one-JSON-object-per-line files, the format ``python -m repro stats``
replays.

The event schema (each kind's emitting site and fields) and the
``repro stats`` section each kind feeds are tabled once, in
``docs/OBSERVABILITY.md``; ``tests/test_obs.py`` checks that every kind in
:data:`EVENT_KINDS` has a row there.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, TextIO

#: The closed set of event kinds; ``emit`` rejects anything else so field
#: typos surface immediately instead of producing unparseable traces.
EVENT_KINDS = frozenset(
    {
        "read_attempt",
        "read_complete",
        "sentinel_inference",
        "calibration_step",
        "fallback_table",
        "ecc_decode",
        "gc_migrate",
        "die_busy",
        "channel_busy",
        # serving layer (repro.service)
        "cache_hit",
        "cache_miss",
        "scrub_pass",
        "shed",
        # parallel engine (repro.engine)
        "shard_dispatch",
        "shard_merge",
        # fault injection + resilience (repro.faults, hardened broker)
        "fault_injected",
        "breaker_trip",
        "degraded_read",
        # trace replay (repro.replay, batched die scheduling)
        "batch_coalesce",
        "replay_tick",
        # columnar batched kernels (repro.flash.block)
        "batch_sense",
        # causal span trees (repro.obs.spans)
        "span",
        # streaming event-time SLO windows (repro.service.slo)
        "slo_window",
        # fleet simulation (repro.fleet)
        "fleet_dispatch",
        "tenant_slo",
        "cache_warm_start",
        # policy tournament (repro.tournament)
        "tournament_cell",
        # lifetime campaigns (repro.campaign)
        "campaign_phase",
        # export trailer written by ``export_jsonl``
        "trace_meta",
    }
)

DEFAULT_CAPACITY = 1_000_000


@dataclass
class TraceEvent:
    """One structured event: a monotone sequence number, a kind, fields."""

    seq: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"seq": self.seq, "kind": self.kind, **self.fields}
        return json.dumps(payload, default=_json_default, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        payload = json.loads(line)
        seq = int(payload.pop("seq"))
        kind = str(payload.pop("kind"))
        return cls(seq=seq, kind=kind, fields=payload)


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars/arrays without importing numpy eagerly."""
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(obj)


class EventTracer:
    """Bounded in-memory event sink.

    When ``enabled`` is False, ``emit`` is still safe to call but callers
    are expected to guard on the flag first — the whole point is that the
    disabled hot path pays one attribute load, not a function call.
    """

    def __init__(
        self, enabled: bool = False, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0  # events evicted by the ring bound
        #: called once per evicted event (``repro.obs`` wires this to the
        #: ``repro_obs_trace_dropped_total`` counter)
        self.on_drop: Optional[Callable[[], None]] = None
        self._stream: Optional[TextIO] = None

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; one of {sorted(EVENT_KINDS)}"
            )
        if len(self._events) == self.capacity:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop()
        event = TraceEvent(self._seq, kind, fields)
        self._events.append(event)
        self._seq += 1
        if self._stream is not None:
            self._stream.write(event.to_json())
            self._stream.write("\n")
            self._stream.flush()

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def stream_to(self, path: str) -> None:
        """Additionally write every subsequent event to ``path`` live.

        The companion of ``repro stats --follow``: the file grows (and is
        flushed) event by event, so a second process can tail it while the
        run is still going.  The ring buffer is unaffected — a final
        ``export_jsonl`` to the same path rewrites identical content plus
        the ``trace_meta`` trailer."""
        self.close_stream()
        self._stream = open(path, "w", encoding="utf-8")

    def close_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def export_jsonl(
        self, path: str, kinds: Optional[Iterable[str]] = None,
        meta: bool = True,
    ) -> int:
        """Write the buffer as JSON Lines; returns the event count.

        ``kinds`` restricts the export to a subset of event kinds (the
        ``--obs-spans`` flag exports only ``span`` events this way).  With
        ``meta`` (the default) one ``trace_meta`` trailer line records the
        drop count and capacity, so downstream readers can tell a complete
        trace from one truncated by the ring bound."""
        wanted = frozenset(kinds) if kinds is not None else None
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._events:
                if wanted is not None and event.kind not in wanted:
                    continue
                fh.write(event.to_json())
                fh.write("\n")
                n += 1
            if meta:
                trailer = {
                    "seq": self._seq,
                    "kind": "trace_meta",
                    "dropped": self.dropped,
                    "capacity": self.capacity,
                    "events": n,
                }
                fh.write(json.dumps(trailer, sort_keys=True))
                fh.write("\n")
        return n


def load_jsonl(path: str) -> List[TraceEvent]:
    """Read back a trace exported by :meth:`EventTracer.export_jsonl`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events
