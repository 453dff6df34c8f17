"""Trace data model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass(frozen=True)
class TraceRequest:
    """One block-level I/O request."""

    time_s: float  # arrival time relative to trace start
    op: str  # "R" or "W"
    lba_bytes: int  # byte offset on the volume
    size_bytes: int

    def __post_init__(self) -> None:
        if self.op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {self.op!r}")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.lba_bytes < 0:
            raise ValueError("lba_bytes must be non-negative")

    @property
    def is_read(self) -> bool:
        return self.op == "R"


class Trace:
    """A sequence of requests in the order the source logged them.

    The request order is preserved, **not** sorted by ``time_s``: the
    published MSR volumes log requests in completion order, so slightly
    out-of-order arrival times are real data the parser deliberately
    keeps (:mod:`repro.traces.msr`).  Consumers that need arrival order
    (the replay frontends) sort locally; aggregate statistics here use
    min/max over ``time_s`` rather than positional first/last.

    ``meta`` carries parser-side accounting (e.g. the MSR reader's
    ``clamped_records`` count) that is about how the trace was *obtained*
    rather than the requests themselves.  Its scope is the parse that
    produced the trace; the constructor copies it, so no two traces
    share one.
    """

    def __init__(
        self,
        name: str,
        requests: Sequence[TraceRequest],
        meta: Optional[Dict[str, int]] = None,
    ) -> None:
        self.name = name
        self.requests: List[TraceRequest] = list(requests)
        self.meta: Dict[str, int] = dict(meta or {})

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterable[TraceRequest]:
        return iter(self.requests)

    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        """Trace span: max minus min arrival time.

        Positional first/last would under-report the span on
        completion-ordered traces, skewing every rate derived from it."""
        if not self.requests:
            return 0.0
        times = [r.time_s for r in self.requests]
        return max(times) - min(times)

    @property
    def read_fraction(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.is_read for r in self.requests) / len(self.requests)

    @property
    def total_read_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests if r.is_read)

    @property
    def total_write_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests if not r.is_read)

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self)} reqs over {self.duration_s:.1f}s, "
            f"{self.read_fraction:.0%} reads, "
            f"{self.total_read_bytes / 2**20:.1f} MiB read / "
            f"{self.total_write_bytes / 2**20:.1f} MiB written"
        )
