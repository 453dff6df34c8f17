"""Per-client SLO monitoring: streaming event-time windows + percentiles.

The monitor is the accounting half of the serving layer: every admission,
shed, and completion lands here, keyed by client.  It produces

* per-client **p50/p99/p999 read latency** (via
  :class:`repro.ssd.metrics.LatencyStats`, which already rejects NaN/inf);
* a **streaming window series** — completions aggregated into fixed
  event-time windows *as they arrive* (:class:`StreamingWindows`), with a
  **watermark** that closes windows as event time advances.  A closed
  window emits one ``slo_window`` trace event (when tracing is on), which
  is what ``repro stats --follow`` renders live.  **Late arrivals** — an
  event timestamped inside an already-closed window — are *counted* (a
  ``late_arrivals`` counter plus the ``repro_slo_late_arrivals_total``
  metric) but never dropped: the data still merges into its window, so
  the final series is exact regardless of arrival order;
* ``repro.obs`` metrics (counters per client/op, a latency histogram) and
  the ``shed`` event kind when admission drops a request.

Everything is deterministic: windows are aligned to virtual time zero and
aggregation is order-stable, so for an in-order run the series is
byte-identical to the old post-hoc bucketing (the goldens pin this).
The broker's virtual clock never goes backwards, which is why in-simulation
runs report zero late arrivals — the machinery exists for event streams
that cross a merge boundary (sharded traces, external feeds; unit tests
exercise it directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import OBS
from repro.ssd.metrics import LatencyStats, p99_us


class StreamingWindows:
    """Incremental fixed-window event-time aggregation with a watermark.

    One instance per client.  ``observe(ts)`` buckets the event
    immediately; the watermark is the maximum event time seen, and every
    window whose end the watermark has passed is *closed* in index
    order (emitting one ``slo_window`` event each when tracing).
    Closed windows keep their data — a late arrival increments
    ``late_arrivals`` and still lands in its window, so ``series()`` is
    exact for any arrival order.
    """

    __slots__ = (
        "window_us", "client",
        "_counts", "_read_lats", "watermark_us", "closed_windows",
        "late_arrivals", "max_event_us",
    )

    def __init__(self, window_us: float, client: str = "") -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = window_us
        self.client = client
        self._counts: Dict[int, int] = {}
        self._read_lats: Dict[int, List[float]] = {}
        self.watermark_us = -math.inf
        #: windows 0..closed_windows-1 are closed (end <= watermark)
        self.closed_windows = 0
        self.late_arrivals = 0
        self.max_event_us: Optional[float] = None

    # ------------------------------------------------------------------
    def observe(
        self, ts_us: float, read_latency_us: Optional[float] = None
    ) -> None:
        """Bucket one completion; advance the watermark to its event time."""
        idx = int(ts_us // self.window_us)
        if idx < self.closed_windows:
            self.late_arrivals += 1
            if OBS.enabled and OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_slo_late_arrivals_total",
                    help="completions that arrived after their window "
                         "closed (counted, still merged)",
                    client=self.client,
                ).inc()
        self._counts[idx] = self._counts.get(idx, 0) + 1
        if read_latency_us is not None:
            self._read_lats.setdefault(idx, []).append(read_latency_us)
        if self.max_event_us is None or ts_us > self.max_event_us:
            self.max_event_us = ts_us
            self._advance(ts_us)

    def advance_to(self, ts_us: float) -> None:
        """Push the watermark from a time signal with no completion (the
        replay's progress tick, the broker's end-of-run horizon) so idle
        clients still close their trailing windows."""
        self._advance(ts_us)

    def _advance(self, watermark_us: float) -> None:
        if watermark_us <= self.watermark_us:
            return
        self.watermark_us = watermark_us
        target = int(watermark_us // self.window_us)
        while self.closed_windows < target:
            self._close(self.closed_windows)
            self.closed_windows += 1

    def _close(self, idx: int) -> None:
        if OBS.enabled and OBS.tracer.enabled:
            w = self.window_us
            OBS.tracer.emit(
                "slo_window",
                client=self.client,
                window_start_us=idx * w,
                window_end_us=(idx + 1) * w,
                completed=self._counts.get(idx, 0),
                iops=self._counts.get(idx, 0) / (w / 1e6),
                read_p99_us=p99_us(self._read_lats.get(idx, [])),
                late=self.late_arrivals,
            )
        if OBS.enabled and OBS.metrics.enabled:
            OBS.metrics.gauge(
                "repro_slo_watermark_us",
                help="event-time watermark of the streaming SLO windows",
                client=self.client,
            ).set(self.watermark_us)

    # ------------------------------------------------------------------
    def series(
        self, horizon_us: Optional[float] = None
    ) -> List[Dict[str, float]]:
        """The full window series (closed and still-open windows alike).

        Byte-identical to the historical post-hoc bucketing: windows align
        to virtual time zero, empty windows are kept (zeroed), and with
        ``horizon_us`` the zeroed tail extends to ``ceil(horizon / w)``
        windows (a horizon ending exactly on a boundary opens no window).
        """
        if self.max_event_us is None:
            return []
        w = self.window_us
        n_windows = int(self.max_event_us // w) + 1
        if horizon_us is not None and horizon_us > 0:
            n_windows = max(n_windows, int(math.ceil(horizon_us / w)))
        series = []
        for i in range(n_windows):
            series.append({
                "window_start_us": i * w,
                "iops": self._counts.get(i, 0) / (w / 1e6),
                "read_p99_us": p99_us(self._read_lats.get(i, [])),
            })
        return series


@dataclass
class ClientAccount:
    """Raw per-client accounting (latencies in microseconds)."""

    issued: int = 0
    completed: int = 0
    shed: int = 0
    #: completions served through the degraded fallback path (subset of
    #: ``completed``; zero in fault-free runs)
    degraded: int = 0
    read_latencies_us: List[float] = field(default_factory=list)
    write_latencies_us: List[float] = field(default_factory=list)
    #: streaming event-time window aggregation (set by the monitor, which
    #: knows the window width and client name)
    windows: Optional[StreamingWindows] = None

    @property
    def read_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.read_latencies_us)

    @property
    def write_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.write_latencies_us)


class SloMonitor:
    """Folds the broker's lifecycle callbacks into per-client SLO views."""

    def __init__(self, window_us: float = 250_000.0) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = window_us
        self.clients: Dict[str, ClientAccount] = {}
        #: client name -> tenant name; empty means no tenant dimension
        #: (the single-device case — reports then omit the section).  A
        #: client missing from a non-empty mapping is its own tenant.
        self.tenants: Dict[str, str] = {}

    def _account(self, client: str) -> ClientAccount:
        acct = self.clients.get(client)
        if acct is None:
            acct = ClientAccount()
            acct.windows = StreamingWindows(self.window_us, client=client)
            self.clients[client] = acct
        return acct

    # ------------------------------------------------------------------
    # lifecycle callbacks (broker-driven)
    # ------------------------------------------------------------------
    def record_issue(self, client: str) -> None:
        self._account(client).issued += 1

    def record_shed(self, client: str, now_us: float, is_read: bool) -> None:
        self._account(client).shed += 1
        if OBS.enabled:
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_service_shed_total",
                    help="requests dropped by admission control",
                    client=client,
                ).inc()
            if OBS.tracer.enabled:
                OBS.tracer.emit(
                    "shed", client=client, ts=now_us, read=is_read
                )

    def record_completion(
        self,
        client: str,
        now_us: float,
        latency_us: float,
        is_read: bool,
        degraded: bool = False,
    ) -> None:
        acct = self._account(client)
        acct.completed += 1
        if degraded:
            acct.degraded += 1
            if OBS.enabled and OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_faults_degraded_requests_total",
                    help="requests completed via the degraded read path",
                    client=client,
                ).inc()
        acct.windows.observe(
            now_us, read_latency_us=latency_us if is_read else None
        )
        if is_read:
            acct.read_latencies_us.append(latency_us)
        else:
            acct.write_latencies_us.append(latency_us)
        if OBS.enabled and OBS.metrics.enabled:
            m = OBS.metrics
            m.counter(
                "repro_service_requests_total",
                help="requests completed by the serving layer",
                client=client, op="read" if is_read else "write",
            ).inc()
            if is_read:
                m.histogram(
                    "repro_service_read_latency_us",
                    help="end-to-end read latency (admission to completion)",
                    client=client,
                ).observe(latency_us)

    # ------------------------------------------------------------------
    # watermark control
    # ------------------------------------------------------------------
    def advance_watermark(self, ts_us: float) -> None:
        """Advance every client's watermark to ``ts_us`` (a pure
        time-passing signal: replay ticks, end-of-run finalization).
        Clients are visited in sorted order so the emitted ``slo_window``
        stream is deterministic."""
        for name in sorted(self.clients):
            windows = self.clients[name].windows
            if windows is not None:
                windows.advance_to(ts_us)

    @property
    def late_arrivals(self) -> int:
        return sum(
            acct.windows.late_arrivals
            for acct in self.clients.values() if acct.windows is not None
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def window_series(
        self, client: str, horizon_us: Optional[float] = None
    ) -> List[Dict[str, float]]:
        """Fixed virtual-time windows: completions/s and read p99 each.

        Windows align to virtual time zero; empty windows are kept (zeroed)
        so the series length is the horizon in windows, not the activity.
        Without ``horizon_us`` the series only reaches the last completion,
        which silently drops trailing idle windows — callers that know the
        run's horizon (the broker's report does) must pass it so a client
        that went quiet still shows the zeroed tail."""
        acct = self.clients.get(client)
        if acct is None or acct.windows is None:
            return []
        return acct.windows.series(horizon_us)

    def summary(self, horizon_us: float) -> Dict[str, Dict[str, float]]:
        """JSON-ready per-client summary for the service report."""
        out: Dict[str, Dict[str, float]] = {}
        seconds = horizon_us / 1e6 if horizon_us > 0 else 0.0
        for name in sorted(self.clients):
            acct = self.clients[name]
            reads = acct.read_stats
            writes = acct.write_stats
            out[name] = {
                "issued": acct.issued,
                "completed": acct.completed,
                "shed": acct.shed,
                # only present once nonzero: fault-free summaries must stay
                # byte-identical to pre-resilience reports
                **({"degraded": acct.degraded} if acct.degraded else {}),
                "iops": acct.completed / seconds if seconds else 0.0,
                "read_count": reads.count,
                "read_mean_us": reads.mean_us,
                "read_p50_us": reads.median_us,
                "read_p99_us": reads.p99_us,
                "read_p999_us": reads.p999_us,
                "write_count": writes.count,
                "write_mean_us": writes.mean_us,
                "write_p99_us": writes.p99_us,
            }
        return out

    def tenant_summary(self, horizon_us: float) -> Dict[str, Dict[str, float]]:
        """Per-tenant rollup of the client accounts (empty without tenants).

        Latency percentiles are computed over the *concatenated* member
        samples (members visited in sorted client order, so the rollup is
        deterministic), not by averaging per-client percentiles.  The
        ``served + degraded + shed == offered`` identity holds per tenant
        because every member account already satisfies it."""
        if not self.tenants:
            return {}
        members: Dict[str, List[str]] = {}
        for client in sorted(self.clients):
            members.setdefault(self.tenants.get(client, client), []).append(
                client
            )
        seconds = horizon_us / 1e6 if horizon_us > 0 else 0.0
        out: Dict[str, Dict[str, float]] = {}
        for tenant in sorted(members):
            issued = completed = shed = degraded = 0
            read_lats: List[float] = []
            for client in members[tenant]:
                acct = self.clients[client]
                issued += acct.issued
                completed += acct.completed
                shed += acct.shed
                degraded += acct.degraded
                read_lats.extend(acct.read_latencies_us)
            reads = LatencyStats.from_samples(read_lats)
            out[tenant] = {
                "clients": len(members[tenant]),
                "offered": issued,
                "served": completed - degraded,
                "degraded": degraded,
                "shed": shed,
                "iops": completed / seconds if seconds else 0.0,
                "read_count": reads.count,
                "read_p50_us": reads.median_us,
                "read_p99_us": reads.p99_us,
                "read_p999_us": reads.p999_us,
            }
        return out
