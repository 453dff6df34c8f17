"""Trace-driven replay: a parsed block trace through the serving layer.

``replay_trace`` is the glue the tentpole hangs on: it shards the pure
LBA translation over worker processes (:mod:`repro.replay.translate`),
turns the result into open-loop :class:`ServiceRequest` streams with
absolute virtual arrivals, and drives :meth:`FlashReadService.run_prepared`
with batched die scheduling optionally enabled — one sentinel inference
per coalesced (die, block, wordline) batch, the paper's amortization
argument under a real arrival process.

Determinism contract: the returned :class:`ReplayReport` serializes
byte-identically for any ``workers`` count, because only the
embarrassingly-parallel preprocessing is sharded — the event simulation
itself runs on one virtual clock.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.flash.spec import FlashSpec
from repro.obs import OBS
from repro.replay.report import ReplayReport
from repro.replay.translate import (
    LbaTranslator,
    service_requests,
    translate_trace,
)
from repro.service.broker import FlashReadService, ServiceConfig
from repro.service.report import request_accounting
from repro.ssd.config import SsdConfig
from repro.ssd.retry_model import RetryProfile
from repro.ssd.timing import NandTiming
from repro.traces.trace import Trace


#: virtual-time spacing of ``replay_tick`` progress events
TICK_INTERVAL_US = 250_000.0


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of the replay frontend (the broker keeps its own config)."""

    #: time compression: arrivals land at ``time_s * 1e6 / scale``
    scale: float = 1.0
    #: batched die scheduling (``repro.service.broker.BATCH_LIMIT`` reads
    #: per batch at most)
    batch_enabled: bool = False
    #: worker processes for the sharded translation preprocessing
    workers: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")


def replay_trace(
    trace: Trace,
    spec: FlashSpec,
    ssd_config: SsdConfig,
    timing: NandTiming,
    profiles: Dict[str, RetryProfile],
    seed: int = 0,
    config: Optional[ReplayConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    trace_prefix: str = "",
) -> ReplayReport:
    """Replay one trace against a fresh serving layer; return the report.

    ``config`` is the one setter of batching: a ``service_config`` that
    sets ``batch_enabled`` raises ``ValueError`` instead of being silently
    overridden.
    ``trace_prefix`` prefixes the broker's span trace ids."""
    cfg = config or ReplayConfig()
    svc_cfg = service_config or ServiceConfig()
    if svc_cfg.batch_enabled != ServiceConfig.batch_enabled:
        raise ValueError(
            "replay batching is set by ReplayConfig.batch_enabled, not by "
            "service_config"
        )
    client = trace.name

    translated, stats, _engine = translate_trace(
        trace,
        LbaTranslator(ssd_config.page_user_bytes, scale=cfg.scale),
        workers=cfg.workers,
    )
    requests = service_requests(translated, client)

    svc_cfg = replace(svc_cfg, batch_enabled=cfg.batch_enabled)
    service = FlashReadService(
        spec, ssd_config, timing, profiles, seed=seed, config=svc_cfg
    )
    service.trace_prefix = trace_prefix

    # Progress ticks: pre-scheduled snapshots of the accounting state in
    # virtual time.  Tracing-only, and clamped to the last arrival so the
    # report horizon (queue.now at drain) is untouched — the final
    # completion always lands at or after the final arrival.
    if requests and OBS.enabled and OBS.tracer.enabled:
        # traces preserve completion-log order, so arrivals are not
        # necessarily monotone — sort locally for the bisect snapshots
        arrivals = sorted(r.arrival_us for r in requests)
        last_arrival = arrivals[-1]

        def snapshot(ts: float) -> None:
            # push the SLO watermark so a client that went quiet still
            # closes its trailing windows mid-run (this is what makes
            # `repro stats --follow` show windows advancing live)
            service.slo.advance_watermark(ts)
            acct = service.slo.clients.get(client)
            completed = acct.completed if acct else 0
            shed = acct.shed if acct else 0
            OBS.tracer.emit(
                "replay_tick",
                ts=ts,
                offered=bisect_right(arrivals, ts),
                completed=completed,
                shed=shed,
            )

        tick = TICK_INTERVAL_US
        while tick <= last_arrival:
            service.queue.schedule(tick, lambda t=tick: snapshot(t))
            tick += TICK_INTERVAL_US

    service_report = service.run_prepared(
        {client: requests}, scenario=f"replay:{trace.name}"
    )

    offered = len(requests)
    accounting = request_accounting(
        offered,
        service_report.served_total,
        service_report.degraded_total,
        service_report.shed_total,
    )

    # Rate guards (trace.duration_s is 0 for <= 1 request; an empty trace
    # leaves the horizon at 0): degenerate denominators report 0, not a
    # ZeroDivisionError.
    duration_s = trace.duration_s
    scaled_duration_s = duration_s / cfg.scale
    offered_iops = offered / scaled_duration_s if scaled_duration_s > 0 else 0.0
    horizon_us = service_report.horizon_us
    completed_iops = (
        service_report.completed_total / (horizon_us / 1e6)
        if horizon_us > 0 else 0.0
    )

    if OBS.enabled and OBS.metrics.enabled:
        m = OBS.metrics
        m.counter(
            "repro_replay_requests_total",
            help="trace requests offered to the replay frontend",
            trace=trace.name, op="read",
        ).inc(stats["reads"])
        m.counter(
            "repro_replay_requests_total",
            help="trace requests offered to the replay frontend",
            trace=trace.name, op="write",
        ).inc(stats["writes"])
        m.counter(
            "repro_replay_clamped_records_total",
            help="sub-sector trace records clamped by the parser",
            trace=trace.name,
        ).inc(int(trace.meta.get("clamped_records", 0)))
        m.counter(
            "repro_replay_truncated_pages_total",
            help="pages cut from oversized requests by the translation cap",
            trace=trace.name,
        ).inc(stats["truncated_pages"])
        if cfg.batch_enabled:
            m.counter(
                "repro_replay_batches_total",
                help="batches formed by the batched die scheduler",
                trace=trace.name,
            ).inc(service.batch_stats["batches"])
            m.counter(
                "repro_replay_coalesced_reads_total",
                help="reads coalesced behind a batch leader",
                trace=trace.name,
            ).inc(service.batch_stats["coalesced_reads"])

    return ReplayReport(
        trace_name=trace.name,
        seed=seed,
        scale=cfg.scale,
        batch_enabled=cfg.batch_enabled,
        offered=offered,
        reads=stats["reads"],
        writes=stats["writes"],
        read_pages=stats["read_pages"],
        write_pages=stats["write_pages"],
        clamped_records=int(trace.meta.get("clamped_records", 0)),
        truncated_pages=stats["truncated_pages"],
        trace_duration_s=duration_s,
        horizon_us=horizon_us,
        offered_iops=offered_iops,
        completed_iops=completed_iops,
        accounting=accounting,
        service=json.loads(service_report.to_json()),
    )
