"""The lifetime campaign runner: devices aging while they serve.

One **cell** is one device living through the full campaign lifetime
under a (policy x P/E schedule x environment x workload) grid point.
Unlike the tournament — whose cells replay one frozen age preset — a
campaign cell keeps **one persistent serving broker** across every phase,
so the voltage cache, scrubber, circuit breakers, FTL and GC carry their
state forward while the flash underneath drifts:

1. advance the device's :class:`StressState` across the phase's slice of
   lifetime — retention composes piecewise over the environment's
   ``env.temperature_step`` windows (the Arrhenius-equivalent composition
   of ``with_retention``), cumulative P/E comes from the named wear
   schedule, read disturb from the reads the broker actually served;
2. re-measure the cold/warm retry profiles on the aged evaluation block
   and swap them into the broker (``service.profiles``);
3. bump every block's erase baseline (``age_blocks``) so the voltage
   cache's erase invalidation sees the wear; drop the cache entirely
   when an ``env.power_loss`` window elapsed (volatile state);
4. replay the workload as a fresh open-loop client (``workload#pN``)
   scheduled after the previous phase's horizon — virtual time never
   rewinds — and score the phase from the broker's per-client accounting
   and retry-histogram deltas.

Cells shard over :class:`repro.engine.ParallelMap`: a worker receives one
(policy, schedule, environment, workload) grid point and ``_run_cell``
bound by :func:`functools.partial` to the frozen :class:`CampaignConfig`,
the seed and the fitted sentinel model.  Cells merge in canonical grid
order; all observability (``campaign_phase`` events,
``repro_campaign_*`` metrics) is emitted parent-side after the merge, so
the :class:`CampaignReport` JSON is byte-identical at any ``--workers``.
Every phase of every cell measures the same evaluation block, so the
grid runs inside :func:`repro.flash.block.shared_cells`: each process
draws the block's cells once and re-synthesizes them per phase.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.config import (
    END_PE,
    INTER_PHASE_GAP_US,
    CampaignConfig,
    environment_plan,
    pe_at,
    power_loss_count,
    temperature_segments,
)
from repro.campaign.report import CampaignReport
from repro.engine import ParallelMap
from repro.flash.block import shared_cells
from repro.flash.mechanisms import StressState
from repro.obs import OBS
from repro.service.report import request_accounting
from repro.tournament import (
    POLICY_ALIASES,
    cell_spec,
    measure_stress_profile,
    tournament_model,
)

#: policies whose serving path benefits from cached sentinel offsets —
#: their warm profile is measured with the scrubber's hint; every other
#: policy prices cache hits exactly like misses (warm == cold)
HINTED_POLICIES = frozenset({"sentinel", "tracking+sentinel"})


def _run_cell(
    cfg: CampaignConfig, seed: int, model, point: Tuple[str, str, str, str]
) -> Dict[str, Any]:
    """One campaign cell, birth to end of life; returns its scorecard."""
    from repro.replay.translate import (
        LbaTranslator,
        service_requests,
        translate_trace,
    )
    from repro.service.broker import FlashReadService
    from repro.service.profiles import COLD, WARM, SentinelHintFn
    from repro.ssd.config import SsdConfig
    from repro.ssd.timing import NandTiming
    from repro.traces.synthetic import MSR_WORKLOADS, generate_workload

    policy, schedule, environment, workload = point
    kind = cfg.kind.lower()
    canonical = POLICY_ALIASES[policy]
    spec = cell_spec(kind, cfg.cells_per_wordline)
    ssd_config = SsdConfig.for_spec(
        spec, channels=2, dies_per_channel=2, blocks_per_die=64
    )
    timing = NandTiming()
    plan = environment_plan(environment, cfg.lifetime_hours)
    hint_fn = SentinelHintFn(model) if canonical in HINTED_POLICIES else None

    # the workload is translated once; each phase replays the same request
    # stream as a fresh client offset past the previous phase's horizon
    trace = generate_workload(
        MSR_WORKLOADS[workload], n_requests=cfg.requests_per_phase, seed=seed
    )
    translated, _stats, _engine = translate_trace(
        trace, LbaTranslator(ssd_config.page_user_bytes, scale=cfg.scale)
    )

    end_pe = END_PE[kind]
    stress = StressState()
    read_count = 0
    service: Optional[FlashReadService] = None
    prev_reads = 0
    prev_retries = 0
    phase_rows: List[Dict[str, Any]] = []

    for p in range(1, cfg.phases + 1):
        h0 = cfg.lifetime_hours * (p - 1) / cfg.phases
        h1 = cfg.lifetime_hours * p / cfg.phases
        # 1. age: piecewise retention over the environment's temperature
        # windows, then the schedule's cumulative wear and the read
        # disturb the broker actually generated
        for hours, temp_c in temperature_segments(plan, h0, h1):
            stress = stress.with_retention(hours, temperature_c=temp_c)
        pe = pe_at(schedule, p, cfg.phases, end_pe)
        stress = replace(stress, pe_cycles=pe, read_count=read_count)

        # 2. re-measure the drifted retry profiles and swap them in
        prefix = f"{canonical}/{schedule}/{environment}/{workload}/{p}/"
        cold = measure_stress_profile(
            policy, kind, stress, cfg.cells_per_wordline,
            cfg.sentinel_ratio, cfg.wordline_step, model,
            trace_prefix=f"{prefix}cold/",
        )
        warm = cold
        if hint_fn is not None:
            warm = measure_stress_profile(
                policy, kind, stress, cfg.cells_per_wordline,
                cfg.sentinel_ratio, cfg.wordline_step, model,
                hint_fn=hint_fn, trace_prefix=f"{prefix}warm/",
            )
        if service is None:
            service = FlashReadService(
                spec, ssd_config, timing, {COLD: cold, WARM: warm},
                seed=seed,
            )
            service.trace_prefix = f"{canonical}/{schedule}/{environment}/"
        else:
            service.profiles = {COLD: cold, WARM: warm}

        # 3. wear + environment events on the persistent broker: the
        # erase baseline moves (the cache's erase invalidation), and an
        # elapsed power-loss window drops the volatile cache outright
        service.age_blocks(pe)
        flushed = 0
        if power_loss_count(plan, h0, h1):
            flushed = service.cache.flush()

        # 4. serve this phase as a fresh open-loop client, strictly
        # after everything already on the virtual clock
        client = f"{workload}#p{p}"
        start_us = service.queue.now + INTER_PHASE_GAP_US
        requests = service_requests(translated, client, start_us)
        report = service.run_prepared(
            {client: requests},
            scenario=f"campaign:{canonical}:p{p}",
        )

        summary = report.clients[client]
        degraded = int(summary.get("degraded", 0))
        hist_reads = sum(service.retry_histogram.values())
        hist_retries = sum(
            k * v for k, v in service.retry_histogram.items()
        )
        phase_reads = hist_reads - prev_reads
        phase_retries = hist_retries - prev_retries
        prev_reads, prev_retries = hist_reads, hist_retries
        read_count += phase_reads

        phase_rows.append({
            "phase": p,
            "age_hours": h1,
            "pe_cycles": pe,
            "retention_hours": stress.retention_hours,
            "temperature_c": stress.temperature_c,
            "read_count": read_count,
            "power_loss_flushed": flushed,
            # the aging signal: the freshly measured cold profile
            "retries_per_read": cold.mean_retries(),
            "warm_retries_per_read": warm.mean_retries(),
            # the served signal: broker histogram deltas (cache-warmed)
            "served_reads": phase_reads,
            "served_retries_per_read": (
                phase_retries / phase_reads if phase_reads else 0.0
            ),
            **request_accounting(
                len(requests),
                int(summary.get("completed", 0)) - degraded,
                degraded,
                int(summary.get("shed", 0)),
            ),
            "p99_us": float(summary.get("read_p99_us", 0.0)),
        })

    totals = {
        key: sum(int(row[key]) for row in phase_rows)
        for key in ("offered", "served", "degraded", "shed")
    }
    return {
        "policy": canonical,
        "schedule": schedule,
        "environment": environment,
        "workload": workload,
        "kind": kind,
        "end_pe": end_pe,
        "phases": phase_rows,
        **totals,
        "balanced": all(row["balanced"] for row in phase_rows),
        "final_retries_per_read": phase_rows[-1]["retries_per_read"],
        "final_p99_us": phase_rows[-1]["p99_us"],
        "cache": service.cache.stats() if service is not None else {},
    }


def _emit_cell_obs(cell: Dict[str, Any]) -> None:
    if not OBS.enabled:
        return
    labels = {
        "policy": cell["policy"],
        "schedule": cell["schedule"],
        "environment": cell["environment"],
        "workload": cell["workload"],
    }
    for row in cell["phases"]:
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_campaign_phases_total",
                help="lifetime campaign phases served",
                policy=cell["policy"],
            ).inc()
            OBS.metrics.gauge(
                "repro_campaign_retries_per_read",
                help="cold retries/read measured at one campaign phase",
                phase=row["phase"], **labels,
            ).set(row["retries_per_read"])
            OBS.metrics.gauge(
                "repro_campaign_p99_us",
                help="served read p99 latency of one campaign phase",
                phase=row["phase"], **labels,
            ).set(row["p99_us"])
        if OBS.tracer.enabled:
            OBS.tracer.emit(
                "campaign_phase",
                phase=row["phase"],
                age_hours=float(row["age_hours"]),
                pe_cycles=int(row["pe_cycles"]),
                retries_per_read=float(row["retries_per_read"]),
                p99_us=float(row["p99_us"]),
                balanced=bool(row["balanced"]),
                **labels,
            )
    if OBS.metrics.enabled:
        OBS.metrics.counter(
            "repro_campaign_cells_total",
            help="lifetime campaign cells completed",
            policy=cell["policy"],
        ).inc()


def run_campaign(
    config: Optional[CampaignConfig] = None, seed: int = 0
) -> CampaignReport:
    """Age the configured grid through its lifetime; return the report."""
    cfg = config or CampaignConfig()
    kind = cfg.kind.lower()
    model = tournament_model(kind, cfg.cells_per_wordline, cfg.sentinel_ratio)
    points = [
        (policy, schedule, environment, workload)
        for policy in cfg.policies
        for schedule in cfg.schedules
        for environment in cfg.environments
        for workload in cfg.workloads
    ]
    engine = ParallelMap(workers=cfg.workers)
    with shared_cells():
        cells: List[Dict[str, Any]] = engine.run(
            partial(_run_cell, cfg, seed, model), points, label="campaign"
        )
    for cell in cells:
        _emit_cell_obs(cell)
    return CampaignReport(
        kind=kind,
        seed=seed,
        lifetime_hours=cfg.lifetime_hours,
        phase_count=cfg.phases,
        cells_per_wordline=cfg.cells_per_wordline,
        sentinel_ratio=cfg.sentinel_ratio,
        requests_per_phase=cfg.requests_per_phase,
        wordline_step=cfg.wordline_step,
        policies=[POLICY_ALIASES[p] for p in cfg.policies],
        schedules=list(cfg.schedules),
        environments=list(cfg.environments),
        workloads=list(cfg.workloads),
        cells=cells,
    )
