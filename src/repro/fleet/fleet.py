"""The fleet runner: many devices, many tenants, one deterministic report.

A fleet is ``n_devices`` independent :class:`FlashReadService` + SSD
instances, each rooted at its own ``(seed, "fleet", "device", index)``
branch of the seed tree, serving the request streams the dispatcher
routed to it (:mod:`repro.fleet.dispatcher`).  Devices are grouped into
**cohorts** by (layer count, P/E age) — drives of the same geometry and
wear share process characteristics the way wordlines of one layer do —
and cross-device learning runs per cohort:

1. **seed phase** — the lowest-indexed device of every cohort runs cold
   and exports its voltage-offset cache
   (:meth:`VoltageOffsetCache.export_state`);
2. **fleet phase** — every other device warm-starts from its cohort's
   exported state (:meth:`warm_start`) before serving, so its first read
   of a known (die, block, layer) already hits the warm retry profile.

Both phases fan out over :mod:`repro.engine` with one task per device: a
worker receives one device's job (identity, routed streams, cohort cache
state) and ``_run_device`` bound by :func:`functools.partial` to the
frozen :class:`FleetConfig`.  Results merge in device-index order, and
the :class:`FleetReport` carries no wall-clock quantity — its JSON is
byte-identical at any ``--workers`` count.  Fleet events
(``fleet_dispatch``/``cache_warm_start``/``tenant_slo``) and
``repro_fleet_*`` metrics are emitted parent-side *after* the merge, in
canonical order, so the observable stream is worker-invariant too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import ParallelMap
from repro.exp.common import sim_spec
from repro.fleet.dispatcher import (
    DispatchPlan,
    default_tenants,
    device_seed,
    dispatch,
    tenant_seed,
)
from repro.fleet.report import FleetReport
from repro.obs import OBS
from repro.service.broker import FlashReadService, ServiceConfig
from repro.service.profiles import synthetic_profiles
from repro.service.report import ServiceReport, request_accounting
from repro.service.workload import generate_requests
from repro.ssd.config import SsdConfig
from repro.ssd.metrics import LatencyStats, p99_us
from repro.ssd.timing import NandTiming

#: P/E ages devices cycle through (device i gets age i mod len); one
#: cohort per distinct age (layer count is fixed by the spec)
PE_COHORTS = (1000, 3000)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet shape, workload intensity, and warm-start switches."""

    n_devices: int = 8
    n_tenants: int = 4
    workers: int = 1
    requests_per_tenant: int = 200
    read_fraction: float = 0.9
    mean_iops: float = 2000.0
    footprint_pages: int = 1024
    warm_start: bool = True
    kind: str = "tlc"
    cells_per_wordline: int = 4096

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("n_devices must be positive")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be positive")
        if self.requests_per_tenant < 1:
            raise ValueError("requests_per_tenant must be positive")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DeviceJob:
    """One device's identity, workload share, and warm-start input."""

    index: int
    seed: int
    pe_age: int
    cohort: str
    #: (tenant, requests) in sorted tenant order — the broker's client map
    streams: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    #: the cohort's exported cache state (fleet phase with warm-start on)
    cohort_state: Optional[Dict[str, Any]]
    #: seed phase: export the cache after the run for the cohort
    collect_export: bool


@dataclass(frozen=True)
class _DeviceResult:
    """What one device run sends back across the merge boundary."""

    index: int
    report: ServiceReport
    export: Optional[Dict[str, Any]]
    imported: int
    #: (tenant, read latencies) so the fleet computes *exact* percentiles
    #: over concatenated samples instead of averaging device percentiles
    read_latencies: Tuple[Tuple[str, Tuple[float, ...]], ...]


def _device_ssd_config() -> SsdConfig:
    return SsdConfig(
        channels=2, dies_per_channel=2, blocks_per_die=64, pages_per_block=64
    )


def _run_device(config: FleetConfig, job: _DeviceJob) -> _DeviceResult:
    """Simulate one device end to end (deterministic in the job alone)."""
    spec = sim_spec(config.kind, cells_per_wordline=config.cells_per_wordline)
    service = FlashReadService(
        spec,
        _device_ssd_config(),
        NandTiming(),
        synthetic_profiles(config.kind),
        seed=job.seed,
        config=ServiceConfig(),
    )
    service.age_blocks(job.pe_age)
    imported = 0
    if job.cohort_state is not None:
        imported = service.warm_start_cache(job.cohort_state)
    all_requests = {tenant: list(reqs) for tenant, reqs in job.streams}
    report = service.run_prepared(
        all_requests,
        scenario=f"fleet:device-{job.index:03d}",
        tenants={tenant: tenant for tenant in all_requests},
    )
    export = service.export_cache_state() if job.collect_export else None
    read_latencies = tuple(
        (name, tuple(service.slo.clients[name].read_latencies_us))
        for name in sorted(service.slo.clients)
    )
    return _DeviceResult(
        index=job.index,
        report=report,
        export=export,
        imported=imported,
        read_latencies=read_latencies,
    )


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def run_fleet(config: FleetConfig, seed: int = 0) -> FleetReport:
    """Run the whole fleet; byte-identical JSON at any worker count."""
    spec = sim_spec(config.kind, cells_per_wordline=config.cells_per_wordline)
    tenant_specs = default_tenants(
        config.n_tenants,
        n_requests=config.requests_per_tenant,
        read_fraction=config.read_fraction,
        mean_iops=config.mean_iops,
        footprint_pages=config.footprint_pages,
    )
    streams = {
        t.name: generate_requests(t, seed=tenant_seed(seed, t.name))
        for t in tenant_specs
    }
    plan = dispatch(streams, config.n_devices)

    # cohort assignment: device i ages PE_COHORTS[i mod len]; one cohort
    # per distinct (layers, P/E age); lowest member index seeds the cohort
    cohort_of: Dict[int, Tuple[str, int]] = {}
    members: Dict[str, List[int]] = {}
    for i in range(config.n_devices):
        pe = PE_COHORTS[i % len(PE_COHORTS)]
        label = f"L{spec.layers}-PE{pe}"
        cohort_of[i] = (label, pe)
        members.setdefault(label, []).append(i)
    cohort_seed_device = {label: idx[0] for label, idx in members.items()}
    seed_indices = sorted(cohort_seed_device.values())

    def make_job(
        index: int, state: Optional[Dict[str, Any]], collect: bool
    ) -> _DeviceJob:
        label, pe = cohort_of[index]
        return _DeviceJob(
            index=index,
            seed=device_seed(seed, index),
            pe_age=pe,
            cohort=label,
            streams=tuple(
                (tenant, tuple(reqs))
                for tenant, reqs in plan.per_device[index].items()
            ),
            cohort_state=state,
            collect_export=collect,
        )

    engine = ParallelMap(workers=config.workers)
    run_device = partial(_run_device, config)
    results: Dict[int, _DeviceResult] = {}

    # phase 1: cohort seed devices run cold (and export when warm-start on)
    jobs = [make_job(i, None, config.warm_start) for i in seed_indices]
    for res in engine.run(run_device, jobs, label="fleet-seed"):
        results[res.index] = res

    cohort_state: Dict[str, Dict[str, Any]] = {}
    if config.warm_start:
        for label in sorted(members):
            export = results[cohort_seed_device[label]].export
            cohort_state[label] = export if export is not None else {}

    # phase 2: the rest of the fleet, warm-started from cohort history
    rest = [i for i in range(config.n_devices) if i not in set(seed_indices)]
    jobs = [
        make_job(
            i,
            cohort_state.get(cohort_of[i][0]) if config.warm_start else None,
            False,
        )
        for i in rest
    ]
    if jobs:
        for res in engine.run(run_device, jobs, label="fleet-run"):
            results[res.index] = res

    ordered = [results[i] for i in range(config.n_devices)]
    report = _build_report(
        config, seed, spec.layers, streams, plan, ordered,
        cohort_of, members, cohort_seed_device, cohort_state,
    )
    _emit_fleet_obs(report)
    return report


def _build_report(
    config: FleetConfig,
    seed: int,
    layers: int,
    streams: Dict[str, List[Any]],
    plan: DispatchPlan,
    ordered: List[_DeviceResult],
    cohort_of: Dict[int, Tuple[str, int]],
    members: Dict[str, List[int]],
    cohort_seed_device: Dict[str, int],
    cohort_state: Dict[str, Dict[str, Any]],
) -> FleetReport:
    """Fold per-device results (canonical order) into the fleet report."""
    seed_set = set(cohort_seed_device.values())
    devices_out: List[Dict[str, Any]] = []
    retry_hist: Dict[str, int] = {}
    horizon = 0.0
    group_lats: Dict[str, List[float]] = {"cold": [], "warm": []}
    group_retries: Dict[str, List[int]] = {"cold": [0, 0], "warm": [0, 0]}
    warm_hits = warm_expired = warm_imported = warm_devices = 0

    for res in ordered:
        rep = res.report
        label, pe = cohort_of[res.index]
        all_lats = [x for _, samples in res.read_latencies for x in samples]
        stats = LatencyStats.from_samples(all_lats)
        warm_role = config.warm_start and res.index not in seed_set
        role = "seed" if res.index in seed_set else (
            "warm" if warm_role else "cold"
        )
        group = "warm" if warm_role else "cold"
        group_lats[group].extend(all_lats)
        group_retries[group][0] += rep.pages_read
        group_retries[group][1] += sum(
            k * v for k, v in rep.retry_histogram.items()
        )
        if warm_role:
            warm_devices += 1
            warm_imported += res.imported
            warm_hits += int(rep.cache.get("warm_hits", 0))
            warm_expired += int(rep.cache.get("warm_expired", 0))
        devices_out.append({
            "index": res.index,
            "cohort": label,
            "role": role,
            "pe_age": pe,
            "horizon_us": rep.horizon_us,
            "pages_read": rep.pages_read,
            "mean_retries_per_read": rep.mean_retries_per_read,
            "die_utilization": rep.die_utilization,
            "cache_hit_rate": float(rep.cache.get("hit_rate", 0.0)),
            "warm_imported": res.imported,
            "read_p99_us": stats.p99_us,
            "tenants": rep.tenants,
        })
        for k, v in rep.retry_histogram.items():
            retry_hist[str(k)] = retry_hist.get(str(k), 0) + v
        horizon = max(horizon, rep.horizon_us)

    # fleet-wide per-tenant rollup (exact percentiles over concatenation)
    tenants_out: Dict[str, Dict[str, float]] = {}
    acc_tenants: Dict[str, Dict[str, Any]] = {}
    for tenant in sorted(streams):
        offered = served = degraded = shed = on_devices = 0
        lats: List[float] = []
        for res in ordered:
            row = res.report.tenants.get(tenant)
            if row is not None:
                offered += int(row["offered"])
                served += int(row["served"])
                degraded += int(row["degraded"])
                shed += int(row["shed"])
                on_devices += 1
            for name, samples in res.read_latencies:
                if name == tenant:
                    lats.extend(samples)
        stats = LatencyStats.from_samples(lats)
        tenants_out[tenant] = {
            "offered": offered,
            "served": served,
            "degraded": degraded,
            "shed": shed,
            "devices": on_devices,
            "read_count": stats.count,
            "read_p50_us": stats.median_us,
            "read_p99_us": stats.p99_us,
            "read_p999_us": stats.p999_us,
        }
        acct = request_accounting(offered, served, degraded, shed)
        dispatched = len(streams[tenant])
        acct["dispatched"] = dispatched
        acct["balanced"] = acct["balanced"] and offered == dispatched
        acc_tenants[tenant] = acct

    totals = {
        key: sum(t[key] for t in acc_tenants.values())
        for key in ("offered", "served", "degraded", "shed")
    }
    accounting = {**request_accounting(**totals), "tenants": acc_tenants}

    cohorts_out = {
        label: {
            "layers": layers,
            "pe_age": cohort_of[members[label][0]][1],
            "devices": members[label],
            "seed_device": cohort_seed_device[label],
            "entries_exported": len(
                cohort_state.get(label, {}).get("entries", [])
            ),
        }
        for label in sorted(members)
    }

    warm: Dict[str, Any] = {}
    if config.warm_start:
        warm = {
            "devices_warm_started": warm_devices,
            "entries_exported": sum(
                c["entries_exported"] for c in cohorts_out.values()
            ),
            "entries_imported": warm_imported,
            "warm_hits": warm_hits,
            "warm_expired": warm_expired,
        }
        if warm_devices:
            cold_reads, cold_retries = group_retries["cold"]
            warm_reads, warm_retries = group_retries["warm"]
            warm.update({
                "cold_mean_retries": (
                    cold_retries / cold_reads if cold_reads else 0.0
                ),
                "warm_mean_retries": (
                    warm_retries / warm_reads if warm_reads else 0.0
                ),
                "cold_read_p99_us": p99_us(group_lats["cold"]),
                "warm_read_p99_us": p99_us(group_lats["warm"]),
            })

    return FleetReport(
        seed=seed,
        kind=config.kind,
        n_devices=config.n_devices,
        n_tenants=len(streams),
        warm_start_enabled=config.warm_start,
        horizon_us=horizon,
        devices=devices_out,
        cohorts=cohorts_out,
        tenants=tenants_out,
        dispatch={
            "capacity": plan.capacity,
            "total_requests": plan.total_requests,
            "spilled": plan.spilled_total,
            "primaries": {t: plan.primaries[t] for t in sorted(plan.primaries)},
            "records": [
                {
                    "tenant": r.tenant,
                    "device": r.device,
                    "requests": r.requests,
                    "spilled": r.spilled,
                }
                for r in plan.records
            ],
        },
        accounting=accounting,
        retry_histogram=retry_hist,
        warm=warm,
    )


def _emit_fleet_obs(report: FleetReport) -> None:
    """Parent-side events + metrics, after the merge, in canonical order."""
    if not OBS.enabled:
        return
    if OBS.tracer.enabled:
        for rec in report.dispatch.get("records", []):
            OBS.tracer.emit(
                "fleet_dispatch",
                tenant=rec["tenant"],
                device=rec["device"],
                requests=rec["requests"],
                spilled=rec["spilled"],
            )
        for dev in report.devices:
            if dev["role"] == "warm" and dev["warm_imported"]:
                OBS.tracer.emit(
                    "cache_warm_start",
                    device=dev["index"],
                    cohort=dev["cohort"],
                    imported=dev["warm_imported"],
                    source=report.cohorts[dev["cohort"]]["seed_device"],
                )
        for tenant in sorted(report.tenants):
            t = report.tenants[tenant]
            OBS.tracer.emit(
                "tenant_slo",
                tenant=tenant,
                offered=t["offered"],
                served=t["served"],
                degraded=t["degraded"],
                shed=t["shed"],
                read_p99_us=t["read_p99_us"],
            )
    if OBS.metrics.enabled:
        m = OBS.metrics
        m.gauge(
            "repro_fleet_devices",
            help="devices in the most recent fleet run",
        ).set(report.n_devices)
        for tenant in sorted(report.tenants):
            m.counter(
                "repro_fleet_requests_total",
                help="tenant requests dispatched to fleet devices",
                tenant=tenant,
            ).inc(int(report.tenants[tenant]["offered"]))
        m.counter(
            "repro_fleet_spilled_total",
            help="requests routed past their tenant's affinity device",
        ).inc(int(report.dispatch.get("spilled", 0)))
        if report.warm:
            m.counter(
                "repro_fleet_warm_imported_total",
                help="voltage-cache entries imported via cohort warm-start",
            ).inc(int(report.warm.get("entries_imported", 0)))
            m.counter(
                "repro_fleet_warm_hits_total",
                help="cache hits served by warm-started entries",
            ).inc(int(report.warm.get("warm_hits", 0)))
        m.gauge(
            "repro_fleet_mean_retries_per_read",
            help="fleet-wide retries per page read",
        ).set(report.mean_retries_per_read)
