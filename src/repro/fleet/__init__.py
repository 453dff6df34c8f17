"""``repro.fleet``: multi-device, multi-tenant fleet simulation.

One :class:`FlashReadService` fronting one simulated SSD is the serving
story of :mod:`repro.service`; this package scales it out — 10s to 100s
of devices, each on its own branch of the seed tree, serving per-tenant
workload streams routed by a deterministic dispatcher, with cross-device
learning: devices of the same (layer-count, P/E-age) cohort warm-start
their voltage-offset caches from fleet history, the fleet-scale form of
the paper's Section III-D batch-transfer result.

Determinism contract: :meth:`FleetReport.to_json` is byte-identical at
any ``--workers`` count (device shards merge in canonical order; fleet
events and metrics are emitted parent-side after the merge), and the
``served + degraded + shed == offered`` identity holds per tenant and
fleet-wide.  See ``docs/FLEET.md`` and the ``repro fleet`` CLI.
"""

from repro.fleet.dispatcher import (
    CAPACITY_HEADROOM,
    FLEET_NAMESPACE,
    DispatchPlan,
    DispatchRecord,
    default_tenants,
    device_seed,
    dispatch,
    tenant_seed,
)
from repro.fleet.fleet import PE_COHORTS, FleetConfig, run_fleet
from repro.fleet.report import FleetReport

__all__ = [
    "CAPACITY_HEADROOM",
    "FLEET_NAMESPACE",
    "DispatchPlan",
    "DispatchRecord",
    "default_tenants",
    "device_seed",
    "dispatch",
    "tenant_seed",
    "FleetConfig",
    "PE_COHORTS",
    "run_fleet",
    "FleetReport",
]
