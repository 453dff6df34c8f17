"""The fleet dispatcher: tenant workload streams routed onto devices.

Each tenant is one workload stream (an open-loop Poisson
:class:`~repro.service.workload.ClientSpec` over the tenant's logical
partition, generated from the ``(seed, "fleet", "tenant", name)`` branch
of the seed tree).  The dispatcher routes every request to a device:

* **affinity** — each tenant has a primary device (its rank in sorted
  tenant order, modulo the fleet size), so a tenant's working set stays
  hot on one voltage cache;
* **spillover** — each device accepts at most ``capacity`` requests of
  the plan (``ceil(total * CAPACITY_HEADROOM / n_devices)``); a request
  whose primary is full walks the device ring to the next free one and
  is counted as *spilled*.  Routing walks all requests in global arrival
  order (ties broken by tenant then index), so spill decisions — like
  everything else here — are a pure function of (streams, fleet size).

The plan's per-device streams feed
:meth:`~repro.service.broker.FlashReadService.run_prepared` with client
name == tenant name, which is what gives every device report a per-tenant
SLO rollup and makes the fleet-wide ``served + degraded + shed ==
offered`` identity checkable per tenant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.service.workload import ClientSpec, ServiceRequest
from repro.util.rng import derive_seed

#: First key of every fleet-owned seed-tree stream; distinct from the
#: "service", "engine" and "faults" namespaces so per-device randomness
#: can never collide with shard or fault streams (tests pin this).
FLEET_NAMESPACE = "fleet"
#: each device accepts ``ceil(total * CAPACITY_HEADROOM / n_devices)``
#: requests of a plan; above 1, so the fleet's capacity covers the load
CAPACITY_HEADROOM = 1.25


def device_seed(seed: int, index: int) -> int:
    """The RNG root of device ``index``: its own branch of the seed tree."""
    return derive_seed(seed, FLEET_NAMESPACE, "device", index)


def tenant_seed(seed: int, name: str) -> int:
    """The RNG root of one tenant's workload stream."""
    return derive_seed(seed, FLEET_NAMESPACE, "tenant", name)


@dataclass(frozen=True)
class DispatchRecord:
    """One (tenant, device) route of a plan."""

    tenant: str
    device: int
    requests: int
    #: of ``requests``, how many overflowed past the tenant's affinity
    #: device to land here (zero on the primary itself)
    spilled: int


@dataclass
class DispatchPlan:
    """Deterministic routing of every tenant request onto a device."""

    #: device index -> tenant name -> that tenant's requests on the device
    #: (tenant keys sorted; requests in arrival order)
    per_device: List[Dict[str, List[ServiceRequest]]]
    #: one record per populated (tenant, device) route, sorted
    records: List[DispatchRecord]
    #: requests per device the plan allowed
    capacity: int
    #: tenant name -> its affinity (primary) device
    primaries: Dict[str, int]

    @property
    def total_requests(self) -> int:
        return sum(r.requests for r in self.records)

    @property
    def spilled_total(self) -> int:
        return sum(r.spilled for r in self.records)


def dispatch(
    streams: Dict[str, Sequence[ServiceRequest]], n_devices: int
) -> DispatchPlan:
    """Route every tenant stream onto ``n_devices`` devices.

    The fleet's total capacity covers the offered load, so every request
    lands somewhere and the accounting identity starts from
    ``dispatched == offered``.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be positive")
    tenants = sorted(streams)
    primaries = {
        tenant: rank % n_devices for rank, tenant in enumerate(tenants)
    }
    total = sum(len(streams[t]) for t in tenants)
    capacity = max(1, int(math.ceil(total * CAPACITY_HEADROOM / n_devices)))

    # global arrival order; ties broken by (tenant, index) for determinism
    ordered: List[Tuple[float, str, int, ServiceRequest]] = sorted(
        (req.arrival_us or 0.0, tenant, req.index, req)
        for tenant in tenants
        for req in streams[tenant]
    )

    loads = [0] * n_devices
    routed: List[Dict[str, List[ServiceRequest]]] = [
        {} for _ in range(n_devices)
    ]
    spills: Dict[Tuple[str, int], int] = {}
    counts: Dict[Tuple[str, int], int] = {}
    for _arrival, tenant, _index, req in ordered:
        primary = primaries[tenant]
        device = primary
        for step in range(n_devices):
            candidate = (primary + step) % n_devices
            if loads[candidate] < capacity:
                device = candidate
                break
        loads[device] += 1
        routed[device].setdefault(tenant, []).append(req)
        counts[(tenant, device)] = counts.get((tenant, device), 0) + 1
        if device != primary:
            spills[(tenant, device)] = spills.get((tenant, device), 0) + 1

    per_device = [
        {tenant: dev_streams[tenant] for tenant in sorted(dev_streams)}
        for dev_streams in routed
    ]
    records = [
        DispatchRecord(
            tenant=tenant,
            device=device,
            requests=count,
            spilled=spills.get((tenant, device), 0),
        )
        for (tenant, device), count in sorted(counts.items())
    ]
    return DispatchPlan(
        per_device=per_device,
        records=records,
        capacity=capacity,
        primaries=primaries,
    )


def default_tenants(
    n_tenants: int,
    n_requests: int = 200,
    read_fraction: float = 0.9,
    mean_iops: float = 2000.0,
    footprint_pages: int = 1024,
) -> List[ClientSpec]:
    """``n_tenants`` open-loop Poisson tenants over disjoint logical
    partitions; a tenant's stream is ``generate_requests(spec,
    seed=tenant_seed(seed, spec.name))``."""
    if n_tenants < 1:
        raise ValueError("n_tenants must be positive")
    return [
        ClientSpec(
            name=f"tenant-{t:02d}",
            n_requests=n_requests,
            read_fraction=read_fraction,
            mean_iops=mean_iops,
            footprint_pages=footprint_pages,
            base_lpn=t * footprint_pages,
            max_pages_per_request=2,
        )
        for t in range(n_tenants)
    ]
