"""``repro.service``: an online flash-read serving layer.

The batch entry points (:meth:`repro.ssd.ssd.Ssd.run_trace` /
``run_closed_loop``) replay a trace once and exit; this package makes the
simulated device behave like one under sustained load — concurrent
synthetic clients, admission control with shed accounting, a voltage-offset
cache that starts reads at remembered sentinel inferences, a background
scrubber that keeps that cache warm during die idle gaps, and per-client
SLO monitoring.  Everything runs on the deterministic virtual clock of
:class:`repro.ssd.events.EventQueue`: the same seed produces a
bit-identical :class:`~repro.service.report.ServiceReport`.

The broker is hardened against injected faults (:mod:`repro.faults`):
per-operation timeouts with bounded exponential backoff, a per-die
circuit breaker that routes reads of a sick die to a degraded
fallback-table path, and cache-entry quarantine on detected corruption —
see ``docs/RELIABILITY.md``.

See ``docs/SERVICE.md`` for the architecture and ``repro serve`` for the
CLI entry point.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.broker import FlashReadService, ServiceConfig
from repro.service.profiles import (
    COLD,
    WARM,
    SentinelHintFn,
    measure_service_profiles,
    synthetic_profiles,
)
from repro.service.report import ServiceReport
from repro.service.scrubber import SentinelScrubber
from repro.service.slo import SloMonitor
from repro.service.voltage_cache import CacheEntry, VoltageOffsetCache
from repro.service.workload import (
    ClientSpec,
    ServiceRequest,
    generate_requests,
    mixed_scenario,
)

__all__ = [
    "FlashReadService",
    "ServiceConfig",
    "CircuitBreaker",
    "ServiceReport",
    "ClientSpec",
    "ServiceRequest",
    "generate_requests",
    "mixed_scenario",
    "VoltageOffsetCache",
    "CacheEntry",
    "SentinelScrubber",
    "SloMonitor",
    "measure_service_profiles",
    "synthetic_profiles",
    "SentinelHintFn",
    "COLD",
    "WARM",
]
