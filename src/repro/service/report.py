"""The service report: what one ``repro serve`` scenario produced.

Bit-identical across runs of the same seed: every field derives from the
deterministic virtual-time simulation, rendering is order-stable, and
``to_json`` sorts keys — ``ServiceReport.to_json()`` equality is the
determinism contract the tests and CI smoke run assert.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from repro.analysis.report import format_table


def request_accounting(
    offered: int, served: int, degraded: int, shed: int
) -> Dict[str, Any]:
    """The request accounting of one serving run, with the verdict every
    frontend reports: ``balanced`` is ``served + degraded + shed ==
    offered``, where ``offered`` is the caller's count of what it
    submitted."""
    return {
        "offered": offered,
        "served": served,
        "degraded": degraded,
        "shed": shed,
        "balanced": served + degraded + shed == offered,
    }


@dataclass
class ServiceReport:
    """Aggregates of one serving-scenario run."""

    scenario: str
    seed: int
    horizon_us: float
    cache_enabled: bool
    scrub_enabled: bool
    #: per-client SLO summary (see :meth:`SloMonitor.summary`)
    clients: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-client sliding-window series (IOPS + read p99 per window)
    windows: Dict[str, List[Dict[str, float]]] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    scrub: Dict[str, float] = field(default_factory=dict)
    #: retries -> number of page reads that needed exactly that many
    retry_histogram: Dict[int, int] = field(default_factory=dict)
    #: batched die-scheduling counters (batches, coalesced_reads,
    #: max_batch); empty unless ``ServiceConfig.batch_enabled``
    batch: Dict[str, float] = field(default_factory=dict)
    die_utilization: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    #: faults injected during the run, by kind (empty without a campaign)
    faults: Dict[str, int] = field(default_factory=dict)
    #: resilience-path counters (timeouts, backoffs, breaker trips,
    #: degraded reads, quarantines); empty in fault-free runs
    resilience: Dict[str, float] = field(default_factory=dict)
    #: per-tenant SLO rollup (see :meth:`SloMonitor.tenant_summary`);
    #: empty unless the run declared a client -> tenant mapping
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def pages_read(self) -> int:
        return sum(self.retry_histogram.values())

    @property
    def mean_retries_per_read(self) -> float:
        reads = self.pages_read
        if not reads:
            return 0.0
        total = sum(k * v for k, v in self.retry_histogram.items())
        return total / reads

    @property
    def shed_total(self) -> int:
        return int(sum(c.get("shed", 0) for c in self.clients.values()))

    @property
    def completed_total(self) -> int:
        return int(sum(c.get("completed", 0) for c in self.clients.values()))

    @property
    def issued_total(self) -> int:
        return int(sum(c.get("issued", 0) for c in self.clients.values()))

    @property
    def degraded_total(self) -> int:
        return int(sum(c.get("degraded", 0) for c in self.clients.values()))

    @property
    def served_total(self) -> int:
        """Completions that took the normal (non-degraded) path."""
        return self.completed_total - self.degraded_total

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = asdict(self)
        # JSON object keys must be strings; keep the histogram sortable
        payload["retry_histogram"] = {
            str(k): v for k, v in sorted(self.retry_histogram.items())
        }
        # fault/resilience/batch/tenant sections only exist when something
        # happened, so plain reports stay byte-identical to earlier builds
        for optional in ("faults", "resilience", "batch", "tenants"):
            if not payload[optional]:
                del payload[optional]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    # ------------------------------------------------------------------
    def render(self) -> str:
        sections: List[str] = []
        rows = [
            (
                name,
                c["issued"],
                c["completed"],
                c["shed"],
                f"{c['iops']:.0f}",
                f"{c['read_p50_us']:.0f}",
                f"{c['read_p99_us']:.0f}",
                f"{c['read_p999_us']:.0f}",
            )
            for name, c in sorted(self.clients.items())
        ]
        sections.append(format_table(
            rows,
            headers=["client", "issued", "done", "shed", "IOPS",
                     "read p50 us", "p99 us", "p999 us"],
            title=(
                f"service report: {self.scenario} (seed {self.seed}, "
                f"{self.horizon_us / 1e6:.2f}s virtual)"
            ),
        ))
        sections.append(
            f"reads: {self.pages_read} pages, "
            f"{self.mean_retries_per_read:.3f} mean retries/read "
            f"(histogram {dict(sorted(self.retry_histogram.items()))})"
        )
        if self.cache_enabled and self.cache:
            sections.append(
                "voltage cache: "
                f"{self.cache['hits']:.0f}/{self.cache['lookups']:.0f} hits "
                f"({self.cache['hit_rate']:.1%}), "
                f"{self.cache['expired']:.0f} drift-expired, "
                f"{self.cache['evicted']:.0f} evicted"
            )
        else:
            sections.append("voltage cache: disabled")
        if self.scrub_enabled and self.scrub:
            sections.append(
                "scrubber: "
                f"{self.scrub['passes']:.0f} passes, "
                f"{self.scrub['entries_refreshed']:.0f} refreshes, "
                f"{self.scrub['busy_us']:.0f} us idle time used "
                f"(preemption bound {self.scrub['preemption_bound_us']:.0f} us)"
            )
        else:
            sections.append("scrubber: disabled")
        if self.batch:
            sections.append(
                "batched die scheduling: "
                f"{self.batch.get('batches', 0):.0f} batches coalesced "
                f"{self.batch.get('coalesced_reads', 0):.0f} reads "
                f"(largest {self.batch.get('max_batch', 0):.0f})"
            )
        if self.faults:
            sections.append(
                "faults injected: "
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.faults.items())
                )
            )
        if self.resilience:
            sections.append(
                "resilience: "
                + ", ".join(
                    f"{name}={value:g}"
                    for name, value in sorted(self.resilience.items())
                )
            )
        if self.tenants:
            tenant_rows = [
                (
                    name,
                    f"{t['clients']:.0f}",
                    f"{t['offered']:.0f}",
                    f"{t['served']:.0f}",
                    f"{t['degraded']:.0f}",
                    f"{t['shed']:.0f}",
                    f"{t['read_p99_us']:.0f}",
                )
                for name, t in sorted(self.tenants.items())
            ]
            sections.append(format_table(
                tenant_rows,
                headers=["tenant", "clients", "offered", "served",
                         "degraded", "shed", "read p99 us"],
                title="per-tenant SLO",
            ))
        if self.degraded_total:
            sections.append(
                f"requests: {self.served_total} served + "
                f"{self.degraded_total} degraded + {self.shed_total} shed "
                f"= {self.issued_total} issued"
            )
        sections.append(
            f"die utilization: {self.die_utilization:.1%}  "
            f"shed: {self.shed_total} of "
            f"{self.shed_total + self.completed_total} admitted-or-shed"
        )
        return "\n".join(sections)
