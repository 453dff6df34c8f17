"""Chaos campaigns: run a :class:`FaultPlan` end to end and report recovery.

One campaign exercises both halves of the stack under the same plan:

* a **serving phase** — the hardened :class:`~repro.service.broker.FlashReadService`
  serves the mixed scenario while faults fire; the report carries the
  injected-fault counts, the resilience counters (timeouts, backoffs,
  breaker trips, degraded reads, quarantines) and the accounting identity
  ``served + degraded + shed == offered``;
* a **chip sweep** — wordlines of the aged evaluation block are read with
  the vendor-table baseline policy while flash/ECC faults fire, through
  :meth:`FlashChip.map_wordlines` (lockstep ``read_batch`` per columnar
  sub-batch, fanned out over :mod:`repro.engine` shards).

Determinism contract: the :class:`ChaosReport` contains **no wall-clock**
quantity, every fault decision is keyed by target identity
(:mod:`repro.faults.injector`), and shard results — including per-shard
fault-count deltas, which would otherwise be lost in worker processes —
merge in canonical shard order.  The same plan + seed therefore produces
byte-identical JSON at any worker count, the property
``tests/test_faults.py`` asserts (and that the sweep equals a per-row
``CurrentFlashPolicy.read`` loop under the same plan).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.ecc.capability import CapabilityEcc
from repro.exp.common import eval_stress, sim_spec
from repro.faults import FAULTS, FaultPlan
from repro.flash.chip import FlashChip
from repro.retry.current_flash import CurrentFlashPolicy
from repro.service.broker import FlashReadService, ServiceConfig
from repro.service.profiles import synthetic_profiles
from repro.service.report import request_accounting
from repro.service.workload import mixed_scenario
from repro.ssd.config import SsdConfig
from repro.ssd.timing import NandTiming


def _sweep_batch(
    plan: FaultPlan, fault_seed: int, pages: Tuple[int, ...], cols
) -> List[Tuple[List[tuple], Dict[str, int]]]:
    """Read one columnar sub-batch; returns ``[(rows, fault-count delta)]``.

    ``FAULTS.ensure`` installs the campaign's injector in whatever process
    runs the sub-batch.  The delta — injections this sub-batch caused, not
    the injector's absolute counters — is what merges deterministically:
    in serial execution one injector accumulates across shards, in
    parallel execution each worker accumulates independently, and the
    per-batch differences are identical either way because every decision
    is keyed by wordline identity."""
    injector = FAULTS.ensure(plan, fault_seed)
    before = dict(injector.counts)
    policy = CurrentFlashPolicy(CapabilityEcc.for_spec(cols.spec), cols.spec)
    rows = [
        (
            index,
            p,
            outcome.retries,
            outcome.extra_single_reads,
            bool(outcome.success),
        )
        for index, row_outcomes in zip(
            cols.indices, policy.read_batch(cols, pages)
        )
        for p, outcome in zip(pages, row_outcomes)
    ]
    after = injector.counts
    delta = {
        kind: after[kind] - before.get(kind, 0)
        for kind in sorted(after)
        if after[kind] != before.get(kind, 0)
    }
    return [(rows, delta)]


@dataclass
class ChaosReport:
    """What one chaos campaign produced (wall-clock free, worker-invariant)."""

    plan: Dict[str, Any]
    seed: int
    #: the serving phase's full ServiceReport payload
    service: Dict[str, Any] = field(default_factory=dict)
    #: chip-level read sweep under flash/ECC faults
    sweep: Dict[str, Any] = field(default_factory=dict)
    #: faults injected across both phases, by kind
    faults: Dict[str, int] = field(default_factory=dict)
    #: request accounting of the serving phase; ``balanced`` asserts
    #: served + degraded + shed == offered
    accounting: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def balanced(self) -> bool:
        return bool(self.accounting.get("balanced", False))

    def to_json(self) -> str:
        payload = {
            "plan": self.plan,
            "seed": self.seed,
            "service": self.service,
            "sweep": self.sweep,
            "faults": self.faults,
            "accounting": self.accounting,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        acc = self.accounting
        lines = [
            f"chaos campaign: {self.plan.get('name')} (seed {self.seed})",
            (
                "faults injected: "
                + (
                    ", ".join(
                        f"{k}={v}" for k, v in sorted(self.faults.items())
                    )
                    or "none"
                )
            ),
            (
                f"service: {acc.get('served', 0)} served + "
                f"{acc.get('degraded', 0)} degraded + "
                f"{acc.get('shed', 0)} shed = {acc.get('offered', 0)} offered "
                f"({'balanced' if acc.get('balanced') else 'IMBALANCED'})"
            ),
        ]
        resilience = self.service.get("resilience", {})
        if resilience:
            lines.append(
                "resilience: "
                + ", ".join(
                    f"{k}={v:g}" for k, v in sorted(resilience.items())
                )
            )
        sweep = self.sweep
        if sweep:
            lines.append(
                f"chip sweep: {sweep.get('reads', 0)} reads, "
                f"{sweep.get('failures', 0)} unrecovered, "
                f"mean retries {sweep.get('mean_retries', 0.0):.2f}"
            )
        return "\n".join(lines)


def run_chaos(
    plan: FaultPlan,
    seed: int = 0,
    kind: str = "tlc",
    smoke: bool = True,
    workers: int = 1,
    n_requests: int = 200,
    sweep_pages: Optional[Tuple[int, ...]] = None,
) -> ChaosReport:
    """Run ``plan`` through the serving layer and a chip-level read sweep.

    ``smoke`` selects the CI-sized configuration (small wordlines, the
    synthetic retry profiles, a thin sweep); the full configuration widens
    the sweep but keeps the synthetic profiles — a campaign stresses the
    recovery machinery, not profile fidelity.

    The chip sweep is one :meth:`FlashChip.map_wordlines` run over block 0
    at the evaluation stress; each sub-batch is read in lockstep with
    ``CurrentFlashPolicy.read_batch`` and returns its own fault-count
    delta, which the parent sums in sweep order."""
    cells = 4096 if smoke else 16384
    spec = sim_spec(kind, cells_per_wordline=cells)
    ssd_config = SsdConfig(
        channels=2, dies_per_channel=2, blocks_per_die=64, pages_per_block=64
    )

    # --- serving phase (serial event queue; the broker owns the clock)
    FAULTS.activate(plan, seed)
    try:
        service = FlashReadService(
            spec,
            ssd_config,
            NandTiming(),
            synthetic_profiles(kind),
            seed=seed,
            config=ServiceConfig(),
        )
        clients = mixed_scenario(
            n_requests=n_requests, read_iops=4000.0, footprint_pages=512
        )
        service_report = service.run(
            list(clients), scenario=f"chaos:{plan.name}"
        )
    finally:
        FAULTS.deactivate()

    accounting = request_accounting(
        service_report.issued_total,
        service_report.served_total,
        service_report.degraded_total,
        service_report.shed_total,
    )

    # --- chip sweep (flash/ECC faults through the real read path)
    divisor = 8 if smoke else 2
    step = max(1, spec.wordlines_per_block // divisor)
    wordlines = range(0, spec.wordlines_per_block, step)
    pages = sweep_pages if sweep_pages is not None else (0,)
    chip = FlashChip(spec, seed, sentinel_ratio=0.002)
    chip.set_block_stress(0, eval_stress(kind))
    try:
        per_batch = chip.map_wordlines(
            partial(_sweep_batch, plan, seed, tuple(pages)),
            wordlines,
            workers=workers,
            label="chaos-sweep",
        )
    finally:
        # serial execution installed the injector in this process
        FAULTS.deactivate()

    sweep_rows: List[tuple] = []
    sweep_faults: Dict[str, int] = {}
    for rows, delta in per_batch:
        sweep_rows.extend(rows)
        for fault_kind, count in delta.items():
            sweep_faults[fault_kind] = sweep_faults.get(fault_kind, 0) + count

    retry_histogram: Dict[str, int] = {}
    failures = 0
    total_retries = 0
    for _wl, _p, retries, _extra, success in sweep_rows:
        retry_histogram[str(retries)] = retry_histogram.get(str(retries), 0) + 1
        total_retries += retries
        if not success:
            failures += 1
    sweep = {
        "reads": len(sweep_rows),
        "failures": failures,
        "mean_retries": (
            total_retries / len(sweep_rows) if sweep_rows else 0.0
        ),
        "retry_histogram": {
            k: retry_histogram[k]
            for k in sorted(retry_histogram, key=int)
        },
        "faults": {k: sweep_faults[k] for k in sorted(sweep_faults)},
    }

    faults: Dict[str, int] = dict(service_report.faults)
    for fault_kind, count in sweep_faults.items():
        faults[fault_kind] = faults.get(fault_kind, 0) + count

    return ChaosReport(
        plan=plan.to_dict(),
        seed=seed,
        service=json.loads(service_report.to_json()),
        sweep=sweep,
        faults={k: faults[k] for k in sorted(faults)},
        accounting=accounting,
    )
