"""Deterministic fault injection (``repro.faults``).

The package mirrors the shape of :mod:`repro.obs`: one module-level
singleton, :data:`FAULTS`, guarded by a plain-bool attribute so every
instrumented hot path pays a single attribute load when chaos is off::

    from repro.faults import FAULTS

    if FAULTS.active:
        n_err = FAULTS.injector.flash_read(block, index, mismatch, n_err)

Campaigns are declared as a :class:`~repro.faults.plan.FaultPlan` (pure
data, JSON round-trippable) and evaluated by a
:class:`~repro.faults.injector.FaultInjector` whose every decision draws
from a fresh seed-tree stream — same plan + same seed means the same
faults, at any worker count.  ``repro chaos`` runs a full campaign via
:func:`repro.faults.chaos.run_chaos` (imported directly, not from this
package root, to keep the hook sites' import graph acyclic).

Fault injection is **off by default**: with :data:`FAULTS` inactive every
simulation is byte-identical to a build without this package, and a run
under an *activated* zero-fault plan (``FaultPlan.none()``) is too —
reports, trace events (span trees included) and metrics alike, the
differential contract ``tests/test_faults.py`` enforces.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DEFAULT_MAGNITUDE,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FAULTS",
    "FaultInjection",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "DEFAULT_MAGNITUDE",
    "activate",
    "deactivate",
]


class FaultInjection:
    """The process-wide chaos switch: an injector behind one cheap flag.

    ``active`` is a plain attribute kept equal to ``injector is not None``
    so the chaos-off hot path costs one attribute load and one branch —
    the same overhead contract as :class:`repro.obs.Observability`.
    """

    def __init__(self) -> None:
        self.injector: Optional[FaultInjector] = None
        self.active = False

    # ------------------------------------------------------------------
    def activate(self, plan: FaultPlan, seed: int = 0) -> FaultInjector:
        """Install a fresh injector for ``plan`` (ordinals/counters reset)."""
        self.injector = FaultInjector(plan, seed)
        self.active = True
        return self.injector

    def deactivate(self) -> None:
        self.injector = None
        self.active = False

    def ensure(self, plan: FaultPlan, seed: int = 0) -> FaultInjector:
        """Idempotent activation for worker processes.

        Keeps the current injector when it already runs the same plan and
        seed — under ``fork`` the child inherits the parent's injector and
        must not reset it (per-target ordinals survive); under ``spawn``
        the child starts inactive and gets a fresh one."""
        injector = self.injector
        if (
            self.active
            and injector is not None
            and injector.plan == plan
            and injector.seed == seed
        ):
            return injector
        return self.activate(plan, seed)

    def ecc_verdict(self, block: int, wordline: int, decoded: bool) -> bool:
        """One decode verdict after ECC faults (unchanged while inactive)."""
        if not self.active:
            return decoded
        return self.injector.ecc_verdict(block, wordline, decoded)

    def die_stall_us(self, die: int, now_us: float) -> float:
        """One read's die stall (0.0 while inactive)."""
        return self.injector.die_stall_us(die, now_us) if self.active else 0.0

    def congestion_factor(self, now_us: float) -> float:
        """The channel-transfer slowdown now (1.0 while inactive)."""
        return self.injector.congestion_factor(now_us) if self.active else 1.0


#: The process-wide fault-injection singleton every hook site consults.
FAULTS = FaultInjection()


def activate(plan: FaultPlan, seed: int = 0) -> FaultInjector:
    return FAULTS.activate(plan, seed)


def deactivate() -> None:
    FAULTS.deactivate()
