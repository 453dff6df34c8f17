"""Device-lifetime sweep: retry behaviour as the chip ages.

Not a single paper figure, but the arc the whole paper draws: fresh blocks
read in one attempt everywhere; as P/E cycles and retention accumulate, the
default voltages start failing and the vendor ladder's cost grows roughly
linearly with the shift, while the sentinel controller stays pinned near
one retry until even the optimal voltages exceed the ECC — the device's
true end of life.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.controller import SentinelController
from repro.exp.common import (
    ONE_YEAR_H, default_ecc, eval_chip, sweep_reads, trained_model,
)
from repro.flash.mechanisms import StressState
from repro.retry import CurrentFlashPolicy, OraclePolicy
from repro.ssd.timing import NandTiming


@dataclass
class AgingSweepResult:
    kind: str
    pe_cycles: Sequence[int]
    retries: Dict[str, np.ndarray]  # policy -> per-PE mean retries
    latency_us: Dict[str, np.ndarray]  # policy -> per-PE mean read latency
    failures: Dict[str, np.ndarray]  # policy -> per-PE failed-read fraction

    def first_failing_pe(self, policy: str, threshold: float = 0.5) -> int:
        """First P/E count where most first reads fail (retries >= 1)."""
        for i, pe in enumerate(self.pe_cycles):
            if self.retries[policy][i] >= threshold:
                return pe
        return -1

    def rows(self) -> list:
        out = []
        for i, pe in enumerate(self.pe_cycles):
            out.append(
                (
                    pe,
                    *(
                        round(float(self.retries[p][i]), 2)
                        for p in self.retries
                    ),
                    *(
                        f"{float(self.failures[p][i]):.0%}"
                        for p in self.failures
                    ),
                )
            )
        return out


def run_aging_sweep(
    kind: str = "tlc",
    pe_cycles: Sequence[int] = (0, 1000, 2000, 3000, 4000, 5000, 6000),
    retention_hours: float = ONE_YEAR_H,
    wordline_step: int = 16,
    page: str = "MSB",
) -> AgingSweepResult:
    """Mean retries / latency / failure fraction vs P/E for three policies."""
    chip = eval_chip(kind)
    spec = chip.spec
    ecc = default_ecc(kind)
    timing = NandTiming()
    policies = {
        "current-flash": CurrentFlashPolicy(ecc, spec),
        "sentinel": SentinelController(ecc, trained_model(kind)),
        "opt": OraclePolicy(ecc),
    }
    indices = range(0, spec.wordlines_per_block, wordline_step)
    retries = {name: np.zeros(len(pe_cycles)) for name in policies}
    latency = {name: np.zeros(len(pe_cycles)) for name in policies}
    failures = {name: np.zeros(len(pe_cycles)) for name in policies}
    # per wordline: current flash, then sentinel, then opt
    rows = sweep_reads(chip, policies.values(), [page], indices, stresses=[
        StressState(pe_cycles=pe, retention_hours=retention_hours)
        for pe in pe_cycles
    ])
    for i in range(len(pe_cycles)):
        per_pe = rows[i * len(indices) : (i + 1) * len(indices)]
        for name, outs in zip(policies, zip(*per_pe)):
            retries[name][i] = float(np.mean([o.retries for o in outs]))
            latency[name][i] = float(
                np.mean([timing.read_outcome_us(o) for o in outs])
            )
            failures[name][i] = sum(not o.success for o in outs) / len(outs)
    return AgingSweepResult(
        kind=kind,
        pe_cycles=tuple(pe_cycles),
        retries=retries,
        latency_us=latency,
        failures=failures,
    )
