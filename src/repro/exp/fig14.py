"""Figure 14: system-level read-latency reduction on eight MSR workloads.

Chip-level retry behaviour (measured per page type on the aged block, for
both policies) feeds the trace-driven SSD simulator; each workload is
replayed against a current-flash SSD and a sentinel SSD, and the figure
reports the mean read-latency reduction per trace.  The paper measures 74%
on average with SSDSim; see EXPERIMENTS.md for our measured values and the
configuration notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.controller import SentinelController
from repro.exp.common import default_ecc, eval_chip, trained_model
from repro.retry import CurrentFlashPolicy
from repro.ssd import NandTiming, RetryProfile, Ssd, SsdConfig
from repro.ssd.metrics import SimulationReport, read_latency_reduction
from repro.traces.synthetic import MSR_WORKLOADS, generate_workload
from repro.traces.trace import Trace


@dataclass
class Fig14Result:
    kind: str
    reductions: Dict[str, float]  # workload -> fractional reduction
    reports: Dict[str, Dict[str, SimulationReport]]
    profile_retries: Dict[str, float]  # policy -> mean retries per read

    @property
    def average_reduction(self) -> float:
        return float(np.mean(list(self.reductions.values())))

    def rows(self) -> list:
        out = [
            (name, f"{red:.1%}") for name, red in sorted(self.reductions.items())
        ]
        out.append(("average", f"{self.average_reduction:.1%}"))
        return out


def measure_profiles(
    kind: str, wordline_step: int = 8
) -> Dict[str, RetryProfile]:
    """Chip-level retry profiles of both policies on the aged block."""
    chip = eval_chip(kind)
    spec = chip.spec
    ecc = default_ecc(kind)
    policies = [
        CurrentFlashPolicy(ecc, spec),
        SentinelController(ecc, trained_model(kind)),
    ]
    wordlines = range(0, spec.wordlines_per_block, wordline_step)
    return {
        policy.name: RetryProfile.measure(chip, policy, wordlines=wordlines)
        for policy in policies
    }


def run_fig14(
    kind: str = "tlc",
    workloads: Optional[Sequence[str]] = None,
    n_requests: int = 6000,
    rate_scale: float = 20.0,
    blocks_per_die: int = 32,
    seed: int = 7,
    traces: Optional[Dict[str, Trace]] = None,
) -> Fig14Result:
    """Replay the workloads against both policies' SSDs.

    Pass ``traces`` to use real MSR CSVs (via :mod:`repro.traces.msr`)
    instead of the synthetic stand-ins.
    """
    profiles = measure_profiles(kind)
    spec = eval_chip(kind).spec
    timing = NandTiming()
    config = SsdConfig.for_spec(spec, blocks_per_die=blocks_per_die)
    names = list(workloads) if workloads is not None else list(MSR_WORKLOADS)
    reductions: Dict[str, float] = {}
    reports: Dict[str, Dict[str, SimulationReport]] = {}
    for name in names:
        if traces is not None and name in traces:
            trace = traces[name]
        else:
            trace = generate_workload(
                MSR_WORKLOADS[name],
                n_requests=n_requests,
                seed=seed,
                rate_scale=rate_scale,
            )
        per_policy = {
            pname: Ssd(spec, config, timing, prof, seed=seed).run_trace(trace)
            for pname, prof in profiles.items()
        }
        reports[name] = per_policy
        reductions[name] = read_latency_reduction(
            per_policy["current-flash"], per_policy["sentinel"]
        )
    return Fig14Result(
        kind=kind,
        reductions=reductions,
        reports=reports,
        profile_retries={
            pname: prof.mean_retries() for pname, prof in profiles.items()
        },
    )
