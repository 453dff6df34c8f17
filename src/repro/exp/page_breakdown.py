"""Per-page-type retry breakdown.

Section I: "MSB pages of high-density flash-memory chips are particularly
vulnerable, as multiple read voltages are required for a single page read.
A successful read needs to tune all the read voltages to proper positions."
This driver quantifies that: mean retries and mean read latency per page
type (LSB/CSB/.../MSB) for the current-flash and sentinel policies on the
aged evaluation block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.controller import SentinelController
from repro.exp.common import default_ecc, eval_chip, sweep_reads, trained_model
from repro.retry import CurrentFlashPolicy
from repro.ssd.timing import NandTiming


@dataclass
class PageBreakdownResult:
    kind: str
    page_names: Tuple[str, ...]
    retries: Dict[str, Dict[str, float]]  # policy -> page -> mean retries
    latency_us: Dict[str, Dict[str, float]]  # policy -> page -> mean latency

    def rows(self) -> list:
        out = []
        for page in self.page_names:
            out.append(
                (
                    page,
                    round(self.retries["current-flash"][page], 2),
                    round(self.retries["sentinel"][page], 2),
                    round(self.latency_us["current-flash"][page], 0),
                    round(self.latency_us["sentinel"][page], 0),
                )
            )
        return out

    def msb_worst_for(self, policy: str) -> bool:
        """Whether the MSB page needs the most retries under a policy."""
        per_page = self.retries[policy]
        return per_page["MSB"] >= max(per_page.values()) - 1e-9


def run_page_breakdown(
    kind: str = "qlc",
    wordline_step: int = 8,
) -> PageBreakdownResult:
    """Mean retries/latency per page type for both policies."""
    chip = eval_chip(kind)
    spec = chip.spec
    ecc = default_ecc(kind)
    timing = NandTiming()
    policies = [
        CurrentFlashPolicy(ecc, spec),
        SentinelController(ecc, trained_model(kind)),
    ]
    page_names = spec.gray.page_names
    retries: Dict[str, Dict[str, list]] = {
        p.name: {page: [] for page in page_names} for p in policies
    }
    latency: Dict[str, Dict[str, list]] = {
        p.name: {page: [] for page in page_names} for p in policies
    }
    indices = range(0, spec.wordlines_per_block, wordline_step)
    for row in sweep_reads(chip, policies, page_names, indices):
        outcomes = iter(row)  # each policy in turn, every page
        for policy in policies:
            for page in page_names:
                outcome = next(outcomes)
                retries[policy.name][page].append(outcome.retries)
                latency[policy.name][page].append(
                    timing.read_outcome_us(outcome)
                )
    return PageBreakdownResult(
        kind=kind,
        page_names=page_names,
        retries={
            name: {page: float(np.mean(v)) for page, v in pages.items()}
            for name, pages in retries.items()
        },
        latency_us={
            name: {page: float(np.mean(v)) for page, v in pages.items()}
            for name, pages in latency.items()
        },
    )
