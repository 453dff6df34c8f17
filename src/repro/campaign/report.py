"""The campaign report: every device's lifetime, phase by phase.

Deterministic and **worker-count-free**, like the tournament and fleet
reports: every field derives from the virtual-time simulation and the
grid definition, cells merge in canonical (policy, schedule, environment,
workload) order, and ``to_json()`` sorts keys — so the JSON is
byte-identical across ``--workers 1/2/4``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.report import format_table


@dataclass
class CampaignReport:
    """Scorecards of one (policy x schedule x environment x workload)
    lifetime campaign."""

    kind: str
    seed: int
    lifetime_hours: float
    phase_count: int
    cells_per_wordline: int
    sentinel_ratio: float
    requests_per_phase: int
    wordline_step: int
    policies: List[str] = field(default_factory=list)
    schedules: List[str] = field(default_factory=list)
    environments: List[str] = field(default_factory=list)
    workloads: List[str] = field(default_factory=list)
    #: one dict per grid cell, in canonical order, each carrying its
    #: per-phase rows under ``"phases"``
    cells: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def balanced(self) -> bool:
        """Every phase of every cell satisfies
        served + degraded + shed == offered."""
        return all(c.get("balanced", False) for c in self.cells)

    def cell(
        self, policy: str, schedule: str, environment: str, workload: str
    ) -> Optional[Dict[str, Any]]:
        for c in self.cells:
            if (
                c["policy"] == policy
                and c["schedule"] == schedule
                and c["environment"] == environment
                and c["workload"] == workload
            ):
                return c
        return None

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines: List[str] = [
            (
                f"campaign report: {self.kind} x {len(self.policies)} "
                f"policies x {len(self.schedules)} schedules x "
                f"{len(self.environments)} environments x "
                f"{len(self.workloads)} workloads, "
                f"{self.phase_count} phases over "
                f"{self.lifetime_hours:.0f} h (seed {self.seed}, "
                f"{self.cells_per_wordline} cells/wordline, "
                f"{self.requests_per_phase} requests/phase)"
            )
        ]
        rows = []
        for c in self.cells:
            for row in c["phases"]:
                rows.append((
                    c["policy"],
                    c["schedule"],
                    c["environment"],
                    c["workload"],
                    row["phase"],
                    f"{row['age_hours']:.0f}",
                    row["pe_cycles"],
                    f"{row['retries_per_read']:.3f}",
                    f"{row['p99_us']:.0f}",
                    (
                        f"{row['served']}/{row['degraded']}"
                        f"/{row['shed']}"
                    ),
                    "ok" if row.get("balanced") else "IMBALANCED",
                ))
        lines.append(format_table(
            rows,
            headers=["policy", "schedule", "env", "workload", "ph",
                     "age h", "pe", "retries/read", "p99 us",
                     "srv/deg/shed", "acct"],
        ))
        if not self.balanced:
            lines.append("ACCOUNTING IMBALANCED: at least one phase broke "
                         "served + degraded + shed == offered")
        return "\n".join(lines)
