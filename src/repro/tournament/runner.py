"""The policy tournament: every read-retry rival raced under one harness.

A tournament races a set of :class:`ReadPolicy` implementations across a
(replay frontend x chip age x chip kind) grid.  The report has one
**cell** per (policy, age, frontend); the unit of work is one
(policy, age) **profile**, which is fully self-contained and runs
exactly the standalone pipeline:

1. build the evaluation chip (``EVAL_SEED``) and age block 0 with the
   age's stress preset;
2. (learning policies only) one warm-up sweep over same-layer
   neighbours of the measured wordlines, then ``commit_feedback()`` —
   train/measure split;
3. measure a :class:`RetryProfile` over the wordline subset with
   ``RetryProfile.measure(workers=1)``;
4. replay each configured synthetic frontend through the serving broker
   with that one profile (cold == warm: every policy is scored on its
   own reads, no sentinel cache advantage) — one cell per frontend.

The profile takes no frontend and no seed, so it is measured once and
replayed many times, as in the paper's evaluation.  Units shard over
:class:`repro.engine.ParallelMap`: a worker receives one (policy, age)
pair and ``_run_cell`` bound by :func:`functools.partial` to the frozen
:class:`TournamentConfig`, the seed and the fitted sentinel model.  Units
merge in canonical (policy, age) order, each contributing its cells in
frontend order, so the :class:`TournamentReport` JSON is byte-identical
at any ``--workers`` — a unit never shares state with another, and all
observability (``tournament_cell`` events, ``repro_tournament_*``
metrics) is emitted parent-side after the merge, one per cell.  The
grid runs inside :func:`repro.flash.block.shared_cells`: every unit in
one process measures the same block, so its cells are drawn once per
process and each unit only re-synthesizes them at its age.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.ecc.capability import CapabilityEcc
from repro.engine import ParallelMap
from repro.flash.block import shared_cells
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import FlashSpec
from repro.obs import OBS
from repro.ssd.retry_model import RetryProfile
from repro.ssd.timing import NandTiming
from repro.tournament.report import (
    TournamentReport,
    profile_digest,
    replay_digest,
)

#: grid policies, canonical order (CLI aliases in :data:`POLICY_ALIASES`)
POLICY_NAMES: Tuple[str, ...] = (
    "current-flash",
    "sentinel",
    "tracking+sentinel",
    "adaptive-retry",
    "online-model",
    "opt",
)

#: accepted spellings -> canonical policy name
POLICY_ALIASES: Dict[str, str] = {
    **{name: name for name in POLICY_NAMES},
    "tracked-sentinel": "tracking+sentinel",
    "adaptive": "adaptive-retry",
    "oracle": "opt",
}

#: chip-age presets: mid-life and end-of-life (the paper's Section IV
#: evaluation point) per chip kind
AGE_STRESSES: Dict[str, Dict[str, StressState]] = {
    "tlc": {
        "mid": StressState(pe_cycles=3000, retention_hours=4000.0),
        "old": StressState(pe_cycles=5000, retention_hours=8760.0),
    },
    "qlc": {
        "mid": StressState(pe_cycles=600, retention_hours=2000.0),
        "old": StressState(pe_cycles=1000, retention_hours=8760.0),
    },
}

AGE_NAMES: Tuple[str, ...] = ("mid", "old")


def cell_spec(kind: str, cells_per_wordline: int) -> FlashSpec:
    from repro.exp.common import sim_spec

    return sim_spec(kind, cells_per_wordline=cells_per_wordline)


def cell_stress(kind: str, age: str) -> StressState:
    try:
        return AGE_STRESSES[kind.lower()][age]
    except KeyError:
        raise ValueError(
            f"unknown age {age!r} for kind {kind!r}; "
            f"use one of {sorted(AGE_NAMES)}"
        ) from None


def tournament_model(
    kind: str, cells_per_wordline: int, sentinel_ratio: float
):
    """Sentinel model fitted at the tournament's chip scale (cached).

    At the standard experiment scale this is exactly the factory model of
    :func:`repro.exp.common.trained_model`; smaller (smoke) scales fit
    their own training die with the same stress sweep on every eighth
    wordline — seconds, not minutes, at a few thousand cells per
    wordline.  Both come from the one memo,
    :func:`repro.exp.common.characterization`.
    """
    from repro.exp.common import SIM_CELLS, characterization

    step = 4 if cells_per_wordline == SIM_CELLS else 8
    return characterization(
        kind, sentinel_ratio, step, cells_per_wordline).model


def build_policy(name: str, ecc: CapabilityEcc, spec: FlashSpec,
                 chip: FlashChip, model) -> Any:
    """Construct one tournament policy against the cell's chip."""
    from repro.core.controller import SentinelController
    from repro.retry import (
        AdaptiveRetryPolicy,
        CurrentFlashPolicy,
        OnlineModelPolicy,
        OraclePolicy,
        TrackedSentinelPolicy,
    )

    canonical = POLICY_ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            f"unknown policy {name!r}; use one of {sorted(POLICY_ALIASES)}"
        )
    if canonical == "current-flash":
        return CurrentFlashPolicy(ecc, spec)
    if canonical == "sentinel":
        return SentinelController(ecc, model)
    if canonical == "tracking+sentinel":
        return TrackedSentinelPolicy(ecc, chip, model)
    if canonical == "adaptive-retry":
        return AdaptiveRetryPolicy(ecc, spec)
    if canonical == "online-model":
        return OnlineModelPolicy(ecc, spec)
    return OraclePolicy(ecc)


@dataclass(frozen=True)
class TournamentConfig:
    """One tournament's grid and sizing."""

    kind: str = "tlc"
    policies: Tuple[str, ...] = POLICY_NAMES
    ages: Tuple[str, ...] = AGE_NAMES
    frontends: Tuple[str, ...] = ("hm_0",)
    cells_per_wordline: int = 8192
    sentinel_ratio: float = 0.02
    wordline_step: int = 8
    requests_per_cell: int = 240
    scale: float = 1.0
    workers: int = 1

    def __post_init__(self) -> None:
        from repro.traces.synthetic import MSR_WORKLOADS

        for axis in ("policies", "ages", "frontends"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must not be empty")
        for name in self.policies:
            if name not in POLICY_ALIASES:
                raise ValueError(
                    f"unknown policy {name!r}; "
                    f"use one of {sorted(POLICY_ALIASES)}"
                )
        kind = self.kind.lower()
        if kind not in AGE_STRESSES:
            raise ValueError(f"unknown chip kind {self.kind!r}")
        for age in self.ages:
            cell_stress(kind, age)  # raises on unknown names
        for name in self.frontends:
            if name not in MSR_WORKLOADS:
                raise ValueError(
                    f"unknown frontend {name!r}; "
                    f"one of {sorted(MSR_WORKLOADS)}"
                )


def measure_stress_profile(
    task_policy: str,
    kind: str,
    stress: StressState,
    cells_per_wordline: int,
    sentinel_ratio: float,
    wordline_step: int,
    model,
    hint_fn=None,
    trace_prefix: str = "",
) -> RetryProfile:
    """Measure one policy's retry profile at an explicit stress point.

    The tournament's :func:`measure_cell_profile` delegates here with its
    named age presets; the lifetime campaign (:mod:`repro.campaign`) calls
    it directly with the composed aging stress of each phase, optionally
    with a cache-hint function for the warm (cache-hit) distribution.
    ``trace_prefix`` names the measurement's span trace ids.
    """
    from repro.exp.common import EVAL_SEED

    spec = cell_spec(kind, cells_per_wordline)
    chip = FlashChip(spec, seed=EVAL_SEED, sentinel_ratio=sentinel_ratio)
    chip.set_block_stress(0, stress)
    ecc = CapabilityEcc.for_spec(spec)
    policy = build_policy(task_policy, ecc, spec, chip, model)
    step = max(1, wordline_step)
    if hasattr(policy, "commit_feedback"):
        # train/measure split: learn on same-layer neighbours of the
        # measured wordlines (falling back to the wordline itself when
        # the layer has no other), then freeze the committed state for
        # the measured sweep.  Predictions key on (block, layer), so the
        # warm-up must stay in the measured layers.
        measured = range(0, spec.wordlines_per_block, step)
        picks = []
        for w in measured:
            n = w + 1
            same_layer = (
                n < spec.wordlines_per_block
                and spec.layer_of_wordline(n) == spec.layer_of_wordline(w)
            )
            picks.append(n if same_layer and n % step != 0 else w)
        warmup = list(dict.fromkeys(picks))
        if warmup:
            policy.read_batch(
                chip.block_columns(0, warmup),
                list(range(spec.pages_per_wordline)),
            )
            policy.commit_feedback()
    return RetryProfile.measure(
        chip,
        policy,
        wordlines=range(0, spec.wordlines_per_block, step),
        name=POLICY_ALIASES[task_policy],
        hint_fn=hint_fn,
        workers=1,
        trace_prefix=trace_prefix,
    )


def measure_cell_profile(
    task_policy: str,
    kind: str,
    age: str,
    cells_per_wordline: int,
    sentinel_ratio: float,
    wordline_step: int,
    model,
) -> RetryProfile:
    """Steps 1-3 of a cell: chip, optional warm-up, profile measurement.

    Public and standalone-callable: the golden differential tests invoke
    it directly to prove the tournament harness adds zero perturbation on
    top of ``RetryProfile.measure``.
    """
    return measure_stress_profile(
        task_policy,
        kind,
        cell_stress(kind, age),
        cells_per_wordline,
        sentinel_ratio,
        wordline_step,
        model,
        trace_prefix=f"{POLICY_ALIASES[task_policy]}/{age}/",
    )


def replay_cell_frontend(
    frontend: str,
    kind: str,
    cells_per_wordline: int,
    profile: RetryProfile,
    requests: int,
    seed: int,
    scale: float = 1.0,
    trace_prefix: str = "",
):
    """Step 4 of a cell: one synthetic frontend through the broker.

    Cold and warm profiles are the same measurement: every policy is
    priced on its own reads, with no separate sentinel-cache-hit
    distribution — the tournament compares *policies*, not cache warmth.
    Public and standalone-callable for the golden differential tests.
    ``trace_prefix`` names the cell's span trace ids.
    """
    from repro.replay import ReplayConfig, replay_trace
    from repro.service.profiles import COLD, WARM
    from repro.ssd.config import SsdConfig
    from repro.traces.synthetic import MSR_WORKLOADS, generate_workload

    spec = cell_spec(kind, cells_per_wordline)
    trace = generate_workload(
        MSR_WORKLOADS[frontend], n_requests=requests, seed=seed
    )
    ssd_config = SsdConfig.for_spec(
        spec, channels=2, dies_per_channel=2, blocks_per_die=64
    )
    return replay_trace(
        trace,
        spec=spec,
        ssd_config=ssd_config,
        timing=NandTiming(),
        profiles={COLD: profile, WARM: profile},
        seed=seed,
        config=ReplayConfig(scale=scale, workers=1),
        trace_prefix=trace_prefix,
    )


def _cell_row(
    cfg: TournamentConfig,
    seed: int,
    policy: str,
    age: str,
    profile: RetryProfile,
    frontend: str,
) -> Dict[str, Any]:
    """Step 4 for one frontend; returns that cell's scorecard dict."""
    kind = cfg.kind.lower()
    report = replay_cell_frontend(
        frontend,
        kind,
        cfg.cells_per_wordline,
        profile,
        cfg.requests_per_cell,
        seed,
        cfg.scale,
        trace_prefix=f"{POLICY_ALIASES[policy]}/{age}/",
    )
    stress = cell_stress(kind, age)
    acct = report.accounting
    reads_measured = int(sum(len(v) for v in profile.samples.values()))
    extra_total = sum(int(v[:, 1].sum()) for v in profile.samples.values())
    client = report.service["clients"][frontend]
    return {
        "policy": POLICY_ALIASES[policy],
        "age": age,
        "frontend": frontend,
        "kind": kind,
        "pe_cycles": stress.pe_cycles,
        "retention_hours": stress.retention_hours,
        "reads_measured": reads_measured,
        "retries_per_read": profile.mean_retries(),
        "extra_per_read": extra_total / reads_measured if reads_measured else 0.0,
        "mean_read_us": profile.mean_read_us(NandTiming()),
        "pipelined": bool(profile.pipelined),
        "offered": int(acct["offered"]),
        "served": int(acct["served"]),
        "degraded": int(acct["degraded"]),
        "shed": int(acct["shed"]),
        "balanced": bool(acct["balanced"]),
        "p99_us": float(client["read_p99_us"]),
        "completed_iops": float(report.completed_iops),
        "profile_sha256": profile_digest(profile),
        "replay_sha256": replay_digest(report),
    }


def _run_cell(
    cfg: TournamentConfig, seed: int, model, unit: Tuple[str, str]
) -> List[Dict[str, Any]]:
    """One (policy, age) unit: measure its profile once, replay it under
    every frontend; returns the unit's cells in frontend order."""
    policy, age = unit
    profile = measure_cell_profile(
        policy,
        cfg.kind.lower(),
        age,
        cfg.cells_per_wordline,
        cfg.sentinel_ratio,
        cfg.wordline_step,
        model,
    )
    return [
        _cell_row(cfg, seed, policy, age, profile, frontend)
        for frontend in cfg.frontends
    ]


def _emit_cell_obs(cell: Dict[str, Any]) -> None:
    if not OBS.enabled:
        return
    labels = {
        "policy": cell["policy"],
        "age": cell["age"],
        "frontend": cell["frontend"],
    }
    if OBS.metrics.enabled:
        OBS.metrics.counter(
            "repro_tournament_cells_total",
            help="tournament grid cells completed",
            policy=cell["policy"],
        ).inc()
        OBS.metrics.gauge(
            "repro_tournament_retries_per_read",
            help="measured retries per read of one tournament cell",
            **labels,
        ).set(cell["retries_per_read"])
        OBS.metrics.gauge(
            "repro_tournament_p99_us",
            help="replayed read p99 latency of one tournament cell",
            **labels,
        ).set(cell["p99_us"])
    if OBS.tracer.enabled:
        OBS.tracer.emit(
            "tournament_cell",
            policy=cell["policy"],
            age=cell["age"],
            frontend=cell["frontend"],
            retries_per_read=float(cell["retries_per_read"]),
            p99_us=float(cell["p99_us"]),
            iops=float(cell["completed_iops"]),
            balanced=bool(cell["balanced"]),
        )


def run_tournament(
    config: Optional[TournamentConfig] = None, seed: int = 0
) -> TournamentReport:
    """Race the configured policies over the grid; return the report."""
    cfg = config or TournamentConfig()
    kind = cfg.kind.lower()
    model = tournament_model(kind, cfg.cells_per_wordline, cfg.sentinel_ratio)
    units = [(policy, age) for policy in cfg.policies for age in cfg.ages]
    engine = ParallelMap(workers=cfg.workers)
    with shared_cells():
        per_unit = engine.run(
            partial(_run_cell, cfg, seed, model), units, label="tournament"
        )
    cells: List[Dict[str, Any]] = [cell for unit in per_unit for cell in unit]
    # sentinel-vs-rival deltas, computed post-merge in canonical order
    sentinel_by: Dict[Tuple[str, str], Dict[str, Any]] = {
        (c["age"], c["frontend"]): c
        for c in cells
        if c["policy"] == "sentinel"
    }
    for c in cells:
        ref = sentinel_by.get((c["age"], c["frontend"]))
        if ref is None:
            continue
        c["vs_sentinel"] = {
            "retries_per_read": c["retries_per_read"] - ref["retries_per_read"],
            "p99_us": c["p99_us"] - ref["p99_us"],
            "completed_iops": c["completed_iops"] - ref["completed_iops"],
        }
    for c in cells:
        _emit_cell_obs(c)
    return TournamentReport(
        kind=kind,
        seed=seed,
        cells_per_wordline=cfg.cells_per_wordline,
        sentinel_ratio=cfg.sentinel_ratio,
        requests_per_cell=cfg.requests_per_cell,
        wordline_step=cfg.wordline_step,
        policies=[POLICY_ALIASES[p] for p in cfg.policies],
        ages=list(cfg.ages),
        frontends=list(cfg.frontends),
        cells=cells,
    )
