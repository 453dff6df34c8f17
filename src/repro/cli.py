"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``characterize``  run the factory sweep on a training die and write the
                  sentinel model JSON artifact.
``read``          serve one page read on an aged die with every policy and
                  show the retry/latency accounting.
``simulate``      trace-driven SSD comparison (synthetic workloads or
                  block trace files).
``serve``         online serving layer: concurrent clients + voltage-offset
                  cache + background scrubber (``--smoke`` for CI).
``replay``        trace-driven replay of a block-level trace (MSR CSV,
                  blkparse text or synthetic workload) through the
                  serving layer, with optional batched die scheduling
                  (``--batch``) and sharded preprocessing (``--workers``).
``fleet``         multi-device, multi-tenant fleet with cohort voltage-cache
                  warm-start and per-tenant SLO accounting.
``tournament``    race read-retry policies across a frontend x chip-age
                  grid (``--check`` exits non-zero unless sentinel beats
                  current-flash on retries/read in every cell).
``campaign``      lifetime scenario campaign: devices aging through P/E
                  phases and environments while they serve.
``chaos``         fault-injection campaign: hardened serving layer plus a
                  chip-level read sweep under a declarative fault plan.
``overhead``      sentinel space-overhead report for a chip/ratio.
``figure``        run one paper-figure driver and print its rows.
``stats``         summarize an exported observability JSONL trace
                  (``--follow`` tails a streaming trace live).
``spans``         assemble causal request span trees from a trace and
                  report the critical-path phase breakdown (``--check``
                  exits non-zero if phases fail to reconcile with the
                  end-to-end latencies or a span leaves its parent).

``replay``, ``fleet``, ``tournament``, ``campaign`` and ``chaos`` exit
non-zero if the request accounting identity (served + degraded + shed ==
offered) breaks; each of them and ``serve`` writes its canonical JSON
report to ``--json``.

Global flags: ``-v`` raises verbosity, ``-q`` silences informational
output.  Observability flags (``read``/``simulate``/``serve``/``replay``/
``fleet``/``tournament``/``campaign``/``chaos``): ``--obs-trace``/
``--obs-prom`` capture and export the run's events and metrics,
``--obs-spans`` additionally records causal request spans (replay with
``repro spans``), ``--obs-stream`` appends trace events to the
``--obs-trace`` file as they happen (pair with ``repro stats --follow``
in another terminal), and ``--obs-port`` serves a live Prometheus
``/metrics`` endpoint for the duration of the run (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro import __version__
from repro.obs.log import echo, setup_logging

#: the chip kinds the simulated commands build (``exp.common.sim_spec``)
_KINDS = ("tlc", "qlc")


class CommandError(Exception):
    """A clean command failure: ``main`` prints ``repro <command>: <message>``
    to stderr and exits with ``status``."""

    def __init__(self, message: str, status: int = 1):
        super().__init__(message)
        self.status = status


def _spec(kind: str, cells: int, wordlines_per_layer: int = 4):
    from repro.exp.common import sim_spec

    return sim_spec(kind, cells_per_wordline=cells,
                    wordlines_per_layer=wordlines_per_layer)


def _read_input(path: str, load: Callable[[str], Any], what: str,
                expected: str) -> Any:
    """``load(path)``, or a :class:`CommandError` naming the bad input.

    An unreadable file fails as ``cannot read <what> <path>``; one that
    ``load`` rejects with a ``KeyError`` or ``ValueError`` (such as a
    ``json.JSONDecodeError``) as ``<path> is not <expected>``.
    """
    try:
        return load(path)
    except OSError as exc:
        raise CommandError(
            f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (KeyError, ValueError) as exc:
        raise CommandError(f"{path} is not {expected}: {exc}") from exc


def _write_output(prefix: str, what: str, path: str,
                  write: Callable[[str], str]) -> int:
    """Run ``write(path)`` and echo the line it returns.

    Returns 0, or 1 after a ``<prefix>: cannot write <what> to <path>``
    message on an unwritable path (the run's results are on stdout by
    then, so this must not raise).
    """
    try:
        done = write(path)
    except OSError as exc:
        print(f"{prefix}: cannot write {what} to {path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    echo(done)
    return 0


def _maybe_enable_obs(args: argparse.Namespace) -> None:
    """Turn on observability, from empty, when an export flag asked for it."""
    trace_path = args.obs_trace
    spans_path = args.obs_spans
    if not (trace_path or args.obs_prom or spans_path
            or args.obs_port is not None):
        return
    from repro import obs
    from repro.obs import OBS

    obs.reset()
    obs.enable(
        metrics=True,
        tracing=bool(trace_path or spans_path),
        spans=bool(spans_path),
    )
    if trace_path and args.obs_stream:
        try:
            OBS.tracer.stream_to(trace_path)
        except OSError as exc:
            print(f"obs: cannot stream trace to {trace_path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
    if args.obs_port is not None:
        from repro.obs.exposition import MetricsServer

        server = MetricsServer(port=args.obs_port)
        args._obs_server = server
        echo(f"obs: serving live metrics at {server.start()}")


def _export_obs(args: argparse.Namespace) -> int:
    """Write the JSONL trace / Prometheus text / spans the flags requested.

    Returns 0 on success, 1 if an export path was unwritable.
    """
    from repro.obs import OBS

    tracer = OBS.tracer
    tracer.close_stream()  # flush the streamed copy before re-export

    def trace(path: str) -> str:
        n = tracer.export_jsonl(path)
        dropped = tracer.dropped
        return f"obs: wrote {n} events -> {path}" + (
            f" ({dropped} oldest dropped by ring bound)" if dropped else "")

    def metrics(path: str) -> str:
        Path(path).write_text(OBS.metrics.render_prometheus(),
                              encoding="utf-8")
        return f"obs: wrote metrics exposition -> {path}"

    def spans(path: str) -> str:
        n = tracer.export_jsonl(path, kinds=("span",))
        return (f"obs: wrote {n} span events -> {path} "
                f"(inspect with `repro spans {path}`)")

    status = 0
    for what, path, write in (("trace", args.obs_trace, trace),
                              ("metrics", args.obs_prom, metrics),
                              ("spans", args.obs_spans, spans)):
        if path:
            status |= _write_output("obs", what, path, write)
    server = getattr(args, "_obs_server", None)
    if server is not None:
        server.stop()
    return status


def _finish_report(
    args: argparse.Namespace,
    report,
    imbalance: Optional[Callable[[Any], str]] = None,
) -> int:
    """Shared tail of the report-producing commands.

    Prints ``report.render()``, writes ``report.to_json()`` to ``--json``
    and exports the observability captures.  With ``imbalance`` given, a
    report whose ``balanced`` is false fails the run (exit 1), and
    ``imbalance(report)`` supplies the detail of the message.  Returns
    the exit status: 1 on an unwritable ``--json`` path (the report is
    on stdout by then) or on an obs export failure.
    """
    echo(report.render())

    def write(path: str) -> str:
        Path(path).write_text(report.to_json() + "\n", encoding="utf-8")
        return f"{args.report_label} report -> {path}"

    if args.json and _write_output(f"repro {args.command}", "report",
                                   args.json, write):
        return 1
    status = _export_obs(args)
    if imbalance is not None and not report.balanced:
        raise CommandError(f"FAIL: request accounting imbalanced "
                           f"{imbalance(report)}")
    return status


def _identity(report) -> str:
    """The served + degraded + shed != offered detail of one report."""
    acc = report.accounting
    return (f"served {acc.get('served')} + degraded {acc.get('degraded')} "
            f"+ shed {acc.get('shed')} != offered {acc.get('offered')}")


def _broken_cells(report, keys) -> str:
    """The imbalanced grid cells of a tournament or campaign report."""
    broken = ["/".join(c[k] for k in keys)
              for c in report.cells if not c.get("balanced")]
    return f"in {len(broken)} cells: " + ", ".join(broken)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_characterize(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.characterization import characterize_chip
    from repro.exp.common import training_stresses
    from repro.flash.chip import FlashChip

    spec = _spec(args.kind, args.cells)
    chip = FlashChip(spec, seed=args.seed, sentinel_ratio=args.ratio)
    echo(f"characterizing {spec.name} (seed={args.seed}) ...")
    result = characterize_chip(
        chip,
        blocks=(0,),
        stresses=training_stresses(args.kind),
        wordlines=range(0, spec.wordlines_per_block, args.wordline_step),
        workers=args.workers,
    )
    resid = np.abs(result.inference_residuals()).mean()

    def write(path: str) -> str:
        result.model.save(path)
        return (f"fitted on {len(result.d_rates)} samples; "
                f"residual {resid:.2f} steps; model -> {path}")

    return _write_output("repro characterize", "model", args.out, write)


def cmd_read(args: argparse.Namespace) -> int:
    from repro.analysis import print_table
    from repro.core.controller import SentinelController
    from repro.core.models import SentinelModel
    from repro.ecc.capability import CapabilityEcc
    from repro.flash.chip import FlashChip
    from repro.flash.mechanisms import StressState
    from repro.retry import CurrentFlashPolicy, OraclePolicy
    from repro.ssd.timing import NandTiming

    spec = _spec(args.kind, args.cells)
    chip = FlashChip(spec, seed=args.seed)
    chip.set_block_stress(
        args.block,
        StressState(
            pe_cycles=args.pe,
            retention_hours=args.retention_hours,
            temperature_c=args.temperature,
        ),
    )
    ecc = CapabilityEcc.for_spec(spec)
    if args.model:
        model = _read_input(args.model, SentinelModel.load, "model",
                            "a sentinel model")
    else:
        from repro.exp.common import trained_model

        model = trained_model(args.kind)
    _maybe_enable_obs(args)
    cols = chip.block_columns(args.block, [args.wordline])
    timing = NandTiming()
    rows = []
    for policy in (
        CurrentFlashPolicy(ecc, spec),
        SentinelController(ecc, model),
        OraclePolicy(ecc),
    ):
        [[o]] = policy.read_batch(cols, [args.page])
        rows.append(
            (
                policy.name,
                o.retries,
                o.extra_single_reads,
                f"{timing.read_outcome_us(o):.0f} us",
                f"{o.final_rber:.2e}",
                "ok" if o.success else "FAIL",
            )
        )
    print_table(
        rows,
        headers=["policy", "retries", "aux reads", "latency", "RBER", "status"],
        title=(
            f"{spec.name} block {args.block} wordline {args.wordline} "
            f"page {args.page} (P/E {args.pe}, {args.retention_hours:.0f} h, "
            f"{args.temperature:.0f} degC)"
        ),
    )
    return _export_obs(args)


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import print_table
    from repro.exp.fig14 import run_fig14
    from repro.traces.adapters import load_trace

    _maybe_enable_obs(args)
    traces = None
    workloads: Optional[List[str]] = args.workloads or None
    if args.trace:
        traces = {}
        for path in args.trace:
            t = _read_input(
                path,
                lambda p: load_trace(p, max_requests=args.requests),
                "trace", "a block trace",
            )
            traces[t.name] = t
        workloads = list(traces)
    result = run_fig14(
        args.kind,
        workloads=workloads,
        traces=traces,
        n_requests=args.requests,
        rate_scale=args.rate_scale,
    )
    rows = [(n, f"{r:.1%}") for n, r in sorted(result.reductions.items())]
    rows.append(("average", f"{result.average_reduction:.1%}"))
    print_table(rows, headers=["workload", "read-latency reduction"])
    return _export_obs(args)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        FlashReadService,
        ServiceConfig,
        measure_service_profiles,
        mixed_scenario,
        synthetic_profiles,
    )
    from repro.ssd.config import SsdConfig
    from repro.ssd.timing import NandTiming

    _maybe_enable_obs(args)
    if args.smoke:
        # chip-free: synthetic retry mixtures, a small workload — seconds
        profiles = synthetic_profiles(args.kind)
        n_requests = min(args.requests, 300)
        scenario = "smoke"
    else:
        echo(f"measuring cold/warm sentinel profiles on the aged "
             f"{args.kind} evaluation block ...")
        profiles = measure_service_profiles(args.kind, workers=args.workers)
        n_requests = args.requests
        scenario = "mixed"
    clients = mixed_scenario(
        n_requests=n_requests,
        read_iops=args.read_iops,
        footprint_pages=args.footprint_pages,
    )
    spec = _spec(args.kind, args.cells)
    config = SsdConfig.for_spec(
        spec, channels=2, dies_per_channel=2, blocks_per_die=64
    )
    service = FlashReadService(
        spec=spec,
        ssd_config=config,
        timing=NandTiming(),
        profiles=profiles,
        seed=args.seed,
        config=ServiceConfig(
            cache_enabled=not args.no_cache,
            scrub_enabled=not args.no_scrub,
        ),
    )
    report = service.run(list(clients), scenario=scenario)
    return _finish_report(args, report)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault-injection campaign and report how the stack recovered.

    Exits non-zero when the serving layer's accounting identity breaks
    (served + degraded + shed must equal offered) — the invariant the
    resilience machinery is supposed to preserve under any plan.
    """
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan

    if args.plan:
        plan = _read_input(args.plan, FaultPlan.load, "plan", "a fault plan")
    elif args.no_faults:
        plan = FaultPlan.none()
    else:
        plan = FaultPlan.standard()
    _maybe_enable_obs(args)
    report = run_chaos(
        plan,
        seed=args.seed,
        kind=args.kind,
        smoke=args.smoke,
        workers=args.workers,
        n_requests=args.requests,
    )
    return _finish_report(args, report, lambda r: f"({_identity(r)})")


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a block-level trace through the serving layer.

    Deterministic end to end: the replay report's JSON is byte-identical
    for any ``--workers`` count (only the pure LBA translation is
    sharded; the event simulation runs on one virtual clock).  Exits
    non-zero when served + degraded + shed != offered.
    """
    from repro.replay import ReplayConfig, replay_trace
    from repro.service import measure_service_profiles, synthetic_profiles
    from repro.ssd.config import SsdConfig
    from repro.ssd.timing import NandTiming
    from repro.traces.adapters import load_trace
    from repro.traces.synthetic import MSR_WORKLOADS, generate_workload

    if bool(args.trace) == bool(args.synthetic):
        raise CommandError(
            "exactly one of --trace / --synthetic is required", status=2)
    max_requests = args.requests
    if args.smoke:
        max_requests = min(max_requests or 300, 300)
    if args.trace:
        trace = _read_input(
            args.trace,
            lambda path: load_trace(path, fmt=args.format,
                                    max_requests=max_requests),
            "trace", "a block trace",
        )
    else:
        trace = generate_workload(
            MSR_WORKLOADS[args.synthetic],
            n_requests=max_requests or 4000,
            seed=args.seed,
        )
    _maybe_enable_obs(args)
    if args.measured and not args.smoke:
        echo(f"measuring cold/warm sentinel profiles on the aged "
             f"{args.kind} evaluation block ...")
        profiles = measure_service_profiles(args.kind, workers=args.workers)
    else:
        # synthetic retry mixtures: chip-free, seconds, deterministic —
        # the right default for an acceptance/CI command
        profiles = synthetic_profiles(args.kind)
    spec = _spec(args.kind, args.cells)
    config = SsdConfig.for_spec(
        spec, channels=2, dies_per_channel=2, blocks_per_die=64
    )
    echo(trace.describe())
    report = replay_trace(
        trace,
        spec=spec,
        ssd_config=config,
        timing=NandTiming(),
        profiles=profiles,
        seed=args.seed,
        config=ReplayConfig(
            scale=args.scale,
            batch_enabled=args.batch,
            workers=args.workers,
        ),
    )
    return _finish_report(args, report, lambda r: f"({_identity(r)})")


def cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate a multi-device, multi-tenant fleet with cohort warm-start.

    Deterministic end to end: the fleet report's JSON is byte-identical
    for any ``--workers`` count (device shards merge in canonical order).
    Exits non-zero when the accounting identity served + degraded + shed
    == offered breaks fleet-wide or for any tenant.
    """
    from repro.fleet import FleetConfig, run_fleet

    devices = args.devices
    tenants = args.tenants
    requests = args.requests
    if args.smoke:
        # CI-sized fleet: small enough for seconds, big enough that every
        # cohort has warm-started members and spillover actually fires
        devices = min(devices, 6)
        tenants = min(tenants, 3)
        requests = min(requests, 120)
    config = FleetConfig(
        n_devices=devices,
        n_tenants=tenants,
        workers=args.workers,
        requests_per_tenant=requests,
        read_fraction=args.read_fraction,
        mean_iops=args.read_iops,
        footprint_pages=args.footprint_pages,
        warm_start=not args.no_warm_start,
        kind=args.kind,
        cells_per_wordline=args.cells,
    )
    _maybe_enable_obs(args)
    report = run_fleet(config, seed=args.seed)
    return _finish_report(
        args, report,
        lambda r: f"({_identity(r)}; per-tenant: " + ", ".join(
            f"{t}={'ok' if v.get('balanced') else 'IMBALANCED'}"
            for t, v in sorted(r.accounting.get("tenants", {}).items())
        ) + ")",
    )


def cmd_tournament(args: argparse.Namespace) -> int:
    """Race read-retry policies across a (frontend x chip-age) grid.

    Deterministic end to end: each (policy, age) profile is measured
    once and replayed under every frontend; these units shard over the
    fan-out engine and merge in canonical (policy, age, frontend) cell
    order, so the report JSON is byte-identical for any ``--workers``
    count.  Exits 2 on an unknown or empty policy or age list, and
    non-zero when any cell breaks served + degraded + shed == offered,
    or (with ``--check``) when the sentinel policy fails to beat
    current-flash on retries/read in any cell.
    """
    from repro.tournament import TournamentConfig, run_tournament

    cells = args.cells
    requests = args.requests
    step = args.wordline_step
    if args.smoke:
        # CI-sized grid: a smoke sentinel model fits in under a second
        # and every cell stays in the hundreds of reads
        cells = min(cells, 8192)
        requests = min(requests, 240)
        step = max(step, 8)
    try:
        config = TournamentConfig(
            kind=args.kind,
            policies=tuple(args.policies),
            ages=tuple(args.ages),
            frontends=tuple(args.frontends),
            cells_per_wordline=cells,
            sentinel_ratio=args.ratio,
            wordline_step=step,
            requests_per_cell=requests,
            workers=args.workers,
        )
    except ValueError as exc:
        raise CommandError(str(exc), status=2) from exc
    _maybe_enable_obs(args)
    report = run_tournament(config, seed=args.seed)
    status = _finish_report(
        args, report,
        lambda r: _broken_cells(r, ("policy", "age", "frontend")),
    )
    if status == 0 and args.check and not report.sentinel_beats():
        raise CommandError("FAIL: sentinel did not beat current-flash "
                           "on retries/read in every cell")
    return status


def cmd_campaign(args: argparse.Namespace) -> int:
    """Age a device grid through its service life, serving each phase.

    Deterministic end to end: cells shard over the fan-out engine and
    merge in canonical (policy, schedule, environment, workload) order,
    so the report JSON is byte-identical for any ``--workers`` count.
    Exits non-zero when any phase breaks served + degraded + shed ==
    offered.
    """
    import json

    from repro.campaign import CampaignConfig, run_campaign

    grid = {}
    if args.grid:
        grid = _read_input(
            args.grid,
            lambda path: json.loads(Path(path).read_text(encoding="utf-8")),
            "grid", "JSON",
        )
        if not isinstance(grid, dict):
            raise CommandError(f"bad grid: {args.grid} holds no JSON object",
                               status=2)
    if args.phases is not None:
        grid["phases"] = args.phases
    grid.setdefault("workers", args.workers)
    try:
        if args.smoke:
            # CI-sized lifetime: the default 2-policy cell pair ages
            # through four phases in seconds at tournament-smoke chip scale
            grid["cells_per_wordline"] = min(
                int(grid.get("cells_per_wordline", 8192)), 8192)
            grid["requests_per_phase"] = min(
                int(grid.get("requests_per_phase", 120)), 120)
            grid["phases"] = min(int(grid.get("phases", 4)), 4)
            grid["wordline_step"] = max(int(grid.get("wordline_step", 8)), 8)
        config = CampaignConfig.from_dict(grid)
    except (TypeError, ValueError) as exc:
        raise CommandError(f"bad grid: {exc}", status=2) from exc
    _maybe_enable_obs(args)
    report = run_campaign(config, seed=args.seed)
    return _finish_report(
        args, report,
        lambda r: _broken_cells(
            r, ("policy", "schedule", "environment", "workload")
        ),
    )


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.stats import follow_stats, render, stats_from_jsonl

    if args.follow:
        return follow_stats(
            args.trace,
            interval_s=args.interval,
            width=args.width,
            max_updates=args.updates,
        )
    stats = _read_input(args.trace, stats_from_jsonl, "trace",
                        "a JSONL trace")
    echo(render(stats, width=args.width))
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    """Assemble span trees from a trace and report the phase breakdown.

    ``--check`` turns reconciliation into an exit status: the sum of
    critical-path leaf durations must equal each request's end-to-end
    latency (up to float tolerance), no span may end before it starts or
    leave its parent's interval, and there must be at least one tree.
    """
    from repro.obs.spans import (
        assemble,
        export_trees_json,
        phase_breakdown,
        reconcile,
        render_breakdown,
        render_tree,
    )
    from repro.obs.trace import load_jsonl

    events = _read_input(args.trace, load_jsonl, "trace", "a JSONL trace")
    trees = assemble(events)
    bd = phase_breakdown(trees)
    echo(render_breakdown(bd))
    for tree in trees[: max(0, args.top)]:
        echo("")
        echo(render_tree(tree))

    def write(path: str) -> str:
        export_trees_json(trees, path)
        return f"span trees -> {path}"

    if args.json and _write_output("repro spans", "trees", args.json, write):
        return 1
    if args.check:
        if not trees:
            raise CommandError("FAIL: no span trees in trace "
                               "(was the run missing --obs-spans?)")
        ok, delta = reconcile(trees)
        if not ok:
            raise CommandError(f"FAIL: phase sums diverge from end-to-end "
                               f"latencies (max delta {delta:.3f} us)")
        if bd.stray_spans:
            raise CommandError(f"FAIL: {bd.stray_spans} spans end before "
                               f"they start or leave their parent")
        echo("spans check: ok")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    from repro.core.sentinel import sentinel_overhead
    from repro.flash.spec import MLC_SPEC, QLC_SPEC, TLC_SPEC

    spec = {"tlc": TLC_SPEC, "qlc": QLC_SPEC, "mlc": MLC_SPEC}[args.kind]
    report = sentinel_overhead(spec, args.ratio)
    echo(f"{spec.name}: {report.describe()}")
    echo(
        f"  page {spec.page_bytes} B = user {spec.user_bytes} B + OOB "
        f"{spec.oob_bytes} B (parity {spec.ecc_parity_bytes} B, free "
        f"{spec.oob_free_bytes} B)"
    )
    return 0


# mirror of repro.traces.synthetic.MSR_WORKLOADS — listed here so the
# parser builds without importing numpy (a test pins the two in sync)
_REPLAY_WORKLOADS = (
    "hm_0", "mds_0", "prn_0", "proj_0",
    "rsrch_0", "src2_0", "stg_0", "usr_0",
)

_FIGURES = {
    "fig2": ("repro.exp.fig2", "run_fig2"),
    "fig3": ("repro.exp.fig3", "run_fig3"),
    "fig4": ("repro.exp.fig4", "run_fig4"),
    "fig5": ("repro.exp.fig5", "run_fig5"),
    "fig6": ("repro.exp.fig6", "run_fig6"),
    "fig7": ("repro.exp.fig7", "run_fig7"),
    "fig8": ("repro.exp.fig8", "run_fig8"),
    "fig10": ("repro.exp.fig10", "run_fig10"),
    "fig12": ("repro.exp.fig12", "run_fig12"),
    "fig13": ("repro.exp.fig13", "run_fig13"),
    "fig14": ("repro.exp.fig14", "run_fig14"),
    "fig15": ("repro.exp.fig15", "run_fig15"),
    "fig16": ("repro.exp.fig16", "run_fig16"),
    "fig17": ("repro.exp.fig16", "run_fig17"),
    "fig18": ("repro.exp.fig18", "run_fig18"),
    "fig19": ("repro.exp.fig19", "run_fig19"),
    "table1": ("repro.exp.table1", "run_table1"),
    "read-disturb": ("repro.exp.read_disturb", "run_read_disturb"),
    "batch-transfer": ("repro.exp.batch_transfer", "run_batch_transfer"),
}


def cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    from repro.analysis import print_table

    module_name, func_name = _FIGURES[args.name]
    if args.kind and func_name in ("run_fig16", "run_fig17"):
        raise CommandError(f"{args.name} runs a fixed flash kind; "
                           f"drop --kind", status=2)
    driver = getattr(importlib.import_module(module_name), func_name)
    result = driver(**({"kind": args.kind} if args.kind else {}))
    print_table(result.rows(), title=f"{args.name} ({args.kind or 'default'})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sentinel-assisted fast read over 3D flash (MICRO'20 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only show warnings and errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, flags=("kind", "cells", "seed"), kinds=_KINDS):
        """The shared chip flags ``p`` takes, in ``--help`` order."""
        if "kind" in flags:
            p.add_argument("--kind", choices=kinds, default="tlc")
        if "cells" in flags:
            p.add_argument("--cells", type=int, default=65536,
                           help="cells per simulated wordline")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=1)

    def add_json(p, label):
        """``--json`` of a report command; ``label`` names its report."""
        p.add_argument("--json", metavar="PATH",
                       help=f"write the canonical JSON {label} report here")
        p.set_defaults(report_label=label)

    def add_workers(p):
        p.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="worker processes for the deterministic fan-out engine "
                 "(<=1: serial; results are byte-identical either way)",
        )

    def add_obs(p):
        p.add_argument(
            "--obs-trace", metavar="PATH",
            help="enable event tracing and export a JSONL trace here "
                 "(replay with `repro stats`)",
        )
        p.add_argument(
            "--obs-prom", metavar="PATH",
            help="enable metrics and write a Prometheus text exposition here",
        )
        p.add_argument(
            "--obs-spans", metavar="PATH",
            help="record causal request spans and export them as JSONL "
                 "here (inspect with `repro spans`)",
        )
        p.add_argument(
            "--obs-port", type=int, metavar="PORT",
            help="serve live Prometheus metrics on 127.0.0.1:PORT for the "
                 "duration of the run (0 picks a free port)",
        )
        p.add_argument(
            "--obs-stream", action="store_true",
            help="append events to the --obs-trace file as they happen "
                 "(watch with `repro stats --follow` in another terminal)",
        )

    p = sub.add_parser("characterize", help="fit and save a sentinel model")
    add_common(p)
    p.set_defaults(seed=100)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--ratio", type=float, default=0.002)
    p.add_argument("--wordline-step", type=int, default=4)
    add_workers(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("read", help="serve one page read with every policy")
    add_common(p)
    p.add_argument("--model", help="sentinel model JSON (default: fit in-process)")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--wordline", type=int, default=10)
    p.add_argument("--page", default="MSB")
    p.add_argument("--pe", type=int, default=5000)
    p.add_argument("--retention-hours", type=float, default=8760.0)
    p.add_argument("--temperature", type=float, default=25.0)
    add_obs(p)
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("simulate", help="trace-driven SSD comparison")
    add_common(p, ("kind",))
    p.add_argument("--workloads", nargs="*", help="synthetic workload names")
    p.add_argument("--trace", nargs="*",
                   help="block traces to replay (MSR CSV or blkparse "
                        "text, sniffed per file)")
    p.add_argument("--requests", type=int, default=6000)
    p.add_argument("--rate-scale", type=float, default=20.0)
    add_obs(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="online serving layer: clients + voltage cache + scrubber",
    )
    add_common(p)
    p.add_argument(
        "--smoke", action="store_true",
        help="chip-free smoke run (synthetic retry profiles, small workload)",
    )
    p.add_argument("--requests", type=int, default=800,
                   help="requests of the open-loop reader (closed-loop "
                        "client gets half)")
    p.add_argument("--read-iops", type=float, default=4000.0,
                   help="open-loop reader arrival rate")
    p.add_argument("--footprint-pages", type=int, default=2048,
                   help="logical pages each client touches")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the voltage-offset cache")
    p.add_argument("--no-scrub", action="store_true",
                   help="disable the background sentinel scrubber")
    add_json(p, "service")
    add_workers(p)
    add_obs(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "replay",
        help="replay a block-level trace through the serving layer",
    )
    add_common(p)
    p.add_argument("--trace", metavar="PATH",
                   help="block trace to replay (MSR CSV or blkparse text)")
    p.add_argument("--format", metavar="NAME", default=None,
                   help="trace format, msr or blkparse (default: sniff "
                        "the file)")
    p.add_argument("--synthetic", choices=_REPLAY_WORKLOADS,
                   help="generate and replay a synthetic MSR stand-in")
    p.add_argument("--scale", type=float, default=1.0,
                   help="time compression: arrivals at 1/scale of the "
                        "trace's recorded gaps")
    p.add_argument("--batch", action="store_true",
                   help="enable batched die scheduling (coalesce co-queued "
                        "same-wordline reads behind one sentinel inference)")
    p.add_argument("--requests", type=int, default=None,
                   help="cap the replayed request count (synthetic default "
                        "4000)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized run: at most 300 requests, synthetic "
                        "retry profiles")
    p.add_argument("--measured", action="store_true",
                   help="measure cold/warm profiles on the aged evaluation "
                        "block instead of using synthetic mixtures")
    add_json(p, "replay")
    add_workers(p)
    add_obs(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "fleet",
        help="multi-device multi-tenant fleet with cohort cache warm-start",
    )
    add_common(p)
    p.set_defaults(cells=4096)
    p.add_argument("--devices", type=int, default=8,
                   help="devices in the fleet")
    p.add_argument("--tenants", type=int, default=4,
                   help="tenant workload streams")
    p.add_argument("--requests", type=int, default=200,
                   help="requests per tenant")
    p.add_argument("--read-fraction", type=float, default=0.9,
                   help="read share of each tenant's requests")
    p.add_argument("--read-iops", type=float, default=2000.0,
                   help="per-tenant open-loop arrival rate")
    p.add_argument("--footprint-pages", type=int, default=1024,
                   help="logical pages per tenant partition")
    p.add_argument("--no-warm-start", action="store_true",
                   help="disable cohort cache warm-start (every device "
                        "runs cold)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized fleet: at most 6 devices x 3 tenants x "
                        "120 requests")
    add_json(p, "fleet")
    add_workers(p)
    add_obs(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "tournament",
        help="race read-retry policies across a frontend x chip-age grid",
    )
    add_common(p)
    p.set_defaults(seed=0, cells=8192)
    p.add_argument("--policies", nargs="*",
                   default=["current-flash", "sentinel", "tracked-sentinel",
                            "adaptive", "online-model", "oracle"],
                   help="policies to race (aliases: tracked-sentinel, "
                        "adaptive, oracle)")
    p.add_argument("--ages", nargs="*", default=["mid", "old"],
                   choices=["mid", "old"],
                   help="chip-age presets (P/E + retention per kind)")
    p.add_argument("--frontends", nargs="+", default=["hm_0"],
                   choices=_REPLAY_WORKLOADS,
                   help="synthetic MSR workloads each (policy, age) profile "
                        "is replayed under, one cell each")
    p.add_argument("--requests", type=int, default=240,
                   help="replayed requests per grid cell")
    p.add_argument("--ratio", type=float, default=0.02,
                   help="sentinel cell ratio of the raced chips")
    p.add_argument("--wordline-step", type=int, default=8,
                   help="measure every Nth wordline of the aged block")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized grid: at most 8192 cells/wordline x 240 "
                        "requests/cell")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless sentinel beats current-flash "
                        "on retries/read in every cell")
    add_json(p, "tournament")
    add_workers(p)
    add_obs(p)
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser(
        "campaign",
        help="lifetime scenario campaign: devices aging while they serve",
    )
    add_common(p, ("seed",))
    p.add_argument("--grid", metavar="PATH",
                   help="campaign grid JSON (CampaignConfig fields; "
                        "CLI flags override it)")
    p.add_argument("--phases", type=int, default=None,
                   help="aging phases per cell (each ends with one "
                        "serving window)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized campaign: at most 8192 cells/wordline x "
                        "4 phases x 120 requests/phase")
    add_json(p, "campaign")
    add_workers(p)
    add_obs(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "chaos",
        help="fault-injection campaign: service resilience + chip sweep",
    )
    add_common(p, ("kind", "seed"))
    p.add_argument(
        "--plan", metavar="PATH",
        help="fault-plan JSON (default: the built-in standard plan)",
    )
    p.add_argument(
        "--no-faults", action="store_true",
        help="run the campaign with an empty plan (differential baseline)",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized campaign: small wordlines, thin chip sweep",
    )
    p.add_argument("--requests", type=int, default=200,
                   help="requests of the serving phase's open-loop reader")
    add_json(p, "chaos")
    add_workers(p)
    add_obs(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("overhead", help="sentinel space-overhead report")
    # the only command that prices an MLC spec
    add_common(p, ("kind",), kinds=_KINDS + ("mlc",))
    p.set_defaults(kind="qlc")
    p.add_argument("--ratio", type=float, default=0.002)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("figure", help="run one paper-figure driver")
    p.add_argument("name", choices=sorted(_FIGURES))
    add_common(p, ("kind",))
    p.set_defaults(kind=None, func=cmd_figure)

    p = sub.add_parser(
        "stats", help="summarize an exported obs JSONL trace"
    )
    p.add_argument("trace", help="JSONL trace path (from --obs-trace)")
    p.add_argument("--width", type=int, default=48,
                   help="bar-chart width in characters")
    p.add_argument("--follow", action="store_true",
                   help="tail the trace file and re-render the summary "
                        "live as events stream in (Ctrl-C to stop)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="--follow refresh interval in seconds")
    p.add_argument("--updates", type=int, default=None,
                   help="stop --follow after N refreshes (default: "
                        "until Ctrl-C)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "spans",
        help="causal request span trees: critical-path phase breakdown",
    )
    p.add_argument("trace", help="JSONL trace path (from --obs-spans or "
                                 "--obs-trace)")
    p.add_argument("--top", type=int, default=3,
                   help="render the first N span trees (0 hides them)")
    p.add_argument("--json", metavar="PATH",
                   help="export the assembled trees as nested JSONL here")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless phase sums reconcile with "
                        "end-to-end latencies, every span runs forward "
                        "inside its parent and at least one tree exists")
    p.set_defaults(func=cmd_spans)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return exc.status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
