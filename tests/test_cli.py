"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
#: events sampled from simulate, tournament, campaign, chaos, fleet and
#: batched-replay traces, plus hand-written edge cases
STATS_CORPUS = Path(__file__).parent / "data" / "stats_corpus.jsonl"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_parser_pinned(self):
        """Every subcommand's actions match tests/golden/cli_parser.json.

        The ``--help`` text itself is not pinned: argparse lays it out
        differently across Python versions.  Re-record an intended change
        with ``python -c "import json, tests.test_cli as t;
        print(json.dumps(t.parser_spec(), indent=1))"
        > tests/golden/cli_parser.json``.
        """
        golden = json.loads((GOLDEN / "cli_parser.json").read_text())
        assert parser_spec() == golden


class TestKindChoices:
    """The simulated commands build only the paper's TLC and QLC chips."""

    @pytest.mark.parametrize("argv", [
        ["characterize", "--out", "model.json"],
        ["read"],
        ["serve", "--smoke"],
        ["replay", "--synthetic", "hm_0", "--smoke"],
        ["chaos", "--smoke"],
    ])
    def test_mlc_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--kind", "mlc"])
        assert exc.value.code == 2
        assert "invalid choice: 'mlc'" in capsys.readouterr().err

    def test_overhead_prices_mlc(self, capsys):
        assert main(["overhead", "--kind", "mlc"]) == 0
        assert "sentinel cells" in capsys.readouterr().out


class TestEngineWorkerSpans:
    """fleet, tournament and campaign run their cells in engine workers,
    whose span events come back with the shard results, so the span file
    is the same at any worker count.  Each run is a fresh process: an
    in-process rerun finds the sentinel model cached and traces fewer
    events before its first span."""

    @pytest.mark.parametrize("command", ["fleet", "tournament", "campaign"])
    def test_obs_spans_identical_at_1_2_workers(self, command, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        spans = {}
        for workers in (1, 2):
            path = tmp_path / f"spans-{workers}.jsonl"
            subprocess.run(
                [sys.executable, "-m", "repro", "-q", command, "--smoke",
                 "--seed", "1", "--workers", str(workers),
                 "--obs-spans", str(path)],
                cwd=tmp_path, env=env, check=True, capture_output=True,
            )
            spans[workers] = path.read_bytes()
        assert spans[1].count(b'"kind": "span"') > 100
        assert spans[1] == spans[2]


class TestObsRunsStartEmpty:
    def test_second_in_process_run_exports_the_same_trace(self, tmp_path,
                                                          capsys):
        """An in-process run does not inherit a previous run's events."""
        exports = []
        for i in range(2):
            path = tmp_path / f"trace-{i}.jsonl"
            assert main(["serve", "--smoke", "--seed", "1", "--requests",
                         "100", "--obs-trace", str(path)]) == 0
            exports.append(path.read_text())
        capsys.readouterr()
        assert exports[0] == exports[1]


def parser_spec():
    """Each subcommand's actions, in declaration order, as plain JSON."""
    import argparse

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            {
                "options": a.option_strings,
                "dest": a.dest,
                "default": repr(a.default),
                "choices": None if a.choices is None else list(a.choices),
                "type": getattr(a.type, "__name__", None),
                "nargs": a.nargs,
                "metavar": a.metavar,
                "help": a.help,
            }
            for a in parser._actions
        ]
        for name, parser in sub.choices.items()
    }


class TestOverhead:
    def test_reports_paper_numbers(self, capsys):
        assert main(["overhead", "--kind", "qlc"]) == 0
        out = capsys.readouterr().out
        assert "297 sentinel cells" in out
        assert "fits in free OOB" in out

    def test_large_ratio_flags_parity(self, capsys):
        main(["overhead", "--kind", "tlc", "--ratio", "0.02"])
        assert "parity" in capsys.readouterr().out


class TestCharacterizeAndRead:
    def test_characterize_writes_model(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(
            [
                "characterize",
                "--kind", "tlc",
                "--cells", "8192",
                "--out", str(out),
                "--wordline-step", "96",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["sentinel_voltage"] == 4
        assert len(data["correlations"]) >= 1

    def test_read_with_saved_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(
            [
                "characterize",
                "--kind", "tlc",
                "--cells", "8192",
                "--out", str(model_path),
                "--wordline-step", "96",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "read",
                "--kind", "tlc",
                "--cells", "8192",
                "--model", str(model_path),
                "--wordline", "3",
                "--pe", "5000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "current-flash" in out and "sentinel" in out and "opt" in out

    def test_read_table_pinned(self, tmp_path, capsys):
        """The printed table of one seed and wordline is byte-identical."""
        model_path = tmp_path / "model.json"
        main(
            [
                "characterize",
                "--kind", "tlc",
                "--cells", "8192",
                "--out", str(model_path),
                "--wordline-step", "96",
            ]
        )
        capsys.readouterr()
        argv = [
            "read", "--kind", "tlc", "--cells", "8192",
            "--model", str(model_path), "--seed", "2", "--block", "1",
            "--wordline", "7", "--pe", "5000",
        ]
        assert main(argv) == 0
        golden = Path(__file__).parent / "golden" / "read_tlc_seed2_wl7.txt"
        assert capsys.readouterr().out == golden.read_text()


class TestBadFilesFailCleanly:
    """A bad input or output path ends in one ``repro <command>:`` line on
    stderr and exit 1, never a traceback."""

    def test_simulate_bad_trace(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.csv")
        assert main(["simulate", "--trace", missing]) == 1
        assert capsys.readouterr().err == (
            f"repro simulate: cannot read trace {missing}: "
            f"No such file or directory\n")
        garbage = tmp_path / "garbage.csv"
        garbage.write_text("garbage line\n")
        assert main(["simulate", "--trace", str(garbage)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro simulate: {garbage} is not a block trace: "
            f"could not sniff")
        assert err.count("\n") == 1

    def test_read_missing_model(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        assert main(["read", "--cells", "8192", "--model", missing]) == 1
        assert capsys.readouterr().err == (
            f"repro read: cannot read model {missing}: "
            f"No such file or directory\n")

    def test_characterize_unwritable_out(self, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "model.json")
        assert main(["characterize", "--cells", "8192",
                     "--wordline-step", "96", "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"repro characterize: cannot write model to {out}: "
            f"No such file or directory\n")


class TestQuietFlag:
    def test_quiet_suppresses_info_output(self, capsys):
        from repro.obs.log import setup_logging

        try:
            assert main(["-q", "overhead", "--kind", "qlc"]) == 0
            assert capsys.readouterr().out == ""
            assert main(["overhead", "--kind", "qlc"]) == 0
            assert "sentinel cells" in capsys.readouterr().out
        finally:
            setup_logging(0)  # restore default console for later tests


class TestStatsCommand:
    def test_stats_renders_trace_summary(self, tmp_path, capsys):
        lines = [
            {"seq": 0, "kind": "read_attempt", "level": "ssd",
             "policy": "sentinel", "die": 0, "page_type": 2, "gc": False,
             "retries": 0, "extra": 0, "ts": 0.0, "service_us": 61.0},
            {"seq": 1, "kind": "read_attempt", "level": "ssd",
             "policy": "sentinel", "die": 1, "page_type": 0, "gc": False,
             "retries": 2, "extra": 1, "ts": 10.0, "service_us": 180.0},
            {"seq": 2, "kind": "calibration_step", "policy": "sentinel",
             "page": 2, "step": 1, "case": "case2", "offset": -3.0},
            {"seq": 3, "kind": "die_busy", "resource": "die0:r",
             "start": 0.0, "end": 48.0},
            {"seq": 4, "kind": "channel_busy", "resource": "ch0",
             "start": 48.0, "end": 61.0},
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(ln) for ln in lines) + "\n")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "retry-count histogram" in out
        assert "calibration-case breakdown" in out
        assert "case2" in out
        assert "die0:r" in out and "ch0" in out

    def test_stats_corpus_covers_every_section(self):
        """The pinned corpus exercises every summary path: each registered
        kind, an unregistered one, a truncation trailer, a calibration case
        beyond case1/case2, and both SSD-level and chip-level reads."""
        from repro.obs.trace import EVENT_KINDS, load_jsonl

        events = load_jsonl(str(STATS_CORPUS))
        kinds = {e.kind for e in events}
        assert EVENT_KINDS <= kinds
        assert kinds - EVENT_KINDS
        assert events[-1].kind == "trace_meta"
        assert events[-1].fields["dropped"] > 0
        cases = {e.fields.get("case") for e in events
                 if e.kind == "calibration_step"}
        assert cases - {"case1", "case2"}
        levels = {e.fields.get("level", "chip") for e in events
                  if e.kind == "read_attempt"}
        assert levels == {"ssd", "chip"}

    @pytest.mark.parametrize("width", [48, 20])
    def test_stats_corpus_pinned(self, width, capsys):
        """`repro stats` output on the committed corpus is byte-identical
        to its golden (tests/golden/stats_corpus_w{width}.txt)."""
        argv = ["stats", str(STATS_CORPUS), "--width", str(width)]
        assert main(argv) == 0
        golden = GOLDEN / f"stats_corpus_w{width}.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_simulate_exports_replayable_trace(self, tmp_path, capsys):
        """End-to-end: simulate --obs-trace, then stats on the export."""
        import numpy as np

        from repro.obs import OBS
        from repro.ssd.config import SsdConfig
        from repro.ssd.retry_model import RetryProfile
        from repro.ssd.ssd import Ssd
        from repro.ssd.timing import NandTiming
        from repro.traces.trace import Trace, TraceRequest

        # drive the Ssd directly (the simulate subcommand's device layer)
        # so the smoke test stays fast, then replay through the CLI
        from repro import obs
        from repro.flash.spec import TLC_SPEC

        spec = TLC_SPEC.scaled(
            cells_per_wordline=8192, wordlines_per_layer=1, layers=8,
            name_suffix="-cli",
        )
        config = SsdConfig.for_spec(
            spec, channels=2, dies_per_channel=1, blocks_per_die=20,
        )
        profile = RetryProfile(
            policy_name="unit",
            page_voltages={0: 1, 1: 2, 2: 4},
            samples={p: np.array([[1, 0]], dtype=np.int64) for p in range(3)},
        )
        reqs = [
            TraceRequest(i * 0.001, "R" if i % 2 == 0 else "W",
                         (i * 7919 * 4096) % (2 ** 22), 4096)
            for i in range(40)
        ]
        obs.enable()
        try:
            Ssd(spec, config, NandTiming(), profile, seed=1).run_trace(
                Trace("cli-unit", reqs)
            )
            path = tmp_path / "run.jsonl"
            OBS.tracer.export_jsonl(str(path))
        finally:
            obs.disable()
            obs.reset()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "retry-count histogram" in out
        assert "mean 1.00 retries/read" in out


class TestFigureCommand:
    def test_runs_fig2_driver(self, capsys):
        # uses the cached trained model when available; otherwise fits once
        code = main(["figure", "fig2", "--kind", "tlc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean optimal offset" in out
        assert "reduction" in out

    @pytest.mark.parametrize("name", ["fig16", "fig17"])
    def test_fixed_kind_figures_reject_kind(self, name, capsys):
        """fig16/fig17 drivers run one fixed flash kind, so a --kind would
        only mislabel the table: refuse it before running anything."""
        assert main(["figure", name, "--kind", "tlc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--kind" in captured.err


class TestServeCommand:
    def test_smoke_runs_and_writes_json(self, tmp_path, capsys):
        out_json = tmp_path / "serve.json"
        code = main([
            "serve", "--smoke", "--seed", "3",
            "--requests", "120", "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "service report" in out
        assert "voltage cache" in out
        payload = json.loads(out_json.read_text())
        assert payload["seed"] == 3
        assert payload["cache_enabled"] is True
        assert set(payload["clients"]) == {"online-read", "batch-mixed"}

    def test_smoke_is_deterministic(self, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main([
                "serve", "--smoke", "--seed", "9",
                "--requests", "120", "--json", str(path),
            ]) == 0
            reports.append(path.read_text())
        assert reports[0] == reports[1]

    def test_no_cache_flag(self, tmp_path):
        path = tmp_path / "nc.json"
        assert main([
            "serve", "--smoke", "--requests", "120",
            "--no-cache", "--no-scrub", "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["cache_enabled"] is False
        assert payload["cache"] == {}

    def test_serve_exports_obs_trace(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "serve.jsonl"
        try:
            code = main([
                "serve", "--smoke", "--requests", "120",
                "--obs-trace", str(trace),
            ])
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "serving layer" in out
        assert "voltage cache" in out


class TestReplayCommand:
    FIXTURE = str(Path(__file__).parent / "data" / "msr_sample.csv")

    def test_smoke_runs_and_writes_json(self, tmp_path, capsys):
        out_json = tmp_path / "replay.json"
        code = main([
            "replay", "--trace", self.FIXTURE, "--smoke", "--batch",
            "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replay report" in out and "balanced" in out
        payload = json.loads(out_json.read_text())
        assert payload["accounting"]["balanced"] is True
        assert payload["trace_name"] == "msr_sample"
        assert payload["clamped_records"] == 9

    def test_worker_counts_byte_identical(self, tmp_path):
        reports = []
        for workers in ("1", "2", "4"):
            path = tmp_path / f"w{workers}.json"
            assert main([
                "replay", "--trace", self.FIXTURE, "--smoke",
                "--workers", workers, "--json", str(path),
            ]) == 0
            reports.append(path.read_text())
        assert reports[0] == reports[1] == reports[2]

    def test_synthetic_workload(self, tmp_path):
        path = tmp_path / "syn.json"
        assert main([
            "replay", "--synthetic", "usr_0", "--requests", "150",
            "--scale", "5", "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["trace_name"] == "usr_0"
        assert payload["scale"] == 5.0
        assert payload["accounting"]["balanced"] is True

    def test_requires_exactly_one_source(self, capsys):
        assert main(["replay"]) == 2
        assert main([
            "replay", "--trace", self.FIXTURE, "--synthetic", "usr_0",
        ]) == 2
        err = capsys.readouterr().err
        assert "exactly one of" in err

    def test_missing_trace_fails_cleanly(self, capsys):
        assert main(["replay", "--trace", "/nonexistent.csv"]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_parser_workload_choices_match_synthetic_module(self):
        from repro.cli import _REPLAY_WORKLOADS
        from repro.traces.synthetic import MSR_WORKLOADS

        assert set(_REPLAY_WORKLOADS) == set(MSR_WORKLOADS)

    def test_replay_exports_obs_trace(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "replay.jsonl"
        try:
            code = main([
                "replay", "--trace", self.FIXTURE, "--smoke", "--batch",
                "--scale", "200", "--obs-trace", str(trace),
            ])
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace replay" in out


class TestFleetCommand:
    ARGS = ["fleet", "--seed", "3", "--devices", "3", "--tenants", "2",
            "--requests", "40", "--footprint-pages", "256"]

    def test_runs_and_writes_json(self, tmp_path, capsys):
        out_json = tmp_path / "fleet.json"
        code = main(self.ARGS + ["--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 3 devices x 2 tenants" in out
        assert "per-tenant SLO" in out
        assert "balanced" in out
        payload = json.loads(out_json.read_text())
        assert payload["accounting"]["balanced"] is True
        assert payload["n_devices"] == 3

    def test_worker_counts_byte_identical(self, tmp_path):
        reports = []
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.json"
            assert main(self.ARGS + ["--workers", workers,
                                     "--json", str(path)]) == 0
            reports.append(path.read_text())
        assert reports[0] == reports[1]

    def test_no_warm_start_drops_warm_section(self, tmp_path):
        path = tmp_path / "cold.json"
        assert main(self.ARGS + ["--no-warm-start",
                                 "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["warm_start_enabled"] is False
        assert payload["warm"] == {}

    def test_fleet_exports_obs_trace(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "fleet.jsonl"
        try:
            code = main(self.ARGS + ["--obs-trace", str(trace)])
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fleet:" in out
        assert "tenant-00" in out


class TestChaosCommand:
    @pytest.fixture(autouse=True)
    def _faults_off(self):
        from repro.faults import FAULTS

        FAULTS.deactivate()
        yield
        FAULTS.deactivate()

    def test_smoke_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(["chaos", "--smoke", "--seed", "1",
                     "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "chaos campaign: standard" in text
        assert "balanced" in text
        payload = json.loads(out.read_text())
        assert payload["accounting"]["balanced"] is True
        assert payload["faults"]  # the standard plan injects something

    def test_no_faults_baseline_is_clean(self, capsys):
        assert main(["chaos", "--smoke", "--seed", "1",
                     "--no-faults"]) == 0
        text = capsys.readouterr().out
        assert "faults injected: none" in text

    def test_custom_plan_file(self, tmp_path, capsys):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            name="stall-only",
            specs=(FaultSpec("ssd.die_stall", probability=1.0,
                             magnitude=50_000.0),),
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert main(["chaos", "--smoke", "--seed", "2",
                     "--plan", str(path)]) == 0
        text = capsys.readouterr().out
        assert "ssd.die_stall=" in text

    def test_bad_plan_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "wall_clock": true}')
        assert main(["chaos", "--smoke", "--plan", str(path)]) == 1
        assert "not a fault plan" in capsys.readouterr().err

    def test_worker_counts_agree(self, tmp_path):
        outs = []
        for workers, name in ((1, "a.json"), (2, "b.json")):
            out = tmp_path / name
            assert main(["chaos", "--smoke", "--seed", "5",
                         "--workers", str(workers),
                         "--json", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestSpansCommand:
    def test_replay_spans_export_and_check(self, tmp_path, capsys):
        from repro import obs

        spans = tmp_path / "spans.jsonl"
        try:
            code = main([
                "replay", "--synthetic", "hm_0", "--smoke",
                "--obs-spans", str(spans),
            ])
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        assert main(["spans", str(spans), "--check", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "critical-path phase breakdown" in out
        assert "spans check: ok" in out

    def test_spans_export_byte_identical_across_workers(self, tmp_path):
        from repro import obs

        outs = []
        for workers, name in ((1, "a.jsonl"), (2, "b.jsonl")):
            spans = tmp_path / name
            try:
                assert main([
                    "replay", "--synthetic", "hm_0", "--smoke",
                    "--workers", str(workers), "--obs-spans", str(spans),
                ]) == 0
            finally:
                obs.disable()
                obs.reset()
            outs.append(spans.read_text())
        assert outs[0] == outs[1]

    def test_check_fails_on_spanless_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["spans", str(path), "--check"]) == 1
        assert "no span trees" in capsys.readouterr().err

    def test_missing_trace_fails_cleanly(self, capsys):
        assert main(["spans", "/nonexistent/spans.jsonl"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_trees_json_export(self, tmp_path, capsys):
        from repro import obs

        spans = tmp_path / "spans.jsonl"
        trees = tmp_path / "trees.jsonl"
        try:
            assert main([
                "serve", "--smoke", "--requests", "60",
                "--obs-spans", str(spans),
            ]) == 0
        finally:
            obs.disable()
            obs.reset()
        assert main(["spans", str(spans), "--json", str(trees),
                     "--top", "0"]) == 0
        lines = [ln for ln in trees.read_text().splitlines() if ln]
        assert lines
        for line in lines:
            json.loads(line)


class TestStatsFollow:
    def test_follow_bounded_updates(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"seq": 0, "kind": "cache_hit", "die": 0, "block": 1, '
            '"layer": 2, "ts": 5.0, "gc": false}\n'
        )
        assert main(["stats", str(trace), "--follow",
                     "--interval", "0.01", "--updates", "2"]) == 0
        out = capsys.readouterr().out
        assert "following" in out
        assert "cache_hit" in out


# every report-producing command at a seconds-sized scale: (argv, the
# first words of its rendered report, and the module and name of its
# runner, or None for serve, which checks no request accounting)
_REPORT_COMMANDS = {
    "serve": (["serve", "--smoke", "--requests", "100"],
              "service report:", None),
    "chaos": (["chaos", "--smoke", "--requests", "100"],
              "chaos campaign:", ("repro.faults.chaos", "run_chaos")),
    "replay": (["replay", "--synthetic", "hm_0", "--smoke",
                "--requests", "100"],
               "replay report:", ("repro.replay", "replay_trace")),
    "fleet": (["fleet", "--smoke", "--devices", "3", "--tenants", "2",
               "--requests", "40"],
              "fleet:", ("repro.fleet", "run_fleet")),
    "tournament": (["tournament", "--smoke", "--policies", "current-flash",
                    "sentinel", "--ages", "mid", "--requests", "60"],
                   "tournament report:",
                   ("repro.tournament", "run_tournament")),
    "campaign": (["campaign", "--smoke", "--phases", "2"],
                 "campaign report:", ("repro.campaign", "run_campaign")),
}


class TestReportTail:
    """The shared ending of the commands that write a ``--json`` report."""

    @pytest.fixture(autouse=True)
    def _faults_off(self):
        from repro.faults import FAULTS

        FAULTS.deactivate()
        yield
        FAULTS.deactivate()

    @pytest.mark.parametrize("command", sorted(_REPORT_COMMANDS))
    def test_unwritable_json_fails_after_printing(
        self, command, tmp_path, capsys
    ):
        argv, header, _ = _REPORT_COMMANDS[command]
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        path = blocker / "report.json"
        assert main(argv + ["--json", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"repro {command}: cannot write report to {path}" in (
            captured.err
        )
        assert header in captured.out

    @pytest.mark.parametrize(
        "command",
        sorted(c for c, v in _REPORT_COMMANDS.items() if v[2] is not None),
    )
    def test_imbalanced_report_fails(self, command, monkeypatch, capsys):
        import importlib

        argv, header, (module_name, runner_name) = _REPORT_COMMANDS[command]
        module = importlib.import_module(module_name)
        runner = getattr(module, runner_name)

        def imbalanced(*args, **kwargs):
            report = runner(*args, **kwargs)
            if hasattr(report, "cells"):
                report.cells[0]["balanced"] = False
            else:
                report.accounting["balanced"] = False
            return report

        monkeypatch.setattr(module, runner_name, imbalanced)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (f"repro {command}: FAIL: request accounting imbalanced"
                in captured.err)
        assert header in captured.out


class TestReportGoldens:
    """The fleet and replay smoke reports, pinned byte for byte.

    ``fleet --smoke --seed 1`` exercises dispatch spillover, both P/E
    cohorts and the voltage-cache export and warm-start; the replay runs
    ``make replay-smoke``'s arguments (batched, so batches form).  To
    re-record, run the command with ``--json`` onto the golden."""

    @pytest.mark.parametrize("golden, argv", [
        ("fleet_report_smoke_seed1.json",
         ["fleet", "--smoke", "--seed", "1"]),
        ("replay_report_msr_sample_batch.json",
         ["replay", "--trace", TestReplayCommand.FIXTURE, "--smoke",
          "--batch", "--scale", "100", "--workers", "2"]),
    ], ids=["fleet", "replay"])
    def test_report_matches_golden(self, golden, argv, tmp_path, capsys):
        path = tmp_path / golden
        assert main(["-q"] + argv + ["--json", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_write_gc_replay_matches_golden(self):
        """An rsrch_0-shaped (~95 % writes) replay on a 6-block-per-die
        device with the scrubber off: garbage collection migrates pages
        through the broker's read pricing and some requests are shed.  No
        command builds this device, so it is driven through
        ``replay_trace``; re-record by writing ``report.to_json()`` plus a
        newline onto the golden."""
        from dataclasses import replace

        from repro.exp.common import sim_spec
        from repro.replay import ReplayConfig, replay_trace
        from repro.service import synthetic_profiles
        from repro.service.broker import ServiceConfig
        from repro.ssd.config import SsdConfig
        from repro.ssd.timing import NandTiming
        from repro.traces.synthetic import MSR_WORKLOADS, generate_workload

        spec = sim_spec("tlc", cells_per_wordline=8192, wordlines_per_layer=4)
        params = replace(MSR_WORKLOADS["rsrch_0"], mean_iops=25.0,
                         footprint_bytes=48 * 2**20)
        report = replay_trace(
            generate_workload(params, n_requests=1500, seed=0),
            spec=spec,
            ssd_config=SsdConfig.for_spec(
                spec, channels=2, dies_per_channel=2, blocks_per_die=6
            ),
            timing=NandTiming(),
            profiles=synthetic_profiles("tlc"),
            seed=0,
            config=ReplayConfig(workers=1),
            service_config=ServiceConfig(scrub_enabled=False),
        )
        assert report.service["extras"]["gc_erases"] > 0
        assert report.accounting["shed"] > 0
        golden = GOLDEN / "replay_report_write_gc_seed0.json"
        assert report.to_json() + "\n" == golden.read_text(encoding="utf-8")


class TestDocsNameEveryCommand:
    """The module docstring and the README list exactly the parser's
    subcommands, so a command added or retired shows up in both."""

    @pytest.fixture(scope="class")
    def commands(self):
        import argparse

        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return set(action.choices)

    def test_module_docstring(self, commands):
        import re

        import repro.cli

        doc = repro.cli.__doc__
        section = doc[doc.index("Commands\n"):]
        listed = set(re.findall(r"^``([a-z-]+)``  ", section, re.M))
        assert listed == commands

    def test_readme(self, commands):
        import re

        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        lists = re.findall(r"python -m repro \{([a-z,-]+)\}", readme)
        assert len(lists) == 1
        assert set(lists[0].split(",")) == commands
        named = set(re.findall(r"(?:python -m |`)repro ([a-z][a-z-]*)",
                               readme))
        assert named <= commands, named - commands
