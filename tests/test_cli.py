"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


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
            spec, channels=2, dies_per_channel=1, blocks_per_die=8,
            overprovisioning=0.2,
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
