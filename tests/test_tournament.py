"""Policy tournament: golden differential, worker invariance, CLI.

The tentpole guarantees under test:

* **golden differential** — a tournament cell built from existing
  policies is byte-identical to the standalone pipeline it claims to
  wrap: the cell's ``profile_sha256``/``replay_sha256`` equal digests of
  a hand-rolled ``RetryProfile.measure`` + ``replay_trace`` run using
  only public APIs;
* **worker invariance** — the report JSON is byte-identical at
  ``--workers`` 1/2/4;
* **measure once, replay many** — each (policy, age) profile is
  measured exactly once and every frontend's cell replays that profile;
* the accounting identity served + degraded + shed == offered holds in
  every cell and gates the CLI exit status, as does the ``--check``
  sentinel-beats-current-flash floor.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import EVAL_SEED
from repro.flash.chip import FlashChip
from repro.obs import OBS
from repro.ssd.retry_model import RetryProfile
from repro.tournament import (
    POLICY_ALIASES,
    POLICY_NAMES,
    TournamentConfig,
    TournamentReport,
    cell_spec,
    cell_stress,
    measure_cell_profile,
    profile_digest,
    replay_cell_frontend,
    replay_digest,
    run_tournament,
    tournament_model,
)
from repro.tournament import runner

# smoke-scale grid shared by the module: small enough for seconds,
# aged enough that the policies actually separate
KIND, CELLS, RATIO, STEP, REQUESTS = "tlc", 8192, 0.02, 8, 240
TWO_FRONTENDS = ("hm_0", "usr_0")


def small_config(policies, ages=("mid", "old"), workers=1,
                 frontends=("hm_0",)):
    return TournamentConfig(
        kind=KIND,
        policies=tuple(policies),
        ages=tuple(ages),
        frontends=tuple(frontends),
        cells_per_wordline=CELLS,
        sentinel_ratio=RATIO,
        wordline_step=STEP,
        requests_per_cell=REQUESTS,
        workers=workers,
    )


@pytest.fixture(scope="module")
def existing_policy_report():
    """One tournament over the pre-existing (non-learning) policies."""
    return run_tournament(
        small_config(("current-flash", "sentinel", "opt")), seed=0
    )


@pytest.fixture(scope="module")
def two_frontend_run():
    """A serial two-frontend tournament, counting profile measurements."""
    calls = []
    measure = runner.measure_cell_profile

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return measure(*args, **kwargs)

    config = small_config(("current-flash", "sentinel"),
                          frontends=TWO_FRONTENDS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "measure_cell_profile", counted)
        report = run_tournament(config, seed=0)
    return config, report, calls


class TestGoldenDifferential:
    """The harness adds zero perturbation over the standalone pipeline."""

    @pytest.mark.parametrize("policy", ["current-flash", "sentinel"])
    @pytest.mark.parametrize("age", ["mid", "old"])
    def test_profile_matches_standalone_measure(
        self, existing_policy_report, policy, age
    ):
        from repro.core.controller import SentinelController
        from repro.retry import CurrentFlashPolicy

        spec = cell_spec(KIND, CELLS)
        chip = FlashChip(spec, seed=EVAL_SEED, sentinel_ratio=RATIO)
        chip.set_block_stress(0, cell_stress(KIND, age))
        ecc = CapabilityEcc.for_spec(spec)
        if policy == "current-flash":
            p = CurrentFlashPolicy(ecc, spec)
        else:
            p = SentinelController(ecc, tournament_model(KIND, CELLS, RATIO))
        profile = RetryProfile.measure(
            chip, p,
            wordlines=range(0, spec.wordlines_per_block, STEP),
            workers=1,
        )
        cell = existing_policy_report.cell(policy, age, "hm_0")
        assert cell is not None
        assert cell["profile_sha256"] == profile_digest(profile)
        assert cell["retries_per_read"] == profile.mean_retries()

    def test_replay_matches_standalone_broker_run(
        self, existing_policy_report
    ):
        from repro.replay import ReplayConfig, replay_trace
        from repro.retry import CurrentFlashPolicy
        from repro.service.profiles import COLD, WARM
        from repro.ssd.config import SsdConfig
        from repro.ssd.timing import NandTiming
        from repro.traces.synthetic import MSR_WORKLOADS, generate_workload

        spec = cell_spec(KIND, CELLS)
        chip = FlashChip(spec, seed=EVAL_SEED, sentinel_ratio=RATIO)
        chip.set_block_stress(0, cell_stress(KIND, "old"))
        profile = RetryProfile.measure(
            chip, CurrentFlashPolicy(CapabilityEcc.for_spec(spec), spec),
            wordlines=range(0, spec.wordlines_per_block, STEP),
            workers=1,
        )
        report = replay_trace(
            generate_workload(
                MSR_WORKLOADS["hm_0"], n_requests=REQUESTS, seed=0
            ),
            spec=spec,
            ssd_config=SsdConfig.for_spec(
                spec, channels=2, dies_per_channel=2, blocks_per_die=64
            ),
            timing=NandTiming(),
            profiles={COLD: profile, WARM: profile},
            seed=0,
            config=ReplayConfig(scale=1.0, workers=1),
        )
        cell = existing_policy_report.cell("current-flash", "old", "hm_0")
        assert cell["replay_sha256"] == replay_digest(report)
        assert cell["p99_us"] == report.service["clients"]["hm_0"]["read_p99_us"]
        assert cell["completed_iops"] == report.completed_iops


class TestWorkerInvariance:
    #: a two-cell grid, small enough to trace at two worker counts
    TRACED = TournamentConfig(
        kind=KIND, policies=("current-flash", "sentinel"),
        ages=("mid",), frontends=("hm_0",), cells_per_wordline=CELLS,
        wordline_step=16, requests_per_cell=60,
    )

    def test_json_identical_at_1_2_4_workers(self):
        policies = ("current-flash", "sentinel", "adaptive-retry",
                    "online-model")
        jsons = {
            w: run_tournament(
                small_config(policies, workers=w, frontends=TWO_FRONTENDS),
                seed=0,
            ).to_json()
            for w in (1, 2, 4)
        }
        assert jsons[1] == jsons[2] == jsons[4]

    def test_trace_kind_counts_identical_at_1_2_workers(self):
        from repro.obs.stats import aggregate

        counts = {}
        for workers in (1, 2):
            OBS.reset()
            OBS.enable(metrics=False, tracing=True)
            try:
                run_tournament(replace(self.TRACED, workers=workers), seed=0)
                counts[workers] = aggregate(OBS.tracer.events()).kind_counts
            finally:
                OBS.disable()
                OBS.reset()
        assert counts[1] == counts[2]

    def test_live_stream_matches_export_at_2_workers(self, tmp_path):
        """Forked workers must not write into the parent's live stream:
        the streamed file is the export without its ``trace_meta``."""
        config = replace(self.TRACED, ages=("mid", "old"), workers=2)
        live, export = tmp_path / "live.jsonl", tmp_path / "export.jsonl"
        OBS.enable(metrics=False, tracing=True)
        OBS.tracer.stream_to(str(live))
        try:
            run_tournament(config, seed=0)
        finally:
            OBS.tracer.close_stream()
        OBS.tracer.export_jsonl(str(export))
        streamed = live.read_text().splitlines()
        exported = export.read_text().splitlines()
        assert streamed == exported[:-1]
        seqs = [json.loads(line)["seq"] for line in streamed]
        assert len(seqs) == len(set(seqs)) > 100

    @pytest.mark.xfail(
        strict=True,
        reason="metrics recorded in engine worker processes die with the "
               "worker; only trace events are shipped back to the parent",
    )
    def test_prometheus_series_identical_at_1_2_workers(self):
        def series(text):
            """Non-engine series; wall-clock values blanked."""
            out = {}
            for line in text.splitlines():
                if line.startswith(("#", "repro_engine_")):
                    continue
                key, value = line.rsplit(" ", 1)
                out[key] = None if "_seconds" in key else value
            return out

        rendered = {}
        for workers in (1, 2):
            OBS.reset()
            OBS.enable(metrics=True, tracing=False)
            run_tournament(replace(self.TRACED, workers=workers), seed=0)
            rendered[workers] = series(OBS.metrics.render_prometheus())
            OBS.disable()
        assert rendered[1] == rendered[2]


class TestSharedProfile:
    """One measurement per (policy, age), replayed under every frontend."""

    def test_profile_measured_once_per_policy_and_age(self, two_frontend_run):
        config, _, calls = two_frontend_run
        assert len(calls) == len(config.policies) * len(config.ages)
        assert calls == [
            (policy, KIND, age)
            for policy in config.policies
            for age in config.ages
        ]

    def test_cells_in_canonical_order(self, two_frontend_run):
        config, report, _ = two_frontend_run
        assert [(c["policy"], c["age"], c["frontend"])
                for c in report.cells] == [
            (policy, age, frontend)
            for policy in config.policies
            for age in config.ages
            for frontend in config.frontends
        ]

    def test_frontends_share_one_profile(self, two_frontend_run):
        config, report, _ = two_frontend_run
        for policy in config.policies:
            for age in config.ages:
                hm, usr = (report.cell(policy, age, f) for f in TWO_FRONTENDS)
                assert hm["profile_sha256"] == usr["profile_sha256"]
                assert hm["reads_measured"] == usr["reads_measured"]
                assert hm["replay_sha256"] != usr["replay_sha256"]

    def test_second_frontend_matches_standalone_replay(self, two_frontend_run):
        _, report, _ = two_frontend_run
        model = tournament_model(KIND, CELLS, RATIO)
        profile = measure_cell_profile(
            "sentinel", KIND, "old", CELLS, RATIO, STEP, model
        )
        standalone = replay_cell_frontend(
            "usr_0", KIND, CELLS, profile, REQUESTS, 0
        )
        cell = report.cell("sentinel", "old", "usr_0")
        assert cell["profile_sha256"] == profile_digest(profile)
        assert cell["replay_sha256"] == replay_digest(standalone)
        assert cell["p99_us"] == (
            standalone.service["clients"]["usr_0"]["read_p99_us"]
        )
        assert cell["completed_iops"] == standalone.completed_iops


class TestReportInvariants:
    def test_grid_covers_policies_x_ages(self, existing_policy_report):
        rep = existing_policy_report
        assert len(rep.cells) == len(rep.policies) * len(rep.ages)
        for policy in rep.policies:
            for age in rep.ages:
                assert rep.cell(policy, age, "hm_0") is not None

    def test_every_cell_balanced(self, existing_policy_report):
        assert existing_policy_report.balanced
        for c in existing_policy_report.cells:
            assert c["served"] + c["degraded"] + c["shed"] == c["offered"]

    def test_sentinel_beats_current_flash(self, existing_policy_report):
        assert existing_policy_report.sentinel_beats()

    def test_vs_sentinel_deltas(self, existing_policy_report):
        rep = existing_policy_report
        for age in rep.ages:
            s = rep.cell("sentinel", age, "hm_0")
            b = rep.cell("current-flash", age, "hm_0")
            assert s["vs_sentinel"]["retries_per_read"] == 0.0
            assert b["vs_sentinel"]["retries_per_read"] == pytest.approx(
                b["retries_per_read"] - s["retries_per_read"]
            )

    def test_json_round_trips(self, existing_policy_report):
        payload = json.loads(existing_policy_report.to_json())
        assert payload["kind"] == KIND
        assert payload["policies"] == list(existing_policy_report.policies)
        assert len(payload["cells"]) == len(existing_policy_report.cells)

    def test_render_lists_every_cell(self, existing_policy_report):
        text = existing_policy_report.render()
        for c in existing_policy_report.cells:
            assert c["policy"] in text
        assert "IMBALANCED" not in text

    def test_sentinel_beats_fails_on_tie(self):
        rep = TournamentReport(
            kind="tlc", seed=0, cells_per_wordline=1, sentinel_ratio=0.02,
            requests_per_cell=1, wordline_step=1,
            policies=["current-flash", "sentinel"], ages=["old"],
            frontends=["hm_0"],
            cells=[
                {"policy": "current-flash", "age": "old", "frontend": "hm_0",
                 "retries_per_read": 1.0},
                {"policy": "sentinel", "age": "old", "frontend": "hm_0",
                 "retries_per_read": 1.0},
            ],
        )
        assert not rep.sentinel_beats()

    def test_sentinel_beats_needs_both_policies(self):
        rep = TournamentReport(
            kind="tlc", seed=0, cells_per_wordline=1, sentinel_ratio=0.02,
            requests_per_cell=1, wordline_step=1,
            policies=["sentinel"], ages=["old"], frontends=["hm_0"],
            cells=[{"policy": "sentinel", "age": "old", "frontend": "hm_0",
                    "retries_per_read": 0.1}],
        )
        assert not rep.sentinel_beats()


class TestConfigValidation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            small_config(("no-such-policy",))

    def test_rejects_unknown_age(self):
        with pytest.raises(ValueError, match="unknown age"):
            small_config(("sentinel",), ages=("ancient",))

    def test_rejects_unknown_frontend(self):
        with pytest.raises(ValueError, match="unknown frontend"):
            small_config(("sentinel",), frontends=("nosuch",))

    @pytest.mark.parametrize("axis", ["policies", "ages", "frontends"])
    def test_rejects_empty_axis(self, axis):
        with pytest.raises(ValueError, match=f"{axis} must not be empty"):
            TournamentConfig(**{axis: ()})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chip kind"):
            TournamentConfig(kind="slc")

    def test_aliases_resolve_to_grid_policies(self):
        for alias, canonical in POLICY_ALIASES.items():
            assert canonical in POLICY_NAMES
        assert POLICY_ALIASES["tracked-sentinel"] == "tracking+sentinel"
        assert POLICY_ALIASES["adaptive"] == "adaptive-retry"
        assert POLICY_ALIASES["oracle"] == "opt"


class TestObs:
    def test_tournament_cell_events_and_metrics(self):
        OBS.reset()
        OBS.enable(metrics=True, tracing=True)
        try:
            rep = run_tournament(
                small_config(("current-flash", "sentinel"), ages=("old",)),
                seed=0,
            )
            cells = [e for e in OBS.tracer.events()
                     if e.kind == "tournament_cell"]
            assert len(cells) == len(rep.cells)
            assert [e.fields["policy"] for e in cells] == [
                c["policy"] for c in rep.cells
            ]
            exposition = OBS.metrics.render_prometheus()
            assert "repro_tournament_cells_total" in exposition
            assert "repro_tournament_retries_per_read" in exposition
            assert "repro_tournament_p99_us" in exposition
        finally:
            OBS.reset()

    def test_stats_fold_summarizes_cells(self):
        from repro.obs.stats import Tournament, TraceStats, fold, render
        from repro.obs.trace import TraceEvent

        stats = TraceStats()
        fold(stats, TraceEvent(0, "tournament_cell", {
            "policy": "sentinel", "age": "old", "frontend": "hm_0",
            "retries_per_read": 0.5, "p99_us": 1200.0, "iops": 80.0,
            "balanced": True,
        }))
        fold(stats, TraceEvent(1, "tournament_cell", {
            "policy": "sentinel", "age": "mid", "frontend": "hm_0",
            "retries_per_read": 0.1, "p99_us": 800.0, "iops": 80.0,
            "balanced": False,
        }))
        tournament = stats.section(Tournament)
        assert tournament.by_policy["sentinel"][0] == 2
        assert tournament.imbalanced == 1
        text = render(stats)
        assert "policy tournament" in text
        assert "WARNING" in text


class TestCli:
    def test_smoke_json_covers_grid_and_balances(self, tmp_path, capsys):
        out = tmp_path / "tournament.json"
        code = main([
            "tournament", "--smoke", "--check", "--workers", "2",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["policies"]) >= 4
        assert len(payload["ages"]) >= 2
        assert len(payload["cells"]) == (
            len(payload["policies"]) * len(payload["ages"])
            * len(payload["frontends"])
        )
        for c in payload["cells"]:
            assert c["balanced"]
            assert c["served"] + c["degraded"] + c["shed"] == c["offered"]

    def test_policy_aliases_accepted(self, capsys):
        code = main([
            "tournament", "--smoke", "--ages", "old",
            "--policies", "oracle", "tracked-sentinel", "adaptive",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "opt" in out
        assert "tracking+sentinel" in out
        assert "adaptive-retry" in out

    def test_unknown_policy_exits_2(self, capsys):
        assert main(["tournament", "--policies", "no-such"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    @pytest.mark.parametrize("frontends", [["nosuch"], []])
    def test_bad_frontends_exit_2(self, capsys, frontends):
        with pytest.raises(SystemExit) as exc:
            main(["tournament", "--smoke", "--frontends", *frontends])
        assert exc.value.code == 2
        assert "--frontends" in capsys.readouterr().err

    def test_empty_policies_exit_2(self, capsys):
        assert main(["tournament", "--smoke", "--policies"]) == 2
        assert "policies must not be empty" in capsys.readouterr().err

    def test_check_fails_when_sentinel_missing(self, capsys):
        # --check needs both sentinel and current-flash cells to compare
        code = main([
            "tournament", "--smoke", "--check", "--ages", "old",
            "--policies", "sentinel",
        ])
        assert code == 1
        assert "sentinel did not beat" in capsys.readouterr().err
