"""Every committed ``benchmarks/BENCH_*.json`` is loadable and well-formed.

The bench JSONs are the repo's performance contract — CI jobs and the
PERFORMANCE.md narrative cite them — so a malformed or stale commit
should fail loudly here, not at readme-update time.  Each known file
gets a schema check matched to its producer; a brand-new BENCH file with
no schema entry fails the coverage test until one is added.
"""

import json
import subprocess
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


def committed_bench_jsons():
    """Names of the ``BENCH_*.json`` files git tracks.

    Reading the index rather than the disk keeps a local benchmark run's
    scratch report out of the checks, and makes a report that exists on
    disk but was never added to git fail them.  Outside a git checkout
    (an exported tree) the disk is all there is, less the names
    ``.gitignore`` lists: a local run's scratch report is never tracked."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "ls-files", "benchmarks/BENCH_*.json"], cwd=ROOT,
                capture_output=True, text=True, check=True,
            ).stdout
            return sorted(Path(line).name for line in out.splitlines())
        except (OSError, subprocess.CalledProcessError):
            pass
    ignore = ROOT / ".gitignore"
    patterns = [
        line.strip() for line in (
            ignore.read_text(encoding="utf-8").splitlines()
            if ignore.is_file() else ()
        )
        if line.strip() and not line.startswith("#")
    ]
    return sorted(
        p.name for p in BENCH_DIR.glob("BENCH_*.json")
        if not any(
            fnmatch(p.relative_to(ROOT).as_posix(), pat) or fnmatch(p.name, pat)
            for pat in patterns
        )
    )


def load(name):
    path = BENCH_DIR / name
    assert path.is_file(), f"{name} missing from benchmarks/"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_committed_bench_json_has_a_schema_check():
    known = {"BENCH_fleet.json", "BENCH_replay.json",
             "BENCH_policies.json", "BENCH_campaign.json"}
    committed = set(committed_bench_jsons())
    assert committed == known, (
        "the git-tracked benchmarks/BENCH_*.json changed; add/remove the "
        "matching schema check in test_bench_schemas.py, or git add a "
        "report that was left untracked"
    )


def test_all_bench_jsons_parse():
    for name in committed_bench_jsons():
        path = BENCH_DIR / name
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(payload, dict), f"{path.name} must be an object"
        assert payload, f"{path.name} is empty"


class TestFleetSchema:
    def test_shape(self):
        d = load("BENCH_fleet.json")
        assert set(d) == {"small", "medium", "large"}
        for size, entry in d.items():
            assert entry["devices"] > 0, size
            assert entry["tenants"] > 0, size
            assert entry["requests"] > 0, size
            retries = entry["fleet_retries_per_read"]
            assert set(retries) == {"cold", "warm"}, size
            assert all(v >= 0 for v in retries.values()), size


class TestReplaySchema:
    def test_shape(self):
        d = load("BENCH_replay.json")
        assert set(d) == {"low", "medium", "high"}
        for rate, entry in d.items():
            assert set(entry) >= {"batched", "unbatched"}, rate
            for mode in ("batched", "unbatched"):
                assert entry[mode]["completed_iops"] > 0, (rate, mode)
                assert entry[mode]["shed"] >= 0, (rate, mode)


class TestPoliciesSchema:
    """The tournament benchmark: one serialized TournamentReport."""

    @pytest.fixture(scope="class")
    def report(self):
        return load("BENCH_policies.json")

    def test_grid_dimensions(self, report):
        for key in ("kind", "seed", "cells_per_wordline", "sentinel_ratio",
                    "requests_per_cell", "wordline_step", "policies",
                    "ages", "frontends", "cells"):
            assert key in report
        assert len(report["policies"]) >= 4
        assert len(report["ages"]) >= 2
        assert len(report["cells"]) == (
            len(report["policies"]) * len(report["ages"])
            * len(report["frontends"])
        )

    def test_cells_carry_scorecards_and_balance(self, report):
        required = {
            "policy", "age", "frontend", "kind", "retries_per_read",
            "extra_per_read", "mean_read_us", "pipelined", "offered",
            "served", "degraded", "shed", "balanced", "p99_us",
            "completed_iops", "profile_sha256", "replay_sha256",
        }
        for cell in report["cells"]:
            assert required <= set(cell), cell.get("policy")
            assert cell["balanced"] is True
            assert cell["served"] + cell["degraded"] + cell["shed"] == (
                cell["offered"]
            )
            assert len(cell["profile_sha256"]) == 64
            assert len(cell["replay_sha256"]) == 64

    def test_sentinel_beats_current_flash_everywhere(self, report):
        """The committed benchmark must show the paper's claim: fewer
        retries/read than the vendor ladder in every grid cell."""
        def cell(policy, age, frontend):
            for c in report["cells"]:
                if (c["policy"], c["age"], c["frontend"]) == (
                        policy, age, frontend):
                    return c
            return None

        compared = 0
        for age in report["ages"]:
            for frontend in report["frontends"]:
                s = cell("sentinel", age, frontend)
                b = cell("current-flash", age, frontend)
                assert s is not None and b is not None
                assert s["retries_per_read"] < b["retries_per_read"], (
                    age, frontend
                )
                compared += 1
        assert compared >= 2

    def test_matches_live_smoke_run(self, report):
        """The committed file is exactly what the smoke grid produces
        today — a drifted benchmark fails here instead of silently
        misrepresenting the code."""
        from repro.tournament import TournamentConfig, run_tournament

        live = run_tournament(
            TournamentConfig(
                kind=report["kind"],
                policies=tuple(report["policies"]),
                ages=tuple(report["ages"]),
                frontends=tuple(report["frontends"]),
                cells_per_wordline=report["cells_per_wordline"],
                sentinel_ratio=report["sentinel_ratio"],
                wordline_step=report["wordline_step"],
                requests_per_cell=report["requests_per_cell"],
                workers=1,
            ),
            seed=report["seed"],
        )
        assert json.loads(live.to_json()) == report


class TestCampaignSchema:
    """The lifetime benchmark: one serialized CampaignReport."""

    @pytest.fixture(scope="class")
    def report(self):
        return load("BENCH_campaign.json")

    def test_grid_dimensions(self, report):
        for key in ("kind", "seed", "lifetime_hours", "phase_count",
                    "cells_per_wordline", "sentinel_ratio",
                    "requests_per_phase", "wordline_step", "policies",
                    "schedules", "environments", "workloads", "cells"):
            assert key in report
        assert {"sentinel", "current-flash"} <= set(report["policies"])
        assert report["phase_count"] >= 3
        assert len(report["cells"]) == (
            len(report["policies"]) * len(report["schedules"])
            * len(report["environments"]) * len(report["workloads"])
        )

    def test_phases_age_monotonically_and_balance(self, report):
        required = {
            "phase", "age_hours", "pe_cycles", "retention_hours",
            "retries_per_read", "served_retries_per_read", "p99_us",
            "offered", "served", "degraded", "shed", "balanced",
        }
        for cell in report["cells"]:
            assert cell["balanced"] is True
            retries = []
            for row in cell["phases"]:
                assert required <= set(row), cell["policy"]
                assert (row["served"] + row["degraded"] + row["shed"]
                        == row["offered"]), cell["policy"]
                retries.append(row["retries_per_read"])
            assert retries == sorted(retries), cell["policy"]
            assert all(
                b > a for a, b in zip(retries, retries[1:])
            ), cell["policy"]

    def test_sentinel_shaves_retries_at_end_of_life(self, report):
        """The committed benchmark must show the paper's claim carried
        through a whole service life: the sentinel device ends its life
        with fewer retries/read and a lower p99 than the vendor ladder."""
        def cell(policy):
            for c in report["cells"]:
                if c["policy"] == policy:
                    return c
            return None

        s, b = cell("sentinel"), cell("current-flash")
        assert s is not None and b is not None
        assert s["final_retries_per_read"] < b["final_retries_per_read"]
        assert s["final_p99_us"] < b["final_p99_us"]

    def test_matches_live_smoke_run(self, report):
        """Byte-for-byte what `repro campaign --smoke` produces today."""
        from repro.campaign import CampaignConfig, run_campaign

        live = run_campaign(
            CampaignConfig(
                kind=report["kind"],
                policies=tuple(report["policies"]),
                schedules=tuple(report["schedules"]),
                environments=tuple(report["environments"]),
                workloads=tuple(report["workloads"]),
                phases=report["phase_count"],
                lifetime_hours=report["lifetime_hours"],
                requests_per_phase=report["requests_per_phase"],
                cells_per_wordline=report["cells_per_wordline"],
                sentinel_ratio=report["sentinel_ratio"],
                wordline_step=report["wordline_step"],
                workers=1,
            ),
            seed=report["seed"],
        )
        assert json.loads(live.to_json()) == report
