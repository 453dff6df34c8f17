"""Lifetime campaigns: aging dynamics, environments, worker invariance, CLI.

The tentpole guarantees under test:

* **aging monotonicity** — the measured cold retries/read strictly
  increases across the phases of every cell (the physics the campaign
  exists to show);
* **accounting identity** — served + degraded + shed == offered holds per
  phase and per cell and gates the CLI exit status;
* **environment dynamics** — a heat-wave window reprices retention
  through the Arrhenius law and ages the device faster than room
  temperature; a power-loss window drops the volatile voltage cache;
* **worker invariance** — the report JSON is byte-identical at
  ``--workers`` 1/2/4.
"""

import json

import pytest

from repro.campaign import (
    END_PE,
    CampaignConfig,
    environment_plan,
    pe_at,
    power_loss_count,
    run_campaign,
    temperature_segments,
)
from repro.cli import main
from repro.obs import OBS

# smoke-scale grid shared by the module: 8192 cells/wordline is the floor
# at which a page still spans a full 512-byte sector
KIND, CELLS, STEP = "tlc", 8192, 8


def small_config(**overrides):
    params = dict(
        kind=KIND,
        policies=("sentinel", "current-flash"),
        phases=3,
        requests_per_phase=60,
        cells_per_wordline=CELLS,
        wordline_step=STEP,
    )
    params.update(overrides)
    return CampaignConfig(**params)


@pytest.fixture(scope="module")
def room_report():
    """One two-policy campaign through three phases at room temperature."""
    return run_campaign(small_config(), seed=1)


@pytest.fixture(scope="module")
def env_report():
    """One sentinel device per environment, same life otherwise."""
    return run_campaign(
        small_config(
            policies=("sentinel",),
            environments=("room", "heat-wave", "outage"),
        ),
        seed=1,
    )


class TestGridConfig:
    def test_round_trips_through_dict(self):
        cfg = small_config(schedules=("steady", "burn-in"))
        again = CampaignConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_rejects_unknown_grid_fields(self):
        with pytest.raises(ValueError, match="unknown CampaignConfig"):
            CampaignConfig.from_dict({"polcies": ["sentinel"]})
        # the inter-phase gap is a module constant, not a grid axis
        with pytest.raises(ValueError, match="unknown CampaignConfig"):
            CampaignConfig.from_dict({"inter_phase_gap_us": 1.0})

    @pytest.mark.parametrize("bad", [
        {"policies": ("sputnik",)},
        {"kind": "slc"},
        {"schedules": ("exponential",)},
        {"environments": ("vacuum",)},
        {"workloads": ("nfs_9",)},
        {"phases": 0},
        {"lifetime_hours": 0.0},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    def test_pe_schedules_end_at_end_of_life(self):
        for schedule in ("steady", "gentle", "burn-in"):
            last = pe_at(schedule, 4, 4, END_PE["tlc"])
            series = [pe_at(schedule, p, 4, END_PE["tlc"])
                      for p in range(1, 5)]
            assert series == sorted(series)
            if schedule == "gentle":
                assert last == END_PE["tlc"] // 2
            else:
                assert last == END_PE["tlc"]

    def test_temperature_segments_cover_the_interval(self):
        plan = environment_plan("heat-wave", 8760.0)
        segments = temperature_segments(plan, 2190.0, 4380.0)
        assert sum(h for h, _ in segments) == pytest.approx(2190.0)
        # the 70 C window opens at 0.4 * 8760 = 3504 h
        assert segments == ((1314.0, 25.0), (876.0, 70.0))

    def test_eventless_interval_is_one_room_segment(self):
        plan = environment_plan("room", 8760.0)
        assert temperature_segments(plan, 0.0, 2190.0) == ((2190.0, 25.0),)

    def test_power_loss_window_hits_one_phase(self):
        plan = environment_plan("outage", 8760.0)
        hits = [
            power_loss_count(plan, 8760.0 * p / 4, 8760.0 * (p + 1) / 4)
            for p in range(4)
        ]
        assert hits == [0, 0, 1, 0]


class TestAging:
    def test_retries_strictly_increase_with_age(self, room_report):
        for cell in room_report.cells:
            series = [row["retries_per_read"] for row in cell["phases"]]
            assert len(series) >= 3
            assert all(b > a for a, b in zip(series, series[1:])), (
                cell["policy"], series)
        assert "sentinel" in {c["policy"] for c in room_report.cells}

    def test_sentinel_ends_life_below_current_flash(self, room_report):
        by_policy = {c["policy"]: c for c in room_report.cells}
        assert (by_policy["sentinel"]["final_retries_per_read"]
                < by_policy["current-flash"]["final_retries_per_read"])

    def test_wear_and_retention_follow_the_schedule(self, room_report):
        for cell in room_report.cells:
            ages = [row["age_hours"] for row in cell["phases"]]
            pes = [row["pe_cycles"] for row in cell["phases"]]
            assert ages[-1] == pytest.approx(8760.0)
            assert pes[-1] == END_PE["tlc"]
            assert pes == sorted(pes)
            # room temperature: retention is plain elapsed hours
            for row in cell["phases"]:
                assert row["retention_hours"] == pytest.approx(
                    row["age_hours"])
                assert row["temperature_c"] == 25.0

    def test_read_disturb_accumulates_across_phases(self, room_report):
        for cell in room_report.cells:
            counts = [row["read_count"] for row in cell["phases"]]
            assert all(b > a for a, b in zip(counts, counts[1:]))


class TestAccounting:
    def test_every_phase_balanced(self, room_report):
        assert room_report.balanced
        for cell in room_report.cells:
            for row in cell["phases"]:
                assert (row["served"] + row["degraded"] + row["shed"]
                        == row["offered"])

    def test_cell_totals_sum_their_phases(self, room_report):
        for cell in room_report.cells:
            for key in ("offered", "served", "degraded", "shed"):
                assert cell[key] == sum(
                    row[key] for row in cell["phases"])


class TestEnvironments:
    def test_heat_wave_ages_faster_than_room(self, env_report):
        room = env_report.cell("sentinel", "steady", "room", "hm_0")
        hot = env_report.cell("sentinel", "steady", "heat-wave", "hm_0")
        # once the 70 C window has elapsed, the Arrhenius-equivalent
        # exposure (and with it the measured retries) must exceed room's
        assert (hot["phases"][-1]["retention_hours"]
                > room["phases"][-1]["retention_hours"])
        assert (hot["final_retries_per_read"]
                > room["final_retries_per_read"])

    def test_power_loss_flushes_the_voltage_cache(self, env_report):
        outage = env_report.cell("sentinel", "steady", "outage", "hm_0")
        flushed = [row["power_loss_flushed"] for row in outage["phases"]]
        assert sum(1 for f in flushed if f > 0) == 1
        assert outage["cache"]["flushed"] == sum(flushed)
        room = env_report.cell("sentinel", "steady", "room", "hm_0")
        assert all(
            row["power_loss_flushed"] == 0 for row in room["phases"])
        assert "flushed" not in room["cache"]

    def test_outage_does_not_change_the_aging_path(self, env_report):
        room = env_report.cell("sentinel", "steady", "room", "hm_0")
        outage = env_report.cell("sentinel", "steady", "outage", "hm_0")
        assert ([row["retries_per_read"] for row in room["phases"]]
                == [row["retries_per_read"] for row in outage["phases"]])


class TestWorkerInvariance:
    def test_json_identical_at_1_2_4_workers(self):
        texts = [
            run_campaign(
                small_config(policies=("sentinel",), workers=w), seed=1
            ).to_json()
            for w in (1, 2, 4)
        ]
        assert texts[0] == texts[1] == texts[2]


class TestObs:
    def test_campaign_phase_events_and_metrics(self):
        OBS.reset()
        OBS.enable(metrics=True, tracing=True)
        try:
            report = run_campaign(
                small_config(policies=("sentinel",)), seed=1
            )
            events = [e for e in OBS.tracer.events()
                      if e.kind == "campaign_phase"]
            assert len(events) == len(report.cells) * report.phase_count
            phases = [e.fields["phase"] for e in events]
            assert phases == sorted(phases)
            exposition = OBS.metrics.render_prometheus()
            assert "repro_campaign_cells_total" in exposition
            assert "repro_campaign_retries_per_read" in exposition
            assert "repro_campaign_p99_us" in exposition
        finally:
            OBS.disable()
            OBS.reset()

    def test_stats_fold_summarizes_phases(self):
        from repro.obs.stats import Campaign, TraceStats, fold, render
        from repro.obs.trace import TraceEvent

        stats = TraceStats()
        for p, retries in enumerate((0.1, 0.5, 0.9), start=1):
            fold(stats, TraceEvent(seq=p, kind="campaign_phase", fields={
                "policy": "sentinel", "phase": p,
                "age_hours": 2920.0 * p,
                "retries_per_read": retries, "p99_us": 700.0,
                "balanced": p != 3,
            }))
        campaign = stats.section(Campaign)
        assert campaign.by_policy["sentinel"][0] == 3
        assert campaign.max_age_hours == pytest.approx(8760.0)
        assert campaign.imbalanced == 1
        text = render(stats)
        assert "lifetime campaign" in text
        assert "oldest device age: 8760 h" in text


class TestCli:
    def test_grid_run_writes_balanced_json(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "policies": ["sentinel"],
            "phases": 3,
            "requests_per_phase": 60,
            "cells_per_wordline": CELLS,
        }))
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--grid", str(grid), "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["policies"] == ["sentinel"]
        assert payload["phase_count"] == 3
        assert len(payload["cells"]) == 1
        assert all(c["balanced"] for c in payload["cells"])
        assert "campaign report" in capsys.readouterr().out

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"policies": ["sputnik"]}))
        assert main(["campaign", "--grid", str(grid)]) == 2
        assert "bad grid" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[1, 2]", "null"])
    def test_grid_that_is_no_object_exits_2(self, content, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(content)
        assert main(["campaign", "--grid", str(grid)]) == 2
        assert "holds no JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        {"scale": 0},
        {"scale": -1},
        {"phases": 2.5},
        {"requests_per_phase": 2.5},
        {"policies": []},
        {"schedules": []},
        {"environments": []},
        {"workloads": []},
    ], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
    def test_grid_with_a_bad_value_exits_2(self, content, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(content))
        assert main(["campaign", "--grid", str(grid)]) == 2
        assert "bad grid" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        {"phases": "x"},
        {"cells_per_wordline": None},
    ], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
    def test_smoke_grid_with_a_bad_value_exits_2(
        self, content, tmp_path, capsys
    ):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(content))
        assert main(["campaign", "--smoke", "--grid", str(grid)]) == 2
        assert "bad grid" in capsys.readouterr().err
