"""The fault-injection subsystem and its differential contracts.

Two properties anchor everything here:

* **zero-fault transparency** — with the fault machinery dormant *or*
  activated under the empty plan, the service and simulation reports are
  byte-identical to the goldens captured before the subsystem existed,
  and the service run's trace events and metrics are identical too;
* **seed reproducibility** — the same plan + seed produces a
  byte-identical chaos report at any worker count.
"""

import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import eval_stress, sim_spec
from repro.faults import FAULTS, FaultInjector, FaultPlan, FaultSpec
from repro.faults.chaos import run_chaos
from repro.flash.chip import FlashChip
from repro.obs import OBS
from repro.retry.current_flash import CurrentFlashPolicy
from repro.service import (
    FlashReadService,
    ServiceConfig,
    mixed_scenario,
    synthetic_profiles,
)
from repro.ssd.config import SsdConfig
from repro.ssd.retry_model import RetryProfile
from repro.ssd.ssd import Ssd
from repro.ssd.timing import NandTiming
from repro.traces.synthetic import MSR_WORKLOADS, generate_workload
from tests import retry_oracle
from tests.flash_oracle import one_row_wordlines

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(autouse=True)
def _faults_off():
    """Every test starts and ends with the machinery dormant."""
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


def _service_report_json() -> str:
    """The exact configuration the committed service golden was built from."""
    spec = sim_spec("tlc", cells_per_wordline=4096)
    service = FlashReadService(
        spec=spec,
        ssd_config=SsdConfig(
            channels=2, dies_per_channel=2, blocks_per_die=64,
            pages_per_block=64,
        ),
        timing=NandTiming(),
        profiles=synthetic_profiles("tlc"),
        seed=7,
        config=ServiceConfig(),
    )
    clients = mixed_scenario(
        n_requests=200, read_iops=4000.0, footprint_pages=512
    )
    return service.run(list(clients), scenario="golden").to_json() + "\n"


def _service_telemetry():
    """Trace JSONL lines and Prometheus text of the golden service run
    with metrics, tracing and span trees all on."""
    OBS.disable()
    OBS.reset()
    obs.enable(capacity=500_000, spans=True)
    try:
        _service_report_json()
        lines = [event.to_json() for event in OBS.tracer.events()]
        prom = OBS.metrics.render_prometheus()
    finally:
        OBS.disable()
        OBS.reset()
    return lines, prom


def _simulation_telemetry():
    """Trace JSONL lines and Prometheus text of the golden simulation run
    with metrics and tracing on."""
    OBS.disable()
    OBS.reset()
    obs.enable(capacity=500_000)
    try:
        _simulation_report()
        lines = [event.to_json() for event in OBS.tracer.events()]
        prom = OBS.metrics.render_prometheus()
    finally:
        OBS.disable()
        OBS.reset()
    return lines, prom


def _simulation_report():
    """The exact configuration the committed simulation golden was built from."""
    spec = sim_spec("tlc", cells_per_wordline=4096)
    trace = generate_workload(
        MSR_WORKLOADS["hm_0"], n_requests=400, seed=5, rate_scale=20.0
    )
    profile = RetryProfile(
        policy_name="golden-fixed",
        page_voltages={0: 1, 1: 2, 2: 4},
        samples=synthetic_profiles("tlc")["cold"].samples,
    )
    return Ssd(
        spec,
        SsdConfig.for_spec(
            spec, channels=2, dies_per_channel=1, blocks_per_die=32
        ),
        NandTiming(),
        profile,
        seed=5,
    ).run_trace(trace)


def _simulation_report_json() -> str:
    sim = _simulation_report()
    payload = {
        "trace_name": sim.trace_name,
        "policy_name": sim.policy_name,
        "read_latencies_us": [float(x) for x in sim.read_latencies_us],
        "write_latencies_us": [float(x) for x in sim.write_latencies_us],
        "simulated_seconds": sim.simulated_seconds,
        "host_reads": sim.host_reads,
        "host_writes": sim.host_writes,
        "gc_writes": sim.gc_writes,
        "gc_erases": sim.gc_erases,
        "write_amplification": sim.write_amplification,
        "retry_histogram": {
            str(k): v for k, v in sorted(sim.retry_histogram.items())
        },
        "extras": {k: float(v) for k, v in sorted(sim.extras.items())},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class TestZeroFaultDifferential:
    """The machinery must be invisible until a spec actually fires."""

    def test_service_report_matches_pre_fault_golden(self):
        assert _service_report_json() == _golden(
            "service_report_tlc_seed7.json"
        )

    def test_service_report_under_empty_plan_matches_golden(self):
        """An *activated* zero-spec plan draws nothing and changes nothing."""
        FAULTS.activate(FaultPlan.none(), seed=7)
        assert _service_report_json() == _golden(
            "service_report_tlc_seed7.json"
        )

    def test_telemetry_under_empty_plan_matches_dormant_run(self):
        """The empty-plan contract covers telemetry too: every trace event
        (span trees included) and every metric come out identical."""
        dormant_lines, dormant_prom = _service_telemetry()
        FAULTS.activate(FaultPlan.none(), seed=7)
        lines, prom = _service_telemetry()
        assert any('"name": "sense"' in line for line in dormant_lines)
        assert len(lines) == len(dormant_lines)
        assert lines == dormant_lines
        assert prom == dormant_prom

    def test_simulation_report_matches_pre_fault_golden(self):
        assert _simulation_report_json() == _golden(
            "simulation_report_tlc_seed5.json"
        )

    def test_simulation_report_under_empty_plan_matches_golden(self):
        FAULTS.activate(FaultPlan.none(), seed=5)
        assert _simulation_report_json() == _golden(
            "simulation_report_tlc_seed5.json"
        )

    def test_simulation_telemetry_under_empty_plan_matches_dormant_run(self):
        """``Ssd``'s fault terms are exactly 0.0 and 1.0 under the empty
        plan: every trace event and metric comes out identical."""
        dormant_lines, dormant_prom = _simulation_telemetry()
        FAULTS.activate(FaultPlan.none(), seed=5)
        lines, prom = _simulation_telemetry()
        assert any('"level": "ssd"' in line for line in dormant_lines)
        assert lines == dormant_lines
        assert prom == dormant_prom


class TestPlanRoundTrip:
    def test_standard_plan_json_round_trip(self, tmp_path):
        plan = FaultPlan.standard()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_dict_round_trip_preserves_selectors(self):
        plan = FaultPlan(
            name="targeted",
            seed_salt=3,
            specs=(
                FaultSpec("ssd.die_stall", dies=(0, 2), start_us=10.0,
                          end_us=20.0, magnitude=5.0),
                FaultSpec("flash.bitflip", blocks=(1,), wordlines=(4, 5)),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("flash.meltdown")

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"name": "x", "wall_clock": True})

    def test_bad_probability_and_window_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("flash.bitflip", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("ssd.die_stall", start_us=10.0, end_us=10.0)

    def test_window_and_selector_semantics(self):
        spec = FaultSpec("ssd.die_stall", dies=(1,), start_us=5.0, end_us=9.0)
        assert spec.in_window(None)  # clockless call sites always match
        assert spec.in_window(5.0) and spec.in_window(8.999)
        assert not spec.in_window(4.999) and not spec.in_window(9.0)
        assert spec.targets(die=1) and not spec.targets(die=0)
        assert spec.targets(die=None)  # unknown coordinate is not filtered


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan.standard()
        outcomes = []
        for _ in range(2):
            inj = FaultInjector(plan, seed=11)
            decisions = [
                inj.ecc_verdict(0, w, decoded=True) for w in range(64)
            ]
            outcomes.append((decisions, inj.counts_snapshot()))
        assert outcomes[0] == outcomes[1]

    def test_ordinals_keyed_per_target(self):
        """Decisions for one wordline are invariant to interleaving with
        other wordlines — the property that makes sharding transparent."""
        plan = FaultPlan(
            name="p",
            specs=(FaultSpec("ecc.timeout", probability=0.5),),
        )
        inj_a = FaultInjector(plan, seed=5)
        solo = [inj_a.ecc_verdict(0, 7, True) for _ in range(8)]
        inj_b = FaultInjector(plan, seed=5)
        interleaved = []
        for _ in range(8):
            inj_b.ecc_verdict(0, 3, True)  # traffic on another wordline
            interleaved.append(inj_b.ecc_verdict(0, 7, True))
        assert solo == interleaved

    def test_empty_plan_never_draws(self):
        inj = FaultInjector(FaultPlan.none(), seed=1)
        assert inj.ecc_verdict(0, 0, True) is True
        assert inj.die_stall_us(0, 100.0) == 0.0
        assert inj.congestion_factor(100.0) == 1.0
        assert inj.cache_event((0, 0, 0), 100.0) is None
        assert not inj.scrub_starved(100.0)
        assert inj.admit_limit(64, 100.0) == 64
        assert inj.counts == {}


def _per_row_chaos_sweep(plan, seed, pages):
    """The chaos chip sweep read one wordline and page at a time with the
    per-row reference driver: what the lockstep sweep must equal."""
    spec = sim_spec("tlc", cells_per_wordline=4096)
    injector = FAULTS.activate(plan, seed)
    try:
        chip = FlashChip(spec, seed, 0.002)
        chip.set_block_stress(0, eval_stress("tlc"))
        policy = CurrentFlashPolicy(CapabilityEcc.for_spec(spec), spec)
        step = max(1, spec.wordlines_per_block // 8)
        wordlines = range(0, spec.wordlines_per_block, step)
        outcomes = [
            retry_oracle.read(policy, wl, p)
            for wl in one_row_wordlines(chip, 0, wordlines)
            for p in pages
        ]
        counts = dict(injector.counts)
    finally:
        FAULTS.deactivate()
    histogram = Counter(str(o.retries) for o in outcomes)
    return {
        "reads": len(outcomes),
        "failures": sum(not o.success for o in outcomes),
        "retry_histogram": {
            k: histogram[k] for k in sorted(histogram, key=int)
        },
        "faults": {k: counts[k] for k in sorted(counts) if counts[k]},
    }


class TestCampaign:
    def test_accounting_identity_and_worker_invariance(self):
        serial = run_chaos(
            FaultPlan.standard(), seed=3, smoke=True, workers=1
        )
        parallel = run_chaos(
            FaultPlan.standard(), seed=3, smoke=True, workers=2
        )
        assert serial.to_json() == parallel.to_json()
        acc = serial.accounting
        assert acc["balanced"]
        assert (
            acc["served"] + acc["degraded"] + acc["shed"] == acc["offered"]
        )

    def test_empty_plan_campaign_injects_nothing(self):
        report = run_chaos(FaultPlan.none(), seed=2, smoke=True, workers=1)
        assert report.faults == {}
        assert report.accounting["balanced"]
        assert report.accounting["degraded"] == 0

    @pytest.mark.parametrize("seed, workers", [(1, 1), (3, 2)])
    def test_sweep_matches_per_row_reference(self, seed, workers):
        """The lockstep chip sweep equals reading each wordline with
        ``CurrentFlashPolicy.read`` under the same plan and seed."""
        pages = (0, 1, 2)
        sweep = run_chaos(
            FaultPlan.standard(), seed=seed, smoke=True, workers=workers,
            n_requests=20, sweep_pages=pages,
        ).sweep
        expected = _per_row_chaos_sweep(FaultPlan.standard(), seed, pages)
        assert sweep["faults"]  # the reference is exercised under faults
        for key in ("reads", "failures", "retry_histogram", "faults"):
            assert sweep[key] == expected[key], key

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None)
    def test_seed_reproducibility_across_worker_counts(self, seed):
        FAULTS.deactivate()  # hypothesis reuses the fixture-wrapped frame
        a = run_chaos(FaultPlan.standard(), seed=seed, smoke=True,
                      workers=1)
        b = run_chaos(FaultPlan.standard(), seed=seed, smoke=True,
                      workers=2)
        assert a.to_json() == b.to_json()
        assert a.accounting["balanced"]
