"""Robustness and edge-case behaviour, one class per subsystem.

The resilience classes exercise the hardened serving layer directly:
breaker state machine, cache quarantine, and the request-accounting
identity (served + degraded + shed == offered) under injected faults.
"""

import json

import numpy as np
import pytest

from repro.core.models import SentinelModel
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.voltage_cache import QUARANTINE_US, VoltageOffsetCache
from repro.ssd.config import SsdConfig
from repro.ssd.retry_model import RetryProfile
from repro.ssd.ssd import Ssd
from repro.ssd.timing import NandTiming
from repro.traces.trace import Trace
from repro.util.rng import derive_rng


# ---------------------------------------------------------------------------
# traces / SSD
# ---------------------------------------------------------------------------
class TestTraceRobustness:
    def test_empty_trace(self, tiny_tlc):
        config = SsdConfig.for_spec(
            tiny_tlc, channels=1, dies_per_channel=1, blocks_per_die=4,
        )
        profile = RetryProfile.ideal([0, 1, 2], {0: 1, 1: 2, 2: 4})
        report = Ssd(tiny_tlc, config, NandTiming(), profile).run_trace(
            Trace("empty", [])
        )
        assert report.host_reads == 0 and report.host_writes == 0
        assert report.read_stats.count == 0
        assert report.summary()  # renders without crashing

    def test_empty_trace_properties(self):
        trace = Trace("empty", [])
        assert trace.duration_s == 0.0
        assert trace.read_fraction == 0.0


# ---------------------------------------------------------------------------
# core models
# ---------------------------------------------------------------------------
class TestModelRobustness:
    def test_from_dict_missing_scaling_fields_defaults(self):
        """Old serialized models (before x_shift/x_scale) still load."""
        data = {
            "spec_name": "legacy",
            "sentinel_voltage": 4,
            "n_voltages": 7,
            "difference_poly": {
                "coeffs": [100.0, 0.0],
                "x_min": -0.1,
                "x_max": 0.1,
            },
            "correlations": [
                {
                    "temp_low_c": -273.0,
                    "temp_high_c": 1000.0,
                    "slopes": [1.0] * 7,
                    "intercepts": [0.0] * 7,
                }
            ],
        }
        model = SentinelModel.from_dict(data)
        assert model.infer_sentinel_offset(0.05) == pytest.approx(5.0)

    def test_from_dict_bad_correlation_size(self):
        bad = {
            "spec_name": "x",
            "sentinel_voltage": 4,
            "n_voltages": 7,
            "difference_poly": {"coeffs": [0.0], "x_min": 0, "x_max": 1},
            "correlations": [
                {
                    "temp_low_c": 0,
                    "temp_high_c": 1,
                    "slopes": [1.0] * 5,  # wrong length
                    "intercepts": [0.0] * 5,
                }
            ],
        }
        with pytest.raises(ValueError):
            SentinelModel.from_dict(bad)


# ---------------------------------------------------------------------------
# retry profiles
# ---------------------------------------------------------------------------
class TestProfileRobustness:
    def test_unknown_page_type_raises(self):
        profile = RetryProfile.ideal([0, 1], {0: 1, 1: 2})
        with pytest.raises(KeyError):
            profile.sample(5, derive_rng(1))

    def test_mean_read_us_empty(self):
        profile = RetryProfile(policy_name="x", page_voltages={}, samples={})
        assert profile.mean_read_us(NandTiming()) == 0.0


# ---------------------------------------------------------------------------
# flash determinism
# ---------------------------------------------------------------------------
class TestFlashDeterminism:
    """Seed-derived state must not depend on dict ordering or caching."""

    def test_wordline_identical_after_cache_eviction(self, tiny_tlc):
        from repro.flash.chip import FlashChip

        chip = FlashChip(tiny_tlc, seed=3)
        first = chip.wordline(0, 5).vth.copy()
        chip.wordline(0, 6)
        again = chip.wordline(0, 5).vth
        np.testing.assert_array_equal(first, again)

    def test_variation_independent_of_query_order(self, tiny_tlc):
        from repro.flash.variation import BlockVariation

        a = BlockVariation(tiny_tlc, chip_seed=9, block=0)
        b = BlockVariation(tiny_tlc, chip_seed=9, block=0)
        m1 = [a.wordline_modifiers(w).shift_mult for w in (3, 1, 2)]
        m2 = [b.wordline_modifiers(w).shift_mult for w in (1, 2, 3)]
        assert m1[1] == m2[0] and m1[2] == m2[1] and m1[0] == m2[2]


# ---------------------------------------------------------------------------
# service resilience: circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        b = CircuitBreaker(die=0, threshold=3, open_us=100.0)
        assert b.record_failure(10.0) is None
        assert b.record_failure(11.0) is None
        assert b.record_failure(12.0) == "open"
        assert b.state == OPEN and b.trips == 1
        assert not b.allow(12.0)  # still cooling down

    def test_success_resets_the_consecutive_count(self):
        b = CircuitBreaker(die=0, threshold=2, open_us=100.0)
        b.record_failure(1.0)
        b.record_success()
        assert b.record_failure(2.0) is None  # count restarted
        assert b.state == CLOSED

    def test_half_open_trial_recovers(self):
        b = CircuitBreaker(die=0, threshold=1, open_us=50.0)
        assert b.record_failure(0.0) == "open"
        assert not b.allow(49.0)
        assert b.allow(50.0)  # cool-down elapsed: one trial admitted
        assert b.state == HALF_OPEN
        b.record_success()
        assert b.state == CLOSED

    def test_half_open_trial_failure_reopens(self):
        b = CircuitBreaker(die=0, threshold=1, open_us=50.0)
        b.record_failure(0.0)
        assert b.allow(60.0)
        assert b.record_failure(61.0) == "reopen"
        assert b.state == OPEN and b.trips == 2
        assert not b.allow(100.0)  # fresh cool-down from the re-open
        assert b.allow(111.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(die=0, threshold=0, open_us=1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(die=0, threshold=1, open_us=0.0)


# ---------------------------------------------------------------------------
# service resilience: cache quarantine
# ---------------------------------------------------------------------------
class TestCacheQuarantine:
    def test_quarantine_drops_and_blocks_the_key(self):
        cache = VoltageOffsetCache()
        key = (0, 1, 2)
        cache.put(key, now_us=0.0, pe_cycles=0)
        cache.quarantine(key, now_us=10.0)
        assert cache.quarantined == 1
        assert cache.lookup(key, 20.0, 0) is None
        cache.put(key, now_us=20.0, pe_cycles=0)  # refused
        assert len(cache) == 0

    def test_quarantine_expires(self):
        cache = VoltageOffsetCache()
        key = (0, 0, 0)
        cache.quarantine(key, now_us=0.0)
        cache.put(key, now_us=QUARANTINE_US - 1.0, pe_cycles=0)
        assert len(cache) == 0  # still refused just before the expiry
        cache.put(key, now_us=QUARANTINE_US, pe_cycles=0)
        assert cache.lookup(key, QUARANTINE_US + 1.0, 0) is not None

    def test_other_keys_unaffected(self):
        cache = VoltageOffsetCache()
        cache.put((0, 0, 0), now_us=0.0, pe_cycles=0)
        cache.quarantine((9, 9, 9), now_us=0.0)
        assert cache.lookup((0, 0, 0), 1.0, 0) is not None

    def test_stats_key_only_when_quarantined(self):
        cache = VoltageOffsetCache()
        assert "quarantined" not in cache.stats()
        cache.quarantine((0, 0, 0), now_us=0.0)
        assert cache.stats()["quarantined"] == 1


# ---------------------------------------------------------------------------
# service resilience: end-to-end accounting under faults
# ---------------------------------------------------------------------------
class TestServiceResilience:
    @pytest.fixture(autouse=True)
    def _faults_off(self):
        FAULTS.deactivate()
        yield
        FAULTS.deactivate()

    def _run_service(self, seed=7, n_requests=120):
        from repro.exp.common import sim_spec
        from repro.service import (
            FlashReadService,
            ServiceConfig,
            mixed_scenario,
            synthetic_profiles,
        )

        spec = sim_spec("tlc", cells_per_wordline=4096)
        service = FlashReadService(
            spec=spec,
            ssd_config=SsdConfig(
                channels=2, dies_per_channel=2, blocks_per_die=64,
                pages_per_block=64,
            ),
            timing=NandTiming(),
            profiles=synthetic_profiles("tlc"),
            seed=seed,
            config=ServiceConfig(),
        )
        clients = mixed_scenario(
            n_requests=n_requests, read_iops=4000.0, footprint_pages=512
        )
        return service.run(list(clients), scenario="resilience")

    def test_permanent_die_stall_trips_breaker_and_degrades(self):
        """Every read of every die times out: the breakers must trip and
        reads must complete on the degraded path, never hang or vanish."""
        plan = FaultPlan(
            name="stall-everything",
            specs=(
                FaultSpec("ssd.die_stall", probability=1.0,
                          magnitude=50_000.0),
            ),
        )
        FAULTS.activate(plan, seed=7)
        report = self._run_service()
        assert report.resilience["op_timeouts"] > 0
        assert report.resilience["breaker_trips"] >= 1
        assert report.resilience["degraded_reads"] > 0
        assert report.degraded_total > 0
        assert (
            report.served_total + report.degraded_total + report.shed_total
            == report.issued_total
        )

    def test_stale_cache_forces_backoff_retries(self):
        plan = FaultPlan(
            name="stale-cache",
            specs=(FaultSpec("service.cache_stale", probability=1.0),),
        )
        FAULTS.activate(plan, seed=7)
        report = self._run_service()
        assert report.resilience["stale_retries"] > 0
        assert report.resilience["backoffs"] > 0
        assert report.resilience["backoff_us"] > 0

    def test_corrupt_cache_quarantines(self):
        plan = FaultPlan(
            name="corrupt-cache",
            specs=(FaultSpec("service.cache_corrupt", probability=1.0),),
        )
        FAULTS.activate(plan, seed=7)
        report = self._run_service()
        assert report.resilience["cache_quarantines"] > 0
        assert report.cache.get("quarantined", 0) > 0

    def test_accounting_identity_under_standard_plan(self):
        FAULTS.activate(FaultPlan.standard(), seed=7)
        report = self._run_service()
        assert (
            report.served_total + report.degraded_total + report.shed_total
            == report.issued_total
        )
        # the sections render with the fault/resilience lines present
        rendered = report.render()
        assert "faults injected:" in rendered
        assert "resilience:" in rendered

    def test_fault_free_run_reports_no_resilience_sections(self):
        report = self._run_service()
        assert report.faults == {} and report.resilience == {}
        payload = json.loads(report.to_json())
        assert "faults" not in payload
        assert "resilience" not in payload
