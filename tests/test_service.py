"""The online serving layer: cache, scrubber, SLO monitor, broker, report."""

import json

import pytest

from repro.exp.common import sim_spec
from repro.service import (
    COLD,
    WARM,
    ClientSpec,
    FlashReadService,
    ServiceConfig,
    SloMonitor,
    ServiceRequest,
    VoltageOffsetCache,
    generate_requests,
    mixed_scenario,
    synthetic_profiles,
)
from repro.service.broker import BATCH_LIMIT
from repro.service.voltage_cache import REFRESH_AGE_US, TTL_US
from repro.ssd.config import SsdConfig
from repro.ssd.timing import NandTiming

SPEC = sim_spec("tlc", cells_per_wordline=4096)
SSD_CONFIG = SsdConfig(
    channels=2, dies_per_channel=2, blocks_per_die=64, pages_per_block=64
)


def make_service(seed=7, config=None):
    return FlashReadService(
        spec=SPEC,
        ssd_config=SSD_CONFIG,
        timing=NandTiming(),
        profiles=synthetic_profiles("tlc"),
        seed=seed,
        config=config,
    )


def run_mixed(seed=7, config=None, n_requests=200, read_iops=4000.0):
    clients = mixed_scenario(
        n_requests=n_requests, read_iops=read_iops, footprint_pages=512
    )
    svc = make_service(seed=seed, config=config)
    return svc.run(list(clients), scenario="test")


# ---------------------------------------------------------------------------
# voltage-offset cache
# ---------------------------------------------------------------------------
class TestVoltageCache:
    KEY = (0, 3, 5)

    def test_miss_then_hit(self):
        cache = VoltageOffsetCache()
        assert cache.lookup(self.KEY, 0.0, 0) is None
        cache.put(self.KEY, 10.0, 0)
        entry = cache.lookup(self.KEY, 20.0, 0)
        assert entry is not None and entry.hits == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_ttl_expiry(self):
        cache = VoltageOffsetCache()
        cache.put(self.KEY, 0.0, 0)
        assert cache.lookup(self.KEY, TTL_US, 0) is not None  # at the bound
        cache.put(self.KEY, 0.0, 0)
        assert cache.lookup(self.KEY, TTL_US + 0.1, 0) is None
        assert cache.expired == 1
        # the stale entry was removed, not just skipped
        assert len(cache) == 0

    def test_pe_delta_invalidation(self):
        """Any erase since the inference makes an entry stale."""
        cache = VoltageOffsetCache()
        cache.put(self.KEY, 0.0, pe_cycles=4)
        assert cache.lookup(self.KEY, 1.0, pe_cycles=4) is not None
        assert cache.lookup(self.KEY, 2.0, pe_cycles=5) is None
        assert cache.expired == 1

    def test_lru_eviction(self):
        cache = VoltageOffsetCache(capacity=2)
        cache.put((0, 0, 0), 0.0, 0)
        cache.put((0, 0, 1), 1.0, 0)
        cache.lookup((0, 0, 0), 2.0, 0)  # touch: (0,0,1) becomes LRU
        cache.put((0, 0, 2), 3.0, 0)
        assert cache.evicted == 1
        assert cache.lookup((0, 0, 1), 4.0, 0) is None
        assert cache.lookup((0, 0, 0), 4.0, 0) is not None

    def test_scrub_candidates_stalest_first_one_die_only(self):
        cache = VoltageOffsetCache()
        now = TTL_US
        cache.put((0, 0, 0), 0.0, 0)   # stalest
        cache.put((0, 0, 1), now - REFRESH_AGE_US, 0)  # just due
        cache.put((1, 0, 0), 0.0, 0)   # other die: excluded
        cache.put((0, 0, 2), now - REFRESH_AGE_US + 1.0, 0)  # not due
        keys = cache.scrub_candidates(die=0, now_us=now, limit=8)
        assert keys == [(0, 0, 0), (0, 0, 1)]
        assert cache.scrub_candidates(die=0, now_us=now, limit=1) == [(0, 0, 0)]

    def test_refresh_revalidates_past_ttl(self):
        cache = VoltageOffsetCache()
        cache.put(self.KEY, 0.0, 0)
        cache.refresh(self.KEY, 5 * TTL_US, 0)
        entry = cache.lookup(self.KEY, 5.5 * TTL_US, 0)
        assert entry is not None and entry.stored_us == 5 * TTL_US
        assert cache.refreshed == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VoltageOffsetCache(capacity=0)


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------
class TestWorkload:
    def test_poisson_arrivals_monotone_and_deterministic(self):
        spec = mixed_scenario(n_requests=50)[0]
        a = generate_requests(spec, seed=3)
        b = generate_requests(spec, seed=3)
        assert [r.arrival_us for r in a] == [r.arrival_us for r in b]
        arrivals = [r.arrival_us for r in a]
        assert arrivals == sorted(arrivals)
        assert all(r.is_read for r in a)

    def test_closed_client_has_no_arrivals(self):
        spec = mixed_scenario(n_requests=50)[1]
        reqs = generate_requests(spec, seed=3)
        assert all(r.arrival_us is None for r in reqs)
        assert 0 < sum(r.is_read for r in reqs) < len(reqs)

    def test_footprints_stay_disjoint(self):
        reader, batch = mixed_scenario(n_requests=50, footprint_pages=256)
        for req in generate_requests(reader, seed=1):
            assert 0 <= req.lpn < 256
        for req in generate_requests(batch, seed=1):
            assert 256 <= req.lpn < 512

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClientSpec(name="x", mode="open")  # unknown mode
        with pytest.raises(ValueError):
            ClientSpec(name="x", mode="poisson", read_fraction=2.0)


# ---------------------------------------------------------------------------
# SLO monitor
# ---------------------------------------------------------------------------
class TestSloMonitor:
    def test_summary_percentiles(self):
        slo = SloMonitor(window_us=100.0)
        for i in range(100):
            slo.record_issue("a")
            slo.record_completion("a", now_us=float(i), latency_us=float(i + 1),
                                 is_read=True)
        summary = slo.summary(horizon_us=100.0)["a"]
        assert summary["issued"] == 100
        assert summary["completed"] == 100
        assert summary["read_p50_us"] == pytest.approx(50.5, abs=1.0)
        assert summary["read_p99_us"] >= summary["read_p50_us"]
        assert summary["iops"] == pytest.approx(1e6)  # 100 in 100 us

    def test_shed_accounting(self):
        slo = SloMonitor(window_us=100.0)
        slo.record_issue("a")
        slo.record_shed("a", now_us=1.0, is_read=True)
        summary = slo.summary(horizon_us=100.0)["a"]
        assert summary["shed"] == 1 and summary["completed"] == 0

    def test_window_series_keeps_empty_windows(self):
        slo = SloMonitor(window_us=10.0)
        for now in (1.0, 25.0):
            slo.record_issue("a")
            slo.record_completion("a", now_us=now, latency_us=5.0, is_read=True)
        series = slo.window_series("a")
        assert len(series) == 3  # [0,10), [10,20) empty, [20,30)
        assert series[1]["iops"] == 0.0

    def test_window_series_keeps_trailing_idle_windows(self):
        # regression: a client that went quiet used to lose every window
        # after its last completion — the series must span the run horizon
        slo = SloMonitor(window_us=10.0)
        slo.record_issue("a")
        slo.record_completion("a", now_us=5.0, latency_us=2.0, is_read=True)
        series = slo.window_series("a", horizon_us=55.0)
        assert len(series) == 6  # [0,10) .. [50,60): ceil(55/10)
        assert [w["iops"] for w in series[1:]] == [0.0] * 5
        assert series[-1]["window_start_us"] == 50.0

    def test_window_series_horizon_on_boundary_opens_no_window(self):
        slo = SloMonitor(window_us=10.0)
        slo.record_issue("a")
        slo.record_completion("a", now_us=5.0, latency_us=2.0, is_read=True)
        assert len(slo.window_series("a", horizon_us=20.0)) == 2
        # a horizon shorter than the data never truncates the series
        assert len(slo.window_series("a", horizon_us=1.0)) == 1

    def test_summary_zero_horizon_guards_iops(self):
        slo = SloMonitor(window_us=10.0)
        slo.record_issue("a")
        slo.record_completion("a", now_us=0.0, latency_us=1.0, is_read=True)
        assert slo.summary(horizon_us=0.0)["a"]["iops"] == 0.0


# ---------------------------------------------------------------------------
# the serving engine
# ---------------------------------------------------------------------------
class TestFlashReadService:
    def test_same_seed_bit_identical_report(self):
        a = run_mixed(seed=11).to_json()
        b = run_mixed(seed=11).to_json()
        assert a == b

    def test_different_seed_differs(self):
        assert run_mixed(seed=11).to_json() != run_mixed(seed=12).to_json()

    def test_report_json_round_trips(self):
        report = run_mixed()
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "test"
        assert set(payload["clients"]) == {"online-read", "batch-mixed"}

    def test_all_requests_accounted(self):
        report = run_mixed()
        for stats in report.clients.values():
            assert stats["issued"] == stats["completed"] + stats["shed"]

    def test_cache_reduces_mean_retries(self):
        on = run_mixed(config=ServiceConfig(cache_enabled=True))
        off = run_mixed(config=ServiceConfig(cache_enabled=False))
        assert on.cache["hit_rate"] > 0.5
        assert on.mean_retries_per_read < off.mean_retries_per_read
        assert off.cache == {}

    def test_admission_limit_sheds(self):
        overloaded = run_mixed(
            config=ServiceConfig(admit_limit=2, die_queue_limit=1),
            read_iops=50000.0,
        )
        assert overloaded.shed_total > 0
        assert overloaded.completed_total + overloaded.shed_total == sum(
            s["issued"] for s in overloaded.clients.values()
        )

    def test_scrubber_improves_hit_rate_under_drift(self):
        # low load over a horizon past the TTL: entries drift-expire within
        # the run, and dies have idle gaps for the scrubber to use
        clients = mixed_scenario(
            n_requests=300, read_iops=100.0, footprint_pages=256
        )
        scrubbed = make_service(
            config=ServiceConfig(scrub_enabled=True),
        ).run(list(clients), scenario="drift")
        plain = make_service(
            config=ServiceConfig(scrub_enabled=False),
        ).run(list(clients), scenario="drift")
        assert plain.horizon_us > TTL_US
        assert plain.cache["expired"] > 0  # drift fires without the scrubber
        assert scrubbed.scrub["passes"] > 0
        assert scrubbed.cache["hit_rate"] > plain.cache["hit_rate"]
        assert scrubbed.mean_retries_per_read < plain.mean_retries_per_read

    def test_scrub_pass_bounded_by_preemption_bound(self):
        svc = make_service()
        clients = mixed_scenario(
            n_requests=300, read_iops=100.0, footprint_pages=256
        )
        report = svc.run(list(clients), scenario="drift")
        passes = report.scrub["passes"]
        assert passes > 0
        bound = report.scrub["preemption_bound_us"]
        assert report.scrub["busy_us"] <= passes * bound + 1e-9

    def test_requires_cold_profile(self):
        profiles = synthetic_profiles("tlc")
        with pytest.raises(ValueError):
            FlashReadService(
                spec=SPEC, ssd_config=SSD_CONFIG, timing=NandTiming(),
                profiles={WARM: profiles[WARM]},
            )

    def test_cache_needs_warm_profile(self):
        profiles = synthetic_profiles("tlc")
        with pytest.raises(ValueError):
            FlashReadService(
                spec=SPEC, ssd_config=SSD_CONFIG, timing=NandTiming(),
                profiles={COLD: profiles[COLD]},
                config=ServiceConfig(cache_enabled=True),
            )
        # cache off: cold alone suffices
        FlashReadService(
            spec=SPEC, ssd_config=SSD_CONFIG, timing=NandTiming(),
            profiles={COLD: profiles[COLD]},
            config=ServiceConfig(cache_enabled=False, scrub_enabled=False),
        )

    def test_duplicate_client_names_rejected(self):
        svc = make_service()
        reader = mixed_scenario(n_requests=10)[0]
        with pytest.raises(ValueError):
            svc.run([reader, reader])

    def test_open_loop_request_requires_arrival(self):
        svc = make_service()
        req = ServiceRequest(
            client="a", index=0, is_read=True, lpn=0, n_pages=1,
            arrival_us=None,
        )
        with pytest.raises(ValueError):
            svc.run_prepared({"a": [req]})


# ---------------------------------------------------------------------------
# batched die scheduling
# ---------------------------------------------------------------------------
def _same_page_reads(n, client="burst"):
    """n co-arriving single-page reads of one lpn: one (die, block,
    wordline) after preconditioning, so every one is coalescible."""
    return [
        ServiceRequest(
            client=client, index=i, is_read=True, lpn=5, n_pages=1,
            arrival_us=0.0,
        )
        for i in range(n)
    ]


class TestBatchedScheduling:
    def test_co_arriving_same_wordline_reads_coalesce(self):
        svc = make_service(config=ServiceConfig(batch_enabled=True))
        report = svc.run_prepared({"burst": _same_page_reads(6)})
        assert svc.batch_stats["batches"] >= 1
        assert svc.batch_stats["coalesced_reads"] >= 1
        assert svc.batch_stats["max_batch"] <= BATCH_LIMIT
        stats = report.clients["burst"]
        assert stats["completed"] + stats["shed"] == stats["issued"] == 6

    def test_batch_limit_caps_batch_size(self):
        """More co-queued reads of one wordline than a batch holds (and
        fewer than the die queue's 16): the batches fill up to exactly
        ``BATCH_LIMIT``, never past it."""
        n = 12
        config = ServiceConfig(batch_enabled=True)
        assert BATCH_LIMIT < n <= config.die_queue_limit
        svc = make_service(config=config)
        svc.run_prepared({"burst": _same_page_reads(n)})
        assert svc.batch_stats["max_batch"] == BATCH_LIMIT

    def test_batching_disabled_by_default(self):
        svc = make_service()
        report = svc.run_prepared({"burst": _same_page_reads(6)})
        assert svc.batch_stats["batches"] == 0
        assert report.batch == {}
        assert "batch" not in json.loads(report.to_json())

    def test_writes_never_coalesce(self):
        svc = make_service(config=ServiceConfig(batch_enabled=True))
        writes = [
            ServiceRequest(
                client="w", index=i, is_read=False, lpn=5, n_pages=1,
                arrival_us=0.0,
            )
            for i in range(6)
        ]
        svc.run_prepared({"w": writes})
        assert svc.batch_stats["batches"] == 0

    def test_batching_finishes_sooner_than_serial(self):
        requests = _same_page_reads(8)
        batched = make_service(
            config=ServiceConfig(batch_enabled=True)
        ).run_prepared({"burst": list(requests)})
        serial = make_service().run_prepared({"burst": list(requests)})
        assert batched.horizon_us < serial.horizon_us
        # both served the same reads; batch followers land in bin 0
        assert sum(batched.retry_histogram.values()) == sum(
            serial.retry_histogram.values()
        )

    def test_batch_section_in_report_json(self):
        svc = make_service(config=ServiceConfig(batch_enabled=True))
        report = svc.run_prepared({"burst": _same_page_reads(4)})
        payload = json.loads(report.to_json())
        assert payload["batch"]["batches"] >= 1
        assert "batches coalesced" in report.render()


# ---------------------------------------------------------------------------
# chip-level hint plumbing (what the warm profile measures)
# ---------------------------------------------------------------------------
class TestSentinelHint:
    def test_hint_none_matches_default_flow(self):
        from repro.core.controller import SentinelController
        from repro.exp.common import default_ecc, eval_chip, trained_model

        chip = eval_chip("tlc", cells_per_wordline=4096)
        policy = SentinelController(default_ecc("tlc"), trained_model("tlc"))
        wl = chip.wordline(0, 8)
        plain = policy.read(wl, "MSB")
        explicit = policy.read(wl, "MSB", hint=None)
        assert (plain.retries, plain.extra_single_reads) == (
            explicit.retries, explicit.extra_single_reads
        )

    def test_good_hint_shaves_retries(self):
        from repro.core.controller import SentinelController
        from repro.exp.common import default_ecc, eval_chip, trained_model
        from repro.service.profiles import SentinelHintFn

        chip = eval_chip("tlc", cells_per_wordline=4096)
        model = trained_model("tlc")
        policy = SentinelController(default_ecc("tlc"), model)
        hint_fn = SentinelHintFn(model)
        cold = warm = 0
        wordlines = range(0, chip.spec.wordlines_per_block, 12)
        for wl in chip.block_columns(0, wordlines).iter_views():
            hint = hint_fn(wl)
            for page in range(chip.spec.pages_per_wordline):
                cold += policy.read(wl, page).retries
                warm += policy.read(wl, page, hint=hint).retries
        assert warm < cold


# ---------------------------------------------------------------------------
# streaming event-time windows + watermark
# ---------------------------------------------------------------------------
class TestStreamingWindows:
    def _windows(self, window_us=100.0):
        from repro.service.slo import StreamingWindows

        return StreamingWindows(window_us, client="c")

    def test_watermark_closes_passed_windows(self):
        w = self._windows()
        w.observe(50.0)
        assert w.closed_windows == 0
        w.observe(250.0)  # watermark 250 -> windows 0 and 1 closed
        assert w.closed_windows == 2
        assert w.watermark_us == 250.0
        assert w.late_arrivals == 0

    def test_late_arrival_counted_but_still_merged(self):
        w = self._windows()
        w.observe(250.0, read_latency_us=10.0)
        w.observe(20.0, read_latency_us=99.0)  # window 0 already closed
        assert w.late_arrivals == 1
        series = w.series()
        assert series[0]["iops"] == pytest.approx(1 / (100.0 / 1e6))
        assert series[0]["read_p99_us"] == pytest.approx(99.0)

    def test_advance_to_closes_idle_tail(self):
        w = self._windows()
        w.observe(50.0)
        w.advance_to(1000.0)
        assert w.closed_windows == 10
        w.advance_to(500.0)  # watermark never regresses
        assert w.watermark_us == 1000.0

    def test_out_of_order_series_matches_in_order(self):
        in_order = self._windows()
        shuffled = self._windows()
        stamps = [(10.0, 5.0), (120.0, 7.0), (130.0, None), (260.0, 9.0)]
        for ts, lat in stamps:
            in_order.observe(ts, read_latency_us=lat)
        for ts, lat in (stamps[3], stamps[0], stamps[2], stamps[1]):
            shuffled.observe(ts, read_latency_us=lat)
        assert shuffled.late_arrivals > 0
        assert in_order.series() == shuffled.series()

    def test_closed_window_emits_slo_window_event(self):
        from repro import obs
        from repro.obs import OBS

        obs.enable(capacity=1000)
        try:
            w = self._windows()
            w.observe(30.0, read_latency_us=42.0)
            w.observe(150.0)
            events = [e for e in OBS.tracer.events()
                      if e.kind == "slo_window"]
            assert len(events) == 1
            f = events[0].fields
            assert f["client"] == "c"
            assert f["window_start_us"] == 0.0
            assert f["completed"] == 1
            assert f["read_p99_us"] == pytest.approx(42.0)
            assert f["late"] == 0
        finally:
            obs.disable()
            obs.reset()

    def test_monitor_advance_watermark_and_late_total(self):
        mon = SloMonitor(window_us=100.0)
        mon.record_completion("b", 250.0, 10.0, is_read=True)
        mon.record_completion("a", 250.0, 10.0, is_read=True)
        mon.record_completion("a", 10.0, 10.0, is_read=True)  # late
        assert mon.late_arrivals == 1
        mon.advance_watermark(1000.0)
        for acct in mon.clients.values():
            assert acct.windows.closed_windows == 10

    def test_rejects_bad_parameters(self):
        from repro.service.slo import StreamingWindows

        with pytest.raises(ValueError):
            StreamingWindows(0.0)
