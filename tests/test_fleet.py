"""Fleet simulation: dispatch, warm-start transfer, worker invariance."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fleet import (
    FLEET_NAMESPACE,
    FleetConfig,
    default_tenants,
    device_seed,
    dispatch,
    run_fleet,
    tenant_seed,
)
from repro.obs import OBS
from repro.service.voltage_cache import TTL_US, VoltageOffsetCache
from repro.service.workload import generate_requests
from repro.util.rng import derive_seed

SMALL = FleetConfig(
    n_devices=4,
    n_tenants=2,
    workers=1,
    requests_per_tenant=60,
    footprint_pages=256,
)


def run_small(workers=1, warm_start=True, seed=5, **overrides):
    params = {
        "n_devices": SMALL.n_devices,
        "n_tenants": SMALL.n_tenants,
        "requests_per_tenant": SMALL.requests_per_tenant,
        "footprint_pages": SMALL.footprint_pages,
        **overrides,
    }
    config = FleetConfig(workers=workers, warm_start=warm_start, **params)
    return run_fleet(config, seed=seed)


@pytest.fixture(scope="module")
def small_report():
    """One warm fleet run shared by the read-only assertions."""
    return run_small()


# ---------------------------------------------------------------------------
# seed-tree namespacing (fleet streams never collide with other namespaces)
# ---------------------------------------------------------------------------
class TestSeedNamespacing:
    def test_fleet_namespace_literal(self):
        assert FLEET_NAMESPACE == "fleet"

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        index=st.integers(min_value=0, max_value=512),
        ordinal=st.integers(min_value=0, max_value=16),
    )
    def test_device_streams_disjoint_from_other_namespaces(
        self, seed, index, ordinal
    ):
        dev = device_seed(seed, index)
        ten = tenant_seed(seed, f"tenant-{index:02d}")
        # engine shard streams: (chip_seed, "engine", stream, block, wls)
        engine = derive_seed(seed, "engine", "device", index)
        # faults per-target streams: (seed, "faults", salt, kind, *ids, ord)
        faults = derive_seed(seed, "faults", 0, "device", index, ordinal)
        # serving-layer streams: (seed, "service", name)
        service = derive_seed(seed, "service", f"tenant-{index:02d}")
        assert len({dev, ten, engine, faults, service}) == 5

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.integers(min_value=0, max_value=256),
        b=st.integers(min_value=0, max_value=256),
    )
    def test_distinct_devices_distinct_streams(self, seed, a, b):
        if a == b:
            assert device_seed(seed, a) == device_seed(seed, b)
        else:
            assert device_seed(seed, a) != device_seed(seed, b)
        # a device's stream never aliases any tenant stream, even when the
        # tenant name embeds the same integer
        assert device_seed(seed, a) != tenant_seed(seed, str(a))


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------
def _requests(spec, seed):
    """A tenant's stream, generated as the fleet runner does."""
    return generate_requests(spec, seed=tenant_seed(seed, spec.name))


def _streams(sizes, seed=9):
    specs = default_tenants(len(sizes), n_requests=max(sizes))
    out = {}
    for spec, size in zip(specs, sizes):
        out[spec.name] = _requests(spec, seed)[:size]
    return out


class TestDispatcher:
    def test_affinity_keeps_tenant_on_primary_when_capacity_allows(self):
        # capacity = ceil(20 * 1.25 / 2) = 13 >= 10: no tenant spills
        streams = _streams([10, 10])
        plan = dispatch(streams, n_devices=2)
        assert plan.capacity == 13
        assert plan.primaries == {"tenant-00": 0, "tenant-01": 1}
        assert plan.spilled_total == 0
        assert set(plan.per_device[0]) == {"tenant-00"}
        assert set(plan.per_device[1]) == {"tenant-01"}

    def test_conservation_every_request_routed_exactly_once(self):
        streams = _streams([25, 13, 7])
        plan = dispatch(streams, n_devices=3)
        total = sum(len(s) for s in streams.values())
        assert plan.total_requests == total
        routed = sum(
            len(reqs) for dev in plan.per_device for reqs in dev.values()
        )
        assert routed == total
        # per-device load never exceeds the advertised capacity
        for dev in plan.per_device:
            assert sum(len(reqs) for reqs in dev.values()) <= plan.capacity

    def test_spillover_walks_ring_past_full_primary(self):
        # one tenant, two devices: capacity = ceil(40 * 1.25 / 2) = 25, so
        # the rest of the stream must spill off the primary onto device 1
        streams = _streams([40])
        plan = dispatch(streams, n_devices=2)
        assert plan.capacity == 25
        assert plan.spilled_total == 15
        spilled = {r.device: r.spilled for r in plan.records}
        assert spilled == {0: 0, 1: 15}

    def test_deterministic_replan(self):
        streams = _streams([17, 29, 5])
        a = dispatch(streams, n_devices=3)
        b = dispatch(streams, n_devices=3)
        assert a.records == b.records
        assert a.per_device == b.per_device

    def test_validation(self):
        with pytest.raises(ValueError):
            dispatch(_streams([4]), n_devices=0)
        with pytest.raises(ValueError):
            default_tenants(0)

    def test_tenant_streams_deterministic_and_partitioned(self):
        spec_a, spec_b = default_tenants(2, n_requests=20, footprint_pages=64)
        assert _requests(spec_a, 3) == _requests(spec_a, 3)
        assert _requests(spec_a, 3) != _requests(spec_a, 4)
        # disjoint logical partitions: tenant-01 starts past tenant-00
        assert spec_b.base_lpn == spec_a.base_lpn + spec_a.footprint_pages
        lpns_a = {r.lpn for r in _requests(spec_a, 3)}
        lpns_b = {r.lpn for r in _requests(spec_b, 3)}
        assert max(lpns_a) < spec_b.base_lpn <= min(lpns_b)


# ---------------------------------------------------------------------------
# voltage-cache export / warm-start round trip
# ---------------------------------------------------------------------------
#: the transfer tests' time unit: the TTL is 100 units
U = TTL_US / 100


class TestCacheTransfer:
    def test_ttl_survives_export_import(self):
        src = VoltageOffsetCache()
        src.put((0, 1, 2), now_us=10 * U, pe_cycles=0)
        state = src.export_state(now_us=40 * U)
        assert state["entries"][0]["age_us"] == pytest.approx(30 * U)

        dst = VoltageOffsetCache()
        assert dst.warm_start(state, now_us=1000 * U) == 1
        # re-based age is 30 units: still fresh at total age 99...
        hit = dst.lookup((0, 1, 2), now_us=1069 * U, pe_cycles=0)
        assert hit is not None and hit.warm
        assert dst.warm_hits == 1
        # ...and expired past the TTL, counted as a *warm* expiry
        assert dst.lookup((0, 1, 2), now_us=1071 * U, pe_cycles=0) is None
        assert dst.warm_expired == 1

    def test_one_erase_after_import_invalidates(self):
        src = VoltageOffsetCache()
        src.put((0, 0, 0), now_us=0.0, pe_cycles=4)
        # erased since the inference: stale, so never exported
        assert src.export_state(now_us=1.0, pe_of=lambda key: 5) == {
            "entries": []
        }
        state = src.export_state(now_us=1.0, pe_of=lambda key: 4)
        assert set(state["entries"][0]) == {
            "die", "block", "layer", "age_us"
        }

        dst = VoltageOffsetCache()
        assert dst.warm_start(state, now_us=0.0, pe_of=lambda key: 10) == 1
        # the importer's erase count at import is the entry's baseline...
        assert dst.lookup((0, 0, 0), now_us=1.0, pe_cycles=10) is not None
        # ...and one erase after the import invalidates
        assert dst.lookup((0, 0, 0), now_us=2.0, pe_cycles=11) is None
        assert dst.warm_expired == 1

    def test_quarantined_keys_never_exported(self):
        src = VoltageOffsetCache()
        src.put((0, 0, 0), now_us=0.0, pe_cycles=0)
        src.put((0, 0, 1), now_us=0.0, pe_cycles=0)
        src.quarantine((0, 0, 0), now_us=1.0)
        state = src.export_state(now_us=2.0)
        exported = {(e["die"], e["block"], e["layer"])
                    for e in state["entries"]}
        assert exported == {(0, 0, 1)}

    def test_quarantined_importer_key_refuses_entry(self):
        src = VoltageOffsetCache()
        src.put((1, 1, 1), now_us=0.0, pe_cycles=0)
        state = src.export_state(now_us=1.0)
        dst = VoltageOffsetCache()
        dst.quarantine((1, 1, 1), now_us=0.0)
        assert dst.warm_start(state, now_us=1.0) == 0
        assert len(dst) == 0

    def test_local_entries_win_over_fleet_history(self):
        src = VoltageOffsetCache()
        src.put((2, 2, 2), now_us=0.0, pe_cycles=0)
        state = src.export_state(now_us=1.0)
        dst = VoltageOffsetCache()
        dst.put((2, 2, 2), now_us=0.0, pe_cycles=0)
        assert dst.warm_start(state, now_us=1.0) == 0
        assert not dst.lookup((2, 2, 2), now_us=1.0, pe_cycles=0).warm

    def test_stale_export_entries_skipped_on_import(self):
        state = {
            "entries": [
                {"die": 0, "block": 0, "layer": 0, "age_us": TTL_US + 1.0},
            ],
        }
        dst = VoltageOffsetCache()
        assert dst.warm_start(state, now_us=0.0) == 0

    def test_import_respects_capacity(self):
        src = VoltageOffsetCache()
        for layer in range(4):
            src.put((0, 0, layer), now_us=0.0, pe_cycles=0)
        dst = VoltageOffsetCache(capacity=2)
        assert dst.warm_start(src.export_state(now_us=0.0), now_us=0.0) == 4
        assert len(dst) == 2
        assert dst.evicted == 2

    def test_warm_counters_gated_in_stats(self):
        cache = VoltageOffsetCache()
        cache.put((0, 0, 0), now_us=0.0, pe_cycles=0)
        assert "warm_started" not in cache.stats()
        other = VoltageOffsetCache()
        other.warm_start(cache.export_state(now_us=0.0), now_us=0.0)
        stats = other.stats()
        assert stats["warm_started"] == 1
        assert stats["warm_hits"] == 0
        assert stats["warm_expired"] == 0


# ---------------------------------------------------------------------------
# fleet runs
# ---------------------------------------------------------------------------
class TestFleetRun:
    def test_accounting_identity_per_tenant_and_fleet_wide(self, small_report):
        report = small_report
        assert report.balanced
        acc = report.accounting
        assert acc["served"] + acc["degraded"] + acc["shed"] == acc["offered"]
        assert acc["offered"] == SMALL.n_tenants * SMALL.requests_per_tenant
        for tenant, row in acc["tenants"].items():
            assert row["balanced"], tenant
            assert (
                row["served"] + row["degraded"] + row["shed"]
                == row["offered"]
                == row["dispatched"]
            )

    def test_cohorts_and_roles(self, small_report):
        report = small_report
        # 4 devices over 2 P/E ages -> 2 cohorts of 2; lowest index seeds
        assert len(report.cohorts) == 2
        roles = {d["index"]: d["role"] for d in report.devices}
        for label, cohort in report.cohorts.items():
            assert cohort["seed_device"] == min(cohort["devices"])
            assert roles[cohort["seed_device"]] == "seed"
            for member in cohort["devices"][1:]:
                assert roles[member] == "warm"

    def test_report_json_roundtrip(self, small_report):
        payload = json.loads(small_report.to_json())
        assert payload["n_devices"] == SMALL.n_devices
        assert payload["accounting"]["balanced"] is True
        assert payload["warm"]["devices_warm_started"] >= 1
        assert small_report.pages_read == sum(
            payload["retry_histogram"].values()
        )

    def test_byte_identical_across_worker_counts(self):
        reports = [run_small(workers=w).to_json() for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]

    def test_warm_start_beats_cold_on_same_devices(self, small_report):
        """The batch-transfer claim at fleet scale: the *same* devices,
        serving the *same* dispatched streams (the plan is independent of
        warm_start), retry less when cohort-seeded than when cold."""
        warm = small_report
        cold = run_small(warm_start=False)
        assert cold.warm == {}
        # dispatch plans identical -> device-by-device comparison is fair
        assert cold.dispatch == warm.dispatch
        warm_idx = [
            d["index"] for d in warm.devices if d["role"] == "warm"
        ]
        assert warm_idx
        for i in warm_idx:
            w, c = warm.devices[i], cold.devices[i]
            assert w["pages_read"] == c["pages_read"]
            assert w["mean_retries_per_read"] <= c["mean_retries_per_read"]
        assert warm.warm["warm_hits"] > 0
        assert warm.mean_retries_per_read < cold.mean_retries_per_read

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_devices=0)
        with pytest.raises(ValueError):
            FleetConfig(n_tenants=0)

    def test_render_mentions_key_sections(self, small_report):
        text = small_report.render()
        assert "per-tenant SLO" in text
        assert "warm-start:" in text
        assert "batch-transfer win" in text
        assert "balanced" in text

    @settings(max_examples=4, deadline=None)
    @given(
        n_devices=st.integers(min_value=1, max_value=5),
        n_tenants=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_property_worker_invariance(self, n_devices, n_tenants, seed):
        def run(workers):
            return run_fleet(
                FleetConfig(
                    n_devices=n_devices,
                    n_tenants=n_tenants,
                    workers=workers,
                    requests_per_tenant=20,
                    footprint_pages=128,
                ),
                seed=seed,
            )

        serial, sharded = run(1), run(3)
        assert serial.to_json() == sharded.to_json()
        assert serial.balanced


# ---------------------------------------------------------------------------
# observability: fleet events + metrics, parent-side and worker-invariant
# ---------------------------------------------------------------------------
class TestFleetObs:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        OBS.disable()
        OBS.reset()
        yield
        OBS.disable()
        OBS.reset()

    def _kinds(self):
        return [e.kind for e in OBS.tracer.events()]

    def test_fleet_events_and_metrics_emitted(self):
        obs.enable()
        report = run_small(workers=1)
        kinds = self._kinds()
        assert kinds.count("fleet_dispatch") == len(
            report.dispatch["records"]
        )
        assert kinds.count("tenant_slo") == len(report.tenants)
        assert kinds.count("cache_warm_start") == report.warm[
            "devices_warm_started"
        ]
        snap = OBS.metrics.snapshot()
        assert snap["repro_fleet_devices"] == SMALL.n_devices
        assert snap["repro_fleet_spilled_total"] == report.dispatch["spilled"]
        assert (
            snap["repro_fleet_warm_imported_total"]
            == report.warm["entries_imported"]
        )

    def test_fleet_events_worker_invariant(self):
        obs.enable()
        run_small(workers=1)
        serial = [
            (e.kind, e.fields) for e in OBS.tracer.events()
            if e.kind.startswith(("fleet_", "tenant_", "cache_warm"))
        ]
        OBS.reset()
        run_small(workers=3)
        sharded = [
            (e.kind, e.fields) for e in OBS.tracer.events()
            if e.kind.startswith(("fleet_", "tenant_", "cache_warm"))
        ]
        assert serial == sharded

    def test_one_engine_task_per_device(self):
        obs.enable()
        run_small(workers=1, n_devices=6)
        shards = {
            e.fields["label"]: e.fields["shards"]
            for e in OBS.tracer.events()
            if e.kind == "shard_dispatch"
        }
        # two cohorts: their seed devices, then the other four
        assert shards == {"fleet-seed": 2, "fleet-run": 4}

    def test_disabled_obs_leaves_no_residue(self):
        run_small(workers=2)
        assert len(OBS.tracer) == 0
        assert len(OBS.metrics) == 0
