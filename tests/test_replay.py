"""Trace replay frontend: translation, batching, worker invariance."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.common import sim_spec
from repro.replay import (
    LbaTranslator,
    ReplayConfig,
    plan_request_shards,
    replay_trace,
    translate_trace,
)
from repro.service import ServiceConfig, synthetic_profiles
from repro.service.report import request_accounting
from repro.ssd.config import SsdConfig
from repro.ssd.timing import NandTiming
from repro.traces.msr import load_msr_trace
from repro.traces.trace import Trace, TraceRequest

FIXTURE = Path(__file__).parent / "data" / "msr_sample.csv"

SPEC = sim_spec("tlc", cells_per_wordline=4096)
SSD_CONFIG = SsdConfig(
    channels=2, dies_per_channel=2, blocks_per_die=64, pages_per_block=64
)


def run_replay(trace, seed=7, config=None, service_config=None):
    return replay_trace(
        trace,
        spec=SPEC,
        ssd_config=SSD_CONFIG,
        timing=NandTiming(),
        profiles=synthetic_profiles("tlc"),
        seed=seed,
        config=config,
        service_config=service_config,
    )


# ---------------------------------------------------------------------------
# fixture sanity
# ---------------------------------------------------------------------------
class TestFixture:
    def test_loads(self):
        trace = load_msr_trace(FIXTURE)
        assert len(trace) == 200
        assert trace.name == "msr_sample"

    def test_out_of_order_timestamps_stay_non_negative(self):
        trace = load_msr_trace(FIXTURE)
        assert all(r.time_s >= 0 for r in trace)
        # rebased to the minimum tick, which (logged order preserved) is
        # not the first record of this completion-ordered fixture
        assert min(r.time_s for r in trace) == 0.0
        assert trace.requests[0].time_s > 0.0

    def test_clamped_records_counted(self):
        trace = load_msr_trace(FIXTURE)
        assert trace.meta["clamped_records"] == 9
        assert all(r.size_bytes >= 512 for r in trace)


# ---------------------------------------------------------------------------
# LBA translation
# ---------------------------------------------------------------------------
class TestTranslation:
    def test_page_extent(self):
        tr = LbaTranslator(page_bytes=4096)
        out, cut = tr.translate(TraceRequest(0.5, "R", 4096, 8192))
        assert (out.lpn, out.n_pages, cut) == (1, 2, 0)
        assert out.is_read and out.arrival_us == pytest.approx(5e5)

    def test_straddling_request_rounds_up(self):
        tr = LbaTranslator(page_bytes=4096)
        out, _ = tr.translate(TraceRequest(0.0, "W", 4000, 512))
        # 4000..4511 straddles the page-0/page-1 boundary
        assert (out.lpn, out.n_pages) == (0, 2)

    def test_truncation_counted(self):
        tr = LbaTranslator(page_bytes=4096, max_pages_per_request=2)
        out, cut = tr.translate(TraceRequest(0.0, "R", 0, 5 * 4096))
        assert out.n_pages == 2 and cut == 3

    def test_scale_compresses_arrivals(self):
        tr = LbaTranslator(page_bytes=4096, scale=10.0)
        out, _ = tr.translate(TraceRequest(2.0, "R", 0, 512))
        assert out.arrival_us == pytest.approx(2e5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LbaTranslator(page_bytes=100)
        with pytest.raises(ValueError):
            LbaTranslator(page_bytes=4096, max_pages_per_request=0)
        with pytest.raises(ValueError):
            LbaTranslator(page_bytes=4096, scale=0.0)

    def test_shard_plan_concatenates_to_input(self):
        reqs = [TraceRequest(float(i), "R", i * 512, 512) for i in range(37)]
        shards = plan_request_shards(reqs, workers=4)
        assert len(shards) > 1
        flat = [r for shard in shards for r in shard]
        assert flat == reqs
        assert plan_request_shards(reqs, workers=1) == [tuple(reqs)]
        assert plan_request_shards([], workers=4) == []

    def test_translate_trace_worker_invariant(self):
        trace = load_msr_trace(FIXTURE)
        serial, s_stats, _ = translate_trace(
            trace, LbaTranslator(page_bytes=4096), workers=1
        )
        sharded, p_stats, _ = translate_trace(
            trace, LbaTranslator(page_bytes=4096), workers=3
        )
        assert serial == sharded
        assert s_stats == p_stats
        assert s_stats["reads"] + s_stats["writes"] == len(trace)


# ---------------------------------------------------------------------------
# full replay
# ---------------------------------------------------------------------------
class TestReplay:
    def test_accounting_identity_and_report_shape(self):
        trace = load_msr_trace(FIXTURE)
        report = run_replay(trace)
        acc = report.accounting
        assert acc["served"] + acc["degraded"] + acc["shed"] == acc["offered"]
        assert report.balanced
        assert acc["offered"] == 200
        assert report.clamped_records == 9
        payload = json.loads(report.to_json())
        assert payload["trace_name"] == "msr_sample"
        assert payload["service"]["scenario"] == "replay:msr_sample"

    def test_byte_identical_across_worker_counts(self):
        trace = load_msr_trace(FIXTURE)
        reports = [
            run_replay(trace, config=ReplayConfig(workers=w)).to_json()
            for w in (1, 2, 4)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_single_request_trace_has_zero_rates(self):
        trace = Trace("one", [TraceRequest(0.0, "R", 0, 4096)])
        report = run_replay(trace)
        assert report.trace_duration_s == 0.0
        assert report.offered_iops == 0.0
        assert report.balanced and report.offered == 1

    def test_empty_trace(self):
        report = run_replay(Trace("empty", []))
        assert report.offered == 0
        assert report.balanced
        assert report.offered_iops == 0.0 and report.completed_iops == 0.0

    @pytest.mark.parametrize(
        "service_config",
        [ServiceConfig(batch_enabled=True)],
        ids=["batch_enabled"],
    )
    def test_service_config_cannot_set_batching(self, service_config):
        """ReplayConfig is the one setter of replay batching: a broker
        config that sets it is refused, not silently overridden."""
        with pytest.raises(ValueError, match="ReplayConfig"):
            run_replay(
                load_msr_trace(FIXTURE), service_config=service_config
            )

    def test_batching_coalesces_and_stays_balanced(self):
        trace = load_msr_trace(FIXTURE)
        batched = run_replay(
            trace, config=ReplayConfig(scale=200.0, batch_enabled=True)
        )
        plain = run_replay(trace, config=ReplayConfig(scale=200.0))
        assert batched.balanced and plain.balanced
        assert batched.service["batch"]["batches"] >= 1
        assert "batch" not in plain.service
        # coalescing frees die slots under pressure: fewer requests shed
        assert batched.accounting["shed"] <= plain.accounting["shed"]

    @settings(max_examples=8, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.02),
                st.booleans(),
                st.integers(min_value=0, max_value=255),
                st.integers(min_value=1, max_value=64 * 1024),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_worker_invariance(self, raw):
        trace = Trace(
            "prop",
            [
                TraceRequest(t, "R" if r else "W", lba * 4096, size)
                for t, r, lba, size in raw
            ],
        )
        serial = run_replay(trace, config=ReplayConfig(workers=1))
        sharded = run_replay(trace, config=ReplayConfig(workers=4))
        assert serial.to_json() == sharded.to_json()
        assert serial.offered == len(trace) == sharded.offered
        for rep in (serial, sharded):
            acc = rep.accounting
            assert (
                acc["served"] + acc["degraded"] + acc["shed"] == acc["offered"]
            )


# ---------------------------------------------------------------------------
# the request accounting identity
# ---------------------------------------------------------------------------
class TestAccounting:
    @pytest.mark.parametrize("key", ["offered", "served", "degraded", "shed"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_one_count_off_by_one_is_imbalanced(self, key, delta):
        counts = {"offered": 10, "served": 6, "degraded": 1, "shed": 3}
        assert request_accounting(**counts)["balanced"]
        counts[key] += delta
        acct = request_accounting(**counts)
        assert acct == {**counts, "balanced": False}

    @settings(max_examples=10, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.002),
                st.booleans(),
                st.integers(min_value=0, max_value=255),
                st.integers(min_value=1, max_value=32 * 1024),
            ),
            min_size=20,
            max_size=60,
        ),
        admit_limit=st.integers(min_value=1, max_value=4),
        die_queue_limit=st.integers(min_value=1, max_value=4),
    )
    def test_replay_balances_under_shedding(
        self, raw, admit_limit, die_queue_limit
    ):
        trace = Trace(
            "shed",
            [
                TraceRequest(t, "R" if r else "W", lba * 4096, size)
                for t, r, lba, size in raw
            ],
        )
        service_config = ServiceConfig(
            admit_limit=admit_limit, die_queue_limit=die_queue_limit
        )
        serial, sharded = (
            run_replay(
                trace,
                config=ReplayConfig(workers=w),
                service_config=service_config,
            )
            for w in (1, 2)
        )
        assert serial.accounting["balanced"]
        assert serial.accounting["offered"] == len(trace)
        assert serial.to_json() == sharded.to_json()
