"""Observability layer (``repro.obs``): metrics, tracing, no-op contract."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.obs import OBS
from repro.obs.metrics import Histogram, MetricsRegistry, log_buckets
from repro.obs.stats import (
    SUMMARIES,
    CalibrationCases,
    Faults,
    Fleet,
    Occupancy,
    RetryHistogram,
    aggregate,
    render,
)
from repro.obs.trace import EventTracer, TraceEvent, load_jsonl
from repro.ssd.config import SsdConfig
from repro.ssd.metrics import LatencyStats
from repro.ssd.retry_model import RetryProfile
from repro.ssd.ssd import Ssd
from repro.ssd.timing import NandTiming
from repro.traces.trace import Trace, TraceRequest


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the global singleton off and empty."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


# ---------------------------------------------------------------------------
# bucket / histogram math
# ---------------------------------------------------------------------------
class TestBuckets:
    def test_log_buckets_span_and_monotone(self):
        edges = log_buckets(1.0, 1e6, per_decade=4)
        assert edges[0] == 1.0
        assert edges[-1] >= 1e6
        assert all(b > a for a, b in zip(edges, edges[1:]))
        # 4 per decade over 6 decades -> 25 edges
        assert len(edges) == 25

    def test_log_buckets_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(10.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 10.0, per_decade=0)

    def test_histogram_bucket_placement(self):
        h = Histogram("h", edges=[1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 10.0, 99.0, 100.0, 1e9):
            h.observe(v)
        # counts: <=1: {0.5, 1.0}; <=10: {5, 10}; <=100: {99, 100}; over: 1e9
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == pytest.approx(0.5 + 1 + 5 + 10 + 99 + 100 + 1e9)
        assert h.min == 0.5 and h.max == 1e9

    def test_histogram_quantiles(self):
        h = Histogram("h", edges=[1.0, 10.0, 100.0])
        for v in [0.5] * 50 + [5.0] * 40 + [50.0] * 10:
            h.observe(v)
        assert h.quantile(0.25) == 1.0  # within the first bucket
        assert h.quantile(0.75) == 10.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) == 1.0
        # overflow bucket reports the observed max
        h.observe(1e9)
        assert h.quantile(1.0) == 1e9

    def test_histogram_mean_exact(self):
        h = Histogram("h", edges=log_buckets())
        values = [3.0, 7.5, 1234.0]
        for v in values:
            h.observe(v)
        assert h.mean == pytest.approx(sum(values) / 3)

    def test_rejects_non_monotone_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=[1.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c", help="a counter").inc()
        reg.counter("c").inc(2.0)
        reg.gauge("g").set(4.5)
        snap = reg.snapshot()
        assert snap["c"] == 3.0
        assert snap["g"] == 4.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("reads", policy="a").inc()
        reg.counter("reads", policy="b").inc(5)
        snap = reg.snapshot()
        assert snap['reads{policy="a"}'] == 1.0
        assert snap['reads{policy="b"}'] == 5.0

    def test_disabled_registry_hands_out_noops(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc()
        c.observe(1.0)  # the shared no-op accepts every instrument verb
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_reads_total", help="reads", policy="x").inc(7)
        reg.histogram("lat_us", edges=[1.0, 10.0]).observe(5.0)
        text = reg.render_prometheus()
        assert "# TYPE repro_reads_total counter" in text
        assert 'repro_reads_total{policy="x"} 7' in text
        assert '# HELP repro_reads_total reads' in text
        assert 'lat_us_bucket{le="1"} 0' in text
        assert 'lat_us_bucket{le="10"} 1' in text
        assert 'lat_us_bucket{le="+Inf"} 1' in text
        assert "lat_us_count 1" in text


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_disabled_emit_is_noop(self):
        tr = EventTracer(enabled=False)
        tr.emit("read_attempt", policy="x")
        assert len(tr) == 0

    def test_unknown_kind_rejected(self):
        tr = EventTracer(enabled=True)
        with pytest.raises(ValueError):
            tr.emit("read_atempt", policy="x")

    def test_ring_buffer_bounds_memory(self):
        tr = EventTracer(enabled=True, capacity=10)
        for i in range(25):
            tr.emit("ecc_decode", decoded=True, i=i)
        assert len(tr) == 10
        assert tr.dropped == 15
        assert tr.events()[0].fields["i"] == 15  # oldest evicted

    def test_jsonl_roundtrip(self, tmp_path):
        tr = EventTracer(enabled=True)
        tr.emit("read_attempt", policy="sentinel", page=2,
                rber=float(np.float64(1.5e-3)), decoded=np.bool_(True))
        tr.emit("calibration_step", case="case2", step=np.int64(3))
        tr.emit("die_busy", resource="die0:r", start=0.0, end=48.0)
        path = tmp_path / "trace.jsonl"
        assert tr.export_jsonl(str(path)) == 3
        back = load_jsonl(str(path))
        # the export appends one trace_meta trailer after the events
        assert [e.kind for e in back] == (
            [e.kind for e in tr.events()] + ["trace_meta"]
        )
        meta = back.pop()
        assert meta.fields["events"] == 3
        assert meta.fields["dropped"] == 0
        assert [e.seq for e in back] == [0, 1, 2]
        assert back[0].fields["rber"] == pytest.approx(1.5e-3)
        assert back[0].fields["decoded"] is True
        assert back[1].fields["step"] == 3
        # numpy scalars were coerced to plain JSON types
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_singleton_enable_disable(self):
        obs.enable(capacity=100)
        assert OBS.enabled and OBS.metrics.enabled and OBS.tracer.enabled
        assert OBS.tracer.capacity == 100
        OBS.emit("gc_migrate", die=0, block=1, migrated=4)
        assert len(OBS.tracer) == 1
        obs.disable()
        assert not OBS.enabled
        OBS.emit("gc_migrate", die=0, block=1, migrated=4)
        assert len(OBS.tracer) == 1  # buffered data kept, no new events


# ---------------------------------------------------------------------------
# end-to-end: SSD run with and without observability
# ---------------------------------------------------------------------------
def _profile():
    samples = {
        p: np.array([[0, 0], [2, 1], [5, 2]], dtype=np.int64)
        for p in range(3)
    }
    return RetryProfile(
        policy_name="mixed",
        page_voltages={0: 1, 1: 2, 2: 4},
        samples=samples,
    )


def _trace(n=60):
    reqs = [
        TraceRequest(
            time_s=i * 0.002,
            op="R" if i % 2 == 0 else "W",
            lba_bytes=(i * 7919 * 4096) % (2**22),
            size_bytes=4096,
        )
        for i in range(n)
    ]
    return Trace("obs-unit", reqs)


def _run(tiny_tlc, seed=3):
    config = SsdConfig.for_spec(
        tiny_tlc, channels=2, dies_per_channel=1, blocks_per_die=20,
    )
    ssd = Ssd(tiny_tlc, config, NandTiming(), _profile(), seed=seed)
    return ssd.run_trace(_trace())


class TestNoOpContract:
    def test_disabled_mode_is_a_true_noop(self, tiny_tlc):
        """Same seed, obs on vs. off: identical simulation numbers; the
        disabled run leaves zero events and zero metrics behind."""
        baseline = _run(tiny_tlc)
        assert len(OBS.tracer) == 0
        assert len(OBS.metrics) == 0

        obs.enable()
        traced = _run(tiny_tlc)
        assert len(OBS.tracer) > 0
        obs.disable()

        np.testing.assert_array_equal(
            baseline.read_latencies_us, traced.read_latencies_us
        )
        np.testing.assert_array_equal(
            baseline.write_latencies_us, traced.write_latencies_us
        )
        assert baseline.retry_histogram == traced.retry_histogram
        assert baseline.retries_sampled == traced.retries_sampled

    def test_ssd_read_events_cover_host_reads(self, tiny_tlc):
        obs.enable()
        report = _run(tiny_tlc)
        events = OBS.tracer.events()
        ssd_reads = [
            e for e in events
            if e.kind == "read_attempt" and not e.fields.get("gc", False)
        ]
        assert len(ssd_reads) >= report.host_reads
        assert report.extras["obs"]  # metrics snapshot wired into extras

    def test_report_retry_histogram_matches_samples(self, tiny_tlc):
        report = _run(tiny_tlc)
        assert set(report.retry_histogram) <= {0, 2, 5}
        assert sum(report.retry_histogram.values()) >= report.host_reads
        assert report.retries_sampled == sum(
            k * v for k, v in report.retry_histogram.items()
        )


# ---------------------------------------------------------------------------
# aggregation + rendering
# ---------------------------------------------------------------------------
class TestStats:
    def test_aggregate_and_render(self, tiny_tlc, tmp_path):
        obs.enable()
        _run(tiny_tlc)
        path = tmp_path / "t.jsonl"
        OBS.tracer.export_jsonl(str(path))
        obs.disable()

        stats = aggregate(load_jsonl(str(path)))
        # the trace_meta trailer is bookkeeping, not a counted event
        assert stats.n_events == len(load_jsonl(str(path))) - 1
        retries = stats.section(RetryHistogram)
        assert retries.reads > 0
        assert retries.histogram
        assert retries.mean_retries >= 0
        occupancy = stats.section(Occupancy)
        assert occupancy.busy_us
        assert 0 < occupancy.horizon_us < math.inf
        for util in occupancy.utilization().values():
            assert 0.0 <= util <= 1.0

        text = render(stats)
        assert "retry-count histogram" in text
        assert "die/channel occupancy" in text

    def test_render_empty_trace(self):
        text = render(aggregate([]))
        assert "no read events" in text
        assert "no calibration events" in text

    def test_calibration_cases_counted(self):
        events = [
            TraceEvent(0, "calibration_step", {"case": "case1", "step": 1}),
            TraceEvent(1, "calibration_step", {"case": "case1", "step": 2}),
            TraceEvent(2, "calibration_step", {"case": "case2", "step": 1}),
        ]
        stats = aggregate(events)
        assert stats.section(CalibrationCases).cases == {"case1": 2,
                                                         "case2": 1}
        assert "case1" in render(stats)


# ---------------------------------------------------------------------------
# LatencyStats hardening (satellite)
# ---------------------------------------------------------------------------
class TestLatencyStats:
    def test_rejects_nan_and_inf(self):
        stats = LatencyStats.from_samples(
            [100.0, float("nan"), 200.0, float("inf"), -float("inf")]
        )
        assert stats.count == 2
        assert stats.mean_us == pytest.approx(150.0)
        assert math.isfinite(stats.p99_us)

    def test_all_nonfinite_is_empty(self):
        stats = LatencyStats.from_samples([float("nan"), float("inf")])
        assert stats.count == 0
        assert stats.mean_us == 0.0

    def test_p999_present_row_unchanged(self):
        arr = np.arange(1.0, 10001.0)
        stats = LatencyStats.from_samples(arr)
        assert stats.p999_us == pytest.approx(np.percentile(arr, 99.9))
        assert stats.p999_us >= stats.p99_us
        # row() stays byte-compatible with the seed format: no p999 field
        assert "p999" not in stats.row()
        assert "p99=" in stats.row()


# ---------------------------------------------------------------------------
# fault/resilience events (repro.faults)
# ---------------------------------------------------------------------------
class TestFaultStats:
    def test_fault_events_aggregate_and_render(self):
        events = [
            TraceEvent(0, "fault_injected", {"fault": "ssd.die_stall",
                                             "die": 1, "ts": 100.0}),
            TraceEvent(1, "fault_injected", {"fault": "ssd.die_stall",
                                             "die": 1, "ts": 200.0}),
            TraceEvent(2, "fault_injected", {"fault": "flash.bitflip",
                                             "block": 0, "wordline": 3}),
            TraceEvent(3, "breaker_trip", {"die": 1, "ts": 300.0,
                                           "failures": 4, "state": "open"}),
            TraceEvent(4, "breaker_trip", {"die": 1, "ts": 900.0,
                                           "failures": 1, "state": "reopen"}),
            TraceEvent(5, "degraded_read", {"die": 1, "block": 0, "ts": 310.0,
                                            "reason": "breaker_open"}),
        ]
        stats = aggregate(events)
        faults = stats.section(Faults)
        assert faults.by_kind == {"ssd.die_stall": 2, "flash.bitflip": 1}
        assert sum(faults.by_kind.values()) == 3
        assert faults.trips_by_die == {1: 2}
        assert faults.degraded_by_reason == {"breaker_open": 1}
        assert stats.unknown_kinds == {}  # registered kinds, not flagged
        text = render(stats)
        assert "faults:" in text
        assert "ssd.die_stall=2" in text
        assert "breaker trips: 2 (die1=2)" in text
        assert "degraded reads: 1 (breaker_open=1)" in text

    def test_unknown_kinds_still_flagged(self):
        stats = aggregate([TraceEvent(0, "quantum_flip", {})])
        assert stats.unknown_kinds == {"quantum_flip": 1}
        assert "unrecognized event kinds" in render(stats)

    def test_every_registered_kind_has_a_section(self):
        """Every kind in EVENT_KINDS is folded by some SUMMARIES section,
        except ``sentinel_inference`` (table-only: the inferences show up
        through the retry histogram of the reads they serve) and the
        ``trace_meta`` trailer ``TraceStats`` keeps itself.  A new event
        kind no section claims would silently vanish from ``repro stats``
        output; a section claiming an unregistered kind folds nothing."""
        from repro.obs.trace import EVENT_KINDS

        folded = {kind for cls in SUMMARIES for kind in cls.kinds}
        assert folded <= EVENT_KINDS
        assert EVENT_KINDS - folded == {"sentinel_inference", "trace_meta"}

    def test_every_registered_kind_has_a_schema_row(self):
        """docs/OBSERVABILITY.md holds the one copy of the event schema:
        each kind in EVENT_KINDS has a row, and each row names a kind."""
        import re
        from pathlib import Path

        from repro.obs.trace import EVENT_KINDS

        doc = (Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md")
        text = doc.read_text(encoding="utf-8")
        schema = text.split("## Event schema", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| `(\w+)`", schema, flags=re.MULTILINE))
        assert rows == EVENT_KINDS

    def test_every_registered_metric_has_a_table_row(self):
        """docs/OBSERVABILITY.md "Metric names" lists exactly the
        ``repro_*`` metric names that src/repro registers."""
        import re
        from pathlib import Path

        root = Path(__file__).parents[1]
        registered = set()
        for path in (root / "src" / "repro").rglob("*.py"):
            registered |= set(
                re.findall(r'"(repro_\w+)"', path.read_text(encoding="utf-8"))
            )
        text = (root / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        table = text.split("## Metric names", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| `(repro_\w+)`", table, flags=re.MULTILINE))
        assert rows == registered

    def test_fleet_kinds_aggregate_and_render(self):
        events = [
            TraceEvent(0, "fleet_dispatch", {"tenant": "t0", "device": 0,
                                             "requests": 30, "spilled": 0}),
            TraceEvent(1, "fleet_dispatch", {"tenant": "t0", "device": 1,
                                             "requests": 10, "spilled": 10}),
            TraceEvent(2, "cache_warm_start", {"device": 1, "cohort": "c",
                                               "imported": 16, "source": 0}),
            TraceEvent(3, "tenant_slo", {"tenant": "t0", "offered": 40,
                                         "served": 40, "degraded": 0,
                                         "shed": 0, "read_p99_us": 512.0}),
        ]
        stats = aggregate(events)
        assert stats.unknown_kinds == {}
        fleet = stats.section(Fleet)
        assert fleet.requests_routed == 40
        assert fleet.spilled == 10
        assert fleet.devices_by_tenant == {"t0": 2}
        assert fleet.warm_starts == 1
        assert fleet.warm_entries == 16
        text = render(stats)
        assert "fleet:" in text
        assert "40 offered" in text

    def test_every_emitted_kind_in_src_is_registered(self):
        """Grep every ``.emit("<kind>", ...)`` literal under src/ — a new
        call site must register its kind in EVENT_KINDS or stats replay
        would flag first-party traces as foreign."""
        import os
        import re

        from repro.obs.trace import EVENT_KINDS

        src_root = os.path.join(
            os.path.dirname(__file__), os.pardir, "src", "repro"
        )
        pattern = re.compile(r'\.emit\(\s*"([a-z0-9_.]+)"')
        emitted = set()
        for dirpath, _dirs, files in os.walk(src_root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    emitted.update(pattern.findall(fh.read()))
        assert emitted  # the scan itself must find the call sites
        unregistered = emitted - EVENT_KINDS
        assert not unregistered, (
            f"emit() kinds missing from EVENT_KINDS: {sorted(unregistered)}"
        )


# ---------------------------------------------------------------------------
# ring-buffer drop accounting + export trailer
# ---------------------------------------------------------------------------
class TestDropAccounting:
    def test_drop_counter_metric_tracks_ring_evictions(self):
        obs.enable(capacity=5)
        for i in range(12):
            OBS.emit("gc_migrate", die=0, block=i, migrated=1)
        assert OBS.tracer.dropped == 7
        counter = OBS.metrics.counter(
            "repro_obs_trace_dropped_total",
            help="events evicted from the trace ring buffer",
        )
        assert counter.value == 7

    def test_trace_meta_trailer_reports_drops(self, tmp_path):
        obs.enable(capacity=3)
        for i in range(5):
            OBS.emit("gc_migrate", die=0, block=i, migrated=1)
        path = tmp_path / "t.jsonl"
        OBS.tracer.export_jsonl(str(path))
        meta = load_jsonl(str(path))[-1]
        assert meta.kind == "trace_meta"
        assert meta.fields["dropped"] == 2
        assert meta.fields["capacity"] == 3
        assert meta.fields["events"] == 3

    def test_stats_render_warns_on_truncated_trace(self, tmp_path):
        from repro.obs.stats import stats_from_jsonl
        from repro.obs.stats import render as render_stats

        obs.enable(capacity=3)
        for i in range(5):
            OBS.emit("gc_migrate", die=0, block=i, migrated=1)
        path = tmp_path / "t.jsonl"
        OBS.tracer.export_jsonl(str(path))
        stats = stats_from_jsonl(str(path))
        assert stats.trace_dropped == 2
        assert "WARNING" in render_stats(stats)

    def test_export_kind_filter(self, tmp_path):
        tr = EventTracer(enabled=True)
        tr.emit("gc_migrate", die=0, block=1, migrated=1)
        tr.emit("span", trace="c/0", span=0, parent=None, name="request",
                t0=0.0, t1=1.0)
        tr.emit("die_busy", resource="die0:r", start=0.0, end=1.0)
        path = tmp_path / "spans.jsonl"
        assert tr.export_jsonl(str(path), kinds=("span",)) == 1
        kinds = [e.kind for e in load_jsonl(str(path))]
        assert kinds == ["span", "trace_meta"]


# ---------------------------------------------------------------------------
# streaming a trace to disk + following it
# ---------------------------------------------------------------------------
class TestStreaming:
    def test_stream_to_appends_live(self, tmp_path):
        path = tmp_path / "live.jsonl"
        tr = EventTracer(enabled=True)
        tr.stream_to(str(path))
        tr.emit("gc_migrate", die=0, block=1, migrated=1)
        tr.emit("gc_migrate", die=0, block=2, migrated=1)
        # flushed per event: readable before close
        assert len(load_jsonl(str(path))) == 2
        tr.close_stream()
        tr.emit("gc_migrate", die=0, block=3, migrated=1)
        assert len(load_jsonl(str(path))) == 2  # stream closed, file fixed

    def test_follow_stats_renders_live_summary(self, tmp_path, capsys):
        from repro.obs.stats import follow_stats

        path = tmp_path / "live.jsonl"
        tr = EventTracer(enabled=True)
        tr.stream_to(str(path))
        tr.emit("cache_hit", die=0, block=1, layer=2, ts=5.0, gc=False)
        tr.close_stream()
        assert follow_stats(str(path), interval_s=0.01, max_updates=2) == 0
        out = capsys.readouterr().out
        assert "following" in out
        assert "cache_hit" in out

    def test_follow_stats_waits_for_missing_file(self, tmp_path, capsys):
        from repro.obs.stats import follow_stats

        path = tmp_path / "never.jsonl"
        assert follow_stats(str(path), interval_s=0.01, max_updates=2) == 0
        assert "0 events" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Prometheus exposition: escaping + the live endpoint
# ---------------------------------------------------------------------------
class TestExposition:
    def test_label_values_escaped(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("weird_total", help='has "quotes" and \\slashes\\',
                    path='a"b\\c\nd').inc()
        text = reg.render_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert '# HELP weird_total has "quotes" and \\\\slashes\\\\' in text

    def test_histogram_exposition_is_prometheus_compliant(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat_us", help="x", edges=[1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        text = reg.render_prometheus()
        assert '# TYPE lat_us histogram' in text
        assert 'lat_us_bucket{le="1"} 1' in text
        assert 'lat_us_bucket{le="10"} 2' in text
        assert 'lat_us_bucket{le="+Inf"} 3' in text
        assert "lat_us_count 3" in text

    def test_metrics_server_serves_registry(self):
        import urllib.request

        from repro.obs.exposition import CONTENT_TYPE, MetricsServer

        reg = MetricsRegistry(enabled=True)
        reg.counter("up_total", help="x").inc()
        with MetricsServer(registry=reg, port=0) as server:
            with urllib.request.urlopen(server.url) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode("utf-8")
            assert "up_total 1" in body
            health = server.url.replace("/metrics", "/healthz")
            with urllib.request.urlopen(health) as resp:
                assert resp.read() == b"ok\n"
            missing = server.url.replace("/metrics", "/nope")
            try:
                urllib.request.urlopen(missing)
                assert False, "expected 404"
            except urllib.error.HTTPError as exc:
                assert exc.code == 404

    def test_server_stop_is_idempotent(self):
        from repro.obs.exposition import MetricsServer

        server = MetricsServer(registry=MetricsRegistry(enabled=True))
        server.start()
        server.stop()
        server.stop()
