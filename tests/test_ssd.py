"""SSD device model: scheduling, trace replay, metrics."""

import numpy as np
import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.metrics import LatencyStats, read_latency_reduction
from repro.ssd.retry_model import RetryProfile
from repro.ssd.ssd import Ssd
from repro.ssd.timing import NandTiming
from repro.traces.trace import Trace, TraceRequest


@pytest.fixture()
def config(tiny_tlc):
    return SsdConfig.for_spec(
        tiny_tlc,
        channels=2,
        dies_per_channel=1,
        blocks_per_die=20,
    )


def profile_with(retries: int, extra: int = 0) -> RetryProfile:
    samples = {
        p: np.array([[retries, extra]], dtype=np.int64) for p in range(3)
    }
    return RetryProfile(
        policy_name=f"fixed-{retries}",
        page_voltages={0: 1, 1: 2, 2: 4},
        samples=samples,
    )


def simple_trace(n=50, read_fraction=0.5, gap_s=0.01, size=4096):
    reqs = []
    for i in range(n):
        reqs.append(
            TraceRequest(
                time_s=i * gap_s,
                op="R" if i % int(1 / read_fraction + 0.5) == 0 else "W",
                lba_bytes=(i * 7919 * 4096) % (2**22),
                size_bytes=size,
            )
        )
    return Trace("unit", reqs)


class TestSsd:
    def test_trace_replay_produces_report(self, tiny_tlc, config):
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_trace(simple_trace())
        assert report.host_reads + report.host_writes == 50
        assert len(report.read_latencies_us) == report.host_reads
        assert (report.read_latencies_us > 0).all()

    def test_retries_increase_read_latency(self, tiny_tlc, config):
        trace = simple_trace()
        fast = Ssd(tiny_tlc, config, NandTiming(), profile_with(0)).run_trace(trace)
        slow = Ssd(tiny_tlc, config, NandTiming(), profile_with(6)).run_trace(trace)
        assert slow.read_stats.mean_us > 3 * fast.read_stats.mean_us
        assert read_latency_reduction(slow, fast) > 0.5

    def test_write_latency_unaffected_by_read_retries(self, tiny_tlc, config):
        trace = simple_trace()
        fast = Ssd(tiny_tlc, config, NandTiming(), profile_with(0)).run_trace(trace)
        slow = Ssd(tiny_tlc, config, NandTiming(), profile_with(6)).run_trace(trace)
        # read-priority scheduling: writes see nearly the same service
        assert slow.write_stats.mean_us < fast.write_stats.mean_us * 2.0

    def test_reads_do_not_wait_for_programs(self, tiny_tlc, config):
        """Program-suspend: a read right after a write completes quickly."""
        reqs = [
            TraceRequest(0.0, "W", 0, 4096),
            TraceRequest(0.000001, "R", 0, 4096),
        ]
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_trace(Trace("wr", reqs))
        t = NandTiming()
        # far below transfer+program+read serialization
        assert report.read_latencies_us[0] < t.t_program_us

    def test_multi_page_requests_fan_out(self, tiny_tlc, config):
        big = Trace(
            "big",
            [TraceRequest(0.0, "R", 0, config.page_user_bytes * 4)],
        )
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_trace(big)
        t = NandTiming()
        single = t.read_us(4) + t.sense_us(1)
        # 4 pages over 2 dies: roughly 2 serial reads, not 4
        assert report.read_latencies_us[0] < 4 * single

    def test_deterministic_given_seed(self, tiny_tlc, config):
        trace = simple_trace()
        a = Ssd(tiny_tlc, config, NandTiming(), profile_with(1), seed=3).run_trace(trace)
        b = Ssd(tiny_tlc, config, NandTiming(), profile_with(1), seed=3).run_trace(trace)
        np.testing.assert_array_equal(a.read_latencies_us, b.read_latencies_us)

    def test_max_requests_cap(self, tiny_tlc, config):
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_trace(simple_trace(n=50), max_requests=10)
        assert report.host_reads + report.host_writes == 10

    def test_summary_renders(self, tiny_tlc, config):
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_trace(simple_trace())
        text = report.summary()
        assert "reads" in text and "WAF" in text


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean_us == pytest.approx(2.5)
        assert stats.max_us == 4.0

    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0 and stats.mean_us == 0.0

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(1)
        stats = LatencyStats.from_samples(rng.exponential(100, 1000))
        assert stats.median_us <= stats.p95_us <= stats.p99_us <= stats.max_us


class TestClosedLoop:
    def _trace(self, n=300):
        return Trace(
            "cl",
            [
                TraceRequest(0.0, "R" if i % 2 else "W",
                             (i * 7919 * 4096) % (2**21), 4096)
                for i in range(n)
            ],
        )

    def test_reports_iops(self, tiny_tlc, config):
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_closed_loop(self._trace(), queue_depth=8)
        assert report.extras["iops"] > 0
        assert report.extras["queue_depth"] == 8.0

    def test_retries_cut_throughput(self, tiny_tlc, config):
        trace = self._trace()
        fast = Ssd(tiny_tlc, config, NandTiming(), profile_with(0)).run_closed_loop(
            trace, queue_depth=8
        )
        slow = Ssd(tiny_tlc, config, NandTiming(), profile_with(6)).run_closed_loop(
            trace, queue_depth=8
        )
        assert slow.extras["iops"] < fast.extras["iops"]

    def test_deeper_queue_more_throughput(self, tiny_tlc, config):
        trace = self._trace()
        qd1 = Ssd(tiny_tlc, config, NandTiming(), profile_with(1)).run_closed_loop(
            trace, queue_depth=1
        )
        qd8 = Ssd(tiny_tlc, config, NandTiming(), profile_with(1)).run_closed_loop(
            trace, queue_depth=8
        )
        assert qd8.extras["iops"] > qd1.extras["iops"]

    def test_utilization_reported(self, tiny_tlc, config):
        ssd = Ssd(tiny_tlc, config, NandTiming(), profile_with(0))
        report = ssd.run_closed_loop(self._trace(), queue_depth=4)
        for key in ("die_read_utilization", "die_write_utilization",
                    "channel_utilization"):
            assert 0.0 <= report.extras[key] <= 1.0
