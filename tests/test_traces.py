"""Trace model, MSR parsing, the trace loader, and the synthetic generators."""

from pathlib import Path

import numpy as np
import pytest

from repro.traces.adapters import (
    FORMATS,
    load_trace,
    parse_blkparse,
    sniff_format,
)
from repro.traces.msr import parse_msr_csv
from repro.traces.synthetic import (
    MSR_WORKLOADS,
    WorkloadParams,
    generate_workload,
)
from repro.traces.trace import Trace, TraceRequest

DATA_DIR = Path(__file__).resolve().parent / "data"


class TestTraceRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRequest(0.0, "X", 0, 4096)
        with pytest.raises(ValueError):
            TraceRequest(0.0, "R", 0, 0)
        with pytest.raises(ValueError):
            TraceRequest(0.0, "R", -1, 4096)

    def test_is_read(self):
        assert TraceRequest(0.0, "R", 0, 512).is_read
        assert not TraceRequest(0.0, "W", 0, 512).is_read


class TestTrace:
    def test_preserves_logged_order(self):
        # completion-ordered logging is real data: the trace must not
        # re-sort it (consumers that need arrival order sort locally)
        trace = Trace(
            "t",
            [TraceRequest(2.0, "R", 0, 512), TraceRequest(1.0, "W", 0, 512)],
        )
        assert [r.time_s for r in trace.requests] == [2.0, 1.0]

    def test_duration_uses_min_max_not_first_last(self):
        # positional first/last under-report the span on out-of-order
        # traces; duration must span min..max over time_s
        trace = Trace(
            "t",
            [
                TraceRequest(5.0, "R", 0, 512),
                TraceRequest(1.0, "R", 0, 512),
                TraceRequest(3.0, "R", 0, 512),
            ],
        )
        assert trace.duration_s == 4.0

    def test_stats(self):
        trace = Trace(
            "t",
            [
                TraceRequest(0.0, "R", 0, 1024),
                TraceRequest(1.0, "W", 0, 2048),
                TraceRequest(2.0, "R", 0, 1024),
            ],
        )
        assert trace.duration_s == 2.0
        assert trace.read_fraction == pytest.approx(2 / 3)
        assert trace.total_read_bytes == 2048
        assert trace.total_write_bytes == 2048

    def test_describe(self):
        trace = Trace("t", [TraceRequest(0.0, "R", 0, 512)])
        assert "t:" in trace.describe()


class TestMsrParsing:
    SAMPLE = [
        "128166372003061629,hm,0,Read,383496192,32768,413",
        "128166372016382155,hm,0,Write,310983680,20480,1081",
        "128166372026382245,hm,0,Read,310983680,4096,100",
    ]

    def test_parses_fields(self):
        trace = parse_msr_csv(self.SAMPLE, name="hm_0")
        assert len(trace) == 3
        first = trace.requests[0]
        assert first.time_s == 0.0
        assert first.op == "R"
        assert first.lba_bytes == 383496192
        assert first.size_bytes == 32768

    def test_timestamps_rebased_to_seconds(self):
        trace = parse_msr_csv(self.SAMPLE)
        # 13321 ms between first two records (ticks are 100ns)
        assert trace.requests[1].time_s == pytest.approx(1.3320526, abs=1e-3)

    def test_skips_blank_and_comment_lines(self):
        lines = ["", "# header"] + self.SAMPLE
        assert len(parse_msr_csv(lines)) == 3

    def test_max_requests(self):
        assert len(parse_msr_csv(self.SAMPLE, max_requests=2)) == 2

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_msr_csv(["1,2,3"])

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            parse_msr_csv(["128166372003061629,hm,0,Flush,0,512,1"])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "hm_0.csv"
        path.write_text("\n".join(self.SAMPLE))
        trace = load_trace(path)
        assert trace.name == "hm_0"
        assert len(trace) == 3

    def test_out_of_order_lines_rebase_to_minimum_tick(self):
        # completion-ordered logging: the second line happened 2 ms BEFORE
        # the first; rebasing to the first tick used to make it negative.
        # The logged order is preserved, so the min-tick record is second.
        lines = [
            "128166372003061629,hm,0,Read,0,4096,100",
            "128166372003041629,hm,0,Read,4096,4096,100",
        ]
        trace = parse_msr_csv(lines)
        assert all(r.time_s >= 0 for r in trace)
        assert trace.requests[0].time_s == pytest.approx(2e-3)
        assert trace.requests[0].lba_bytes == 0
        assert trace.requests[1].time_s == 0.0  # the min-tick record
        assert trace.requests[1].lba_bytes == 4096
        assert trace.duration_s == pytest.approx(2e-3)

    def test_out_of_order_sample_file_duration(self, msr_sample_lines):
        # regression for duration_s on the real out-of-order fixture: the
        # min-tick record is not the first line, so positional first/last
        # would misreport the span
        trace = parse_msr_csv(msr_sample_lines)
        times = [r.time_s for r in trace]
        assert times != sorted(times)  # the fixture really is out of order
        assert trace.requests[0].time_s > 0.0
        assert trace.duration_s == pytest.approx(max(times) - min(times))
        assert trace.duration_s > trace.requests[-1].time_s - trace.requests[0].time_s - 1e-12

    def test_head_meta_is_isolated(self):
        # a trace built over another's requests and meta copies the meta,
        # so mutation by one consumer cannot leak into the other
        lines = ["128166372003061629,hm,0,Read,0,1,100"] * 3
        trace = parse_msr_csv(lines)
        head = Trace(trace.name, trace.requests[:2], meta=trace.meta)
        head.meta["clamped_records"] = 99
        assert trace.meta["clamped_records"] == 3
        trace.meta["extra"] = 1
        assert "extra" not in head.meta

    def test_sub_sector_sizes_clamped_and_counted(self):
        lines = [
            "128166372003061629,hm,0,Read,0,511,100",
            "128166372003061630,hm,0,Write,0,1,100",
            "128166372003061631,hm,0,Read,0,512,100",
        ]
        trace = parse_msr_csv(lines)
        assert trace.meta["clamped_records"] == 2
        assert [r.size_bytes for r in trace] == [512, 512, 512]

    def test_single_request_duration_is_zero(self):
        trace = parse_msr_csv(["128166372003061629,hm,0,Read,0,4096,100"])
        assert trace.duration_s == 0.0


class TestAdapters:
    BLK = [
        "  8,0    3        1     0.000072500   697  Q   R 223490 + 8 [kjournald]",
        "  8,0    1        4     0.000051300  1994  Q  WS 740360 + 16 [qemu-kvm]",
        "  8,0    0        6     0.000200900   697  C   R 223490 + 8 [0]",
    ]

    def test_registry_lists_both_formats(self):
        assert set(FORMATS) == {"msr", "blkparse"}

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            load_trace(DATA_DIR / "msr_sample.csv", fmt="nope")

    def test_msr_round_trip_via_registry(self, tmp_path, msr_sample_lines):
        path = tmp_path / "hm_0.csv"
        path.write_text("\n".join(msr_sample_lines))
        direct = parse_msr_csv(msr_sample_lines, name="hm_0")
        for via in (load_trace(path), load_trace(path, fmt="msr"),
                    load_trace(path, fmt="MSR")):
            assert via.name == direct.name
            assert via.meta == direct.meta
            assert [
                (r.time_s, r.op, r.lba_bytes, r.size_bytes) for r in via
            ] == [
                (r.time_s, r.op, r.lba_bytes, r.size_bytes) for r in direct
            ]

    def test_blkparse_round_trip_via_registry(self, tmp_path):
        fixture = DATA_DIR / "blkparse_sample.txt"
        direct = parse_blkparse(fixture.read_text().splitlines())
        for via in (load_trace(fixture), load_trace(fixture, fmt="blkparse")):
            assert via.meta == direct.meta
            assert [
                (r.time_s, r.op, r.lba_bytes, r.size_bytes) for r in via
            ] == [
                (r.time_s, r.op, r.lba_bytes, r.size_bytes) for r in direct
            ]

    def test_blkparse_parses_queue_records_only(self):
        trace = parse_blkparse(self.BLK)
        # the C (complete) record is skipped; both Q records survive
        assert len(trace) == 2
        assert [r.op for r in trace] == ["R", "W"]
        assert trace.requests[0].lba_bytes == 223490 * 512
        assert trace.requests[0].size_bytes == 8 * 512
        assert trace.meta["skipped_records"] == 1

    def test_blkparse_preserves_logged_order_and_rebases(self):
        trace = parse_blkparse(self.BLK)
        # the W was queued before the R but logged after (multi-CPU
        # interleave): order preserved, times rebased to the minimum
        assert trace.requests[1].time_s == 0.0
        assert trace.requests[0].time_s == pytest.approx(21.2e-6)
        assert trace.duration_s == pytest.approx(21.2e-6)

    def test_blkparse_sample_file(self):
        trace = load_trace(DATA_DIR / "blkparse_sample.txt")
        assert trace.name == "blkparse_sample"
        assert len(trace) == 6
        assert trace.meta["skipped_records"] == 10
        assert trace.meta["clamped_records"] == 0
        assert all(r.size_bytes % 512 == 0 for r in trace)
        assert min(r.time_s for r in trace) == 0.0

    def test_blkparse_discard_and_flush_skipped(self):
        lines = [
            "  8,0  1  9  0.1  19  Q   D 991230 + 2048 [qemu]",
            "  8,0  1 10  0.2  19  Q  FWS 0 + 0 [qemu]",
            "  8,0  1 11  0.3  19  Q   W 16 + 8 [qemu]",
        ]
        trace = parse_blkparse(lines)
        assert len(trace) == 1
        assert trace.meta["skipped_records"] == 2

    def test_blkparse_malformed_numeric_raises(self):
        with pytest.raises(ValueError, match="malformed blkparse"):
            parse_blkparse(
                ["  8,0  1  1  xx  19  Q  R 16 + 8 [p]"]
            )

    def test_blkparse_max_requests(self):
        trace = load_trace(
            DATA_DIR / "blkparse_sample.txt", max_requests=3
        )
        assert len(trace) == 3

    def test_sniffer_distinguishes_formats(self, msr_sample_lines):
        assert sniff_format(msr_sample_lines) == "msr"
        assert sniff_format(self.BLK) == "blkparse"
        assert sniff_format(["not a trace at all"]) is None

    def test_load_trace_unsniffable_raises(self, tmp_path):
        path = tmp_path / "mystery.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(ValueError, match="could not sniff"):
            load_trace(path)

    def test_load_trace_refuses_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="could not sniff"):
            load_trace(path)

    def test_load_trace_streams_past_the_sniffed_head(self, tmp_path):
        # blank lines, comments and more than the sniffed head: the parse
        # of the streamed file equals the parse of its lines in memory
        lines = ["", "# volume hm_0", ""] + [
            f"{128166372003061629 + 1000 * i},hm,0,"
            f"{'Read' if i % 3 else 'Write'},{4096 * i},{512 * (i % 9)},1"
            for i in range(40)
        ]
        path = tmp_path / "hm_0.csv"
        path.write_text("\n".join(lines) + "\n")
        for cap in (None, 3, 8, 9, 25):
            want = parse_msr_csv(lines, name="hm_0", max_requests=cap)
            got = load_trace(path, max_requests=cap)
            assert got.meta == want.meta
            assert [
                (r.time_s, r.op, r.lba_bytes, r.size_bytes) for r in got
            ] == [
                (r.time_s, r.op, r.lba_bytes, r.size_bytes) for r in want
            ]


class TestSyntheticWorkloads:
    def test_all_eight_paper_workloads_present(self):
        assert set(MSR_WORKLOADS) == {
            "hm_0", "mds_0", "prn_0", "proj_0",
            "rsrch_0", "src2_0", "stg_0", "usr_0",
        }

    def test_read_fraction_matches_params(self):
        for name, params in MSR_WORKLOADS.items():
            trace = generate_workload(params, n_requests=4000, seed=1)
            assert trace.read_fraction == pytest.approx(
                params.read_fraction, abs=0.05
            ), name

    def test_reproducible(self):
        params = MSR_WORKLOADS["hm_0"]
        a = generate_workload(params, n_requests=100, seed=5)
        b = generate_workload(params, n_requests=100, seed=5)
        assert [(r.time_s, r.lba_bytes) for r in a] == [
            (r.time_s, r.lba_bytes) for r in b
        ]

    def test_seed_changes_trace(self):
        params = MSR_WORKLOADS["hm_0"]
        a = generate_workload(params, n_requests=100, seed=5)
        b = generate_workload(params, n_requests=100, seed=6)
        assert [r.lba_bytes for r in a] != [r.lba_bytes for r in b]

    def test_rate_scale_compresses_time(self):
        params = MSR_WORKLOADS["hm_0"]
        slow = generate_workload(params, n_requests=2000, seed=1)
        fast = generate_workload(params, n_requests=2000, seed=1, rate_scale=10)
        assert fast.duration_s < slow.duration_s / 5

    def test_footprint_respected(self):
        params = MSR_WORKLOADS["rsrch_0"]
        trace = generate_workload(params, n_requests=2000, seed=2)
        max_lba = max(r.lba_bytes for r in trace)
        assert max_lba < params.footprint_bytes

    def test_skew_produces_hot_pages(self):
        params = MSR_WORKLOADS["rsrch_0"]  # highest zipf_theta
        trace = generate_workload(params, n_requests=5000, seed=3)
        pages = np.array([r.lba_bytes // 4096 for r in trace])
        _, counts = np.unique(pages, return_counts=True)
        # a skewed workload revisits pages far more than a uniform one would
        assert counts.max() >= 5

    def test_sizes_from_mixture(self):
        params = MSR_WORKLOADS["hm_0"]
        trace = generate_workload(params, n_requests=1000, seed=4)
        sizes = {r.size_bytes for r in trace}
        assert sizes <= {k * 1024 for k in params.size_choices_kb}

    def test_generate_all(self):
        traces = {name: generate_workload(params, n_requests=50)
                  for name, params in MSR_WORKLOADS.items()}
        assert len(traces) == 8
        assert all(len(t) == 50 for t in traces.values())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WorkloadParams("x", 1.5, 10, 1 << 30, 0.5, (4,), (1.0,), 0.0)
        with pytest.raises(ValueError):
            WorkloadParams("x", 0.5, 10, 1 << 30, 1.5, (4,), (1.0,), 0.0)
        with pytest.raises(ValueError):
            WorkloadParams("x", 0.5, 10, 1 << 30, 0.5, (4, 8), (0.7, 0.2), 0.0)
