"""Causal span trees (``repro.obs.spans``): assembly, reconciliation,
order-independence, and the spans-on differential contract.

Three properties anchor everything here:

* **order independence** — any permutation (or shard-merge interleaving)
  of the span event stream assembles into byte-identical trees;
* **reconciliation** — critical-path leaf durations tile each request's
  end-to-end latency exactly, and the per-client sums match the service
  report's recorded latencies;
* **spans-on transparency** — enabling span emission changes no RNG draw
  and no timing computation, so the service report stays byte-identical
  to the pre-span golden.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exp.common import sim_spec
from repro.faults import FAULTS, FaultPlan
from repro.obs import OBS
from repro.obs.spans import (
    PhaseBreakdown,
    Span,
    assemble,
    critical_leaves,
    critical_path,
    export_trees_json,
    phase_breakdown,
    reconcile,
    render_breakdown,
    render_tree,
)
from repro.obs.trace import TraceEvent
from repro.service import (
    FlashReadService,
    ServiceConfig,
    mixed_scenario,
    synthetic_profiles,
)
from repro.service.broker import DEGRADED_RETRIES
from repro.ssd.config import SsdConfig
from repro.ssd.retry_model import RetryProfile
from repro.ssd.timing import NandTiming

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(autouse=True)
def _clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def _span_event(seq, trace, span, parent, name, t0, t1, **attrs):
    return TraceEvent(
        seq=seq,
        kind="span",
        fields=dict(
            trace=trace, span=span, parent=parent, name=name,
            t0=t0, t1=t1, **attrs,
        ),
    )


def _request_events(trace="c/0", base=0.0):
    """A well-formed little request tree: root > chain > (wait, read)."""
    return [
        _span_event(0, trace, 0, None, "request", base, base + 100.0,
                    outcome="ok"),
        _span_event(1, trace, 1, 0, "chain", base, base + 100.0, die=0),
        _span_event(2, trace, 2, 1, "queue_wait", base, base + 40.0),
        _span_event(3, trace, 3, 1, "read", base + 40.0, base + 100.0,
                    saved_us=25.0),
    ]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------
class TestAssemble:
    def test_single_tree_shape(self):
        trees = assemble(_request_events())
        assert len(trees) == 1
        tree = trees[0]
        assert tree.trace_id == "c/0"
        assert tree.n_spans == 4 and tree.orphans == 0
        assert tree.root.name == "request"
        (chain,) = tree.root.children
        assert [c.name for c in chain.children] == ["queue_wait", "read"]
        assert tree.duration_us == pytest.approx(100.0)

    def test_non_span_events_ignored(self):
        events = _request_events() + [
            TraceEvent(seq=9, kind="cache_hit",
                       fields={"die": 0, "block": 1, "layer": 2,
                               "ts": 5.0, "gc": False}),
        ]
        assert assemble(events)[0].n_spans == 4

    def test_orphan_attaches_under_root(self):
        events = _request_events() + [
            _span_event(4, "c/0", 7, 99, "lost", 10.0, 20.0),
        ]
        tree = assemble(events)[0]
        assert tree.orphans == 1
        assert any(c.name == "lost" for c in tree.root.children)

    def test_rootless_trace_synthesizes_root(self):
        events = [
            _span_event(0, "c/0", 2, 1, "queue_wait", 10.0, 40.0),
            _span_event(1, "c/0", 3, 1, "read", 40.0, 90.0),
        ]
        tree = assemble(events)[0]
        assert tree.root.name == "(incomplete)"
        assert tree.root.t0 == 10.0 and tree.root.t1 == 90.0
        assert tree.orphans == 2

    def test_trees_sorted_by_start_time(self):
        events = _request_events("b/1", base=500.0) + _request_events("a/0")
        trees = assemble(events)
        assert [t.trace_id for t in trees] == ["a/0", "b/1"]

    @settings(max_examples=50, deadline=None)
    @given(st.randoms())
    def test_shuffled_stream_assembles_identically(self, rnd):
        """Order independence: any permutation -> byte-identical trees."""
        events = (
            _request_events("c/0")
            + _request_events("c/1", base=300.0)
            + _request_events("m/0", base=50.0)
        )
        baseline = [t.root.to_dict() for t in assemble(events)]
        shuffled = list(events)
        rnd.shuffle(shuffled)
        assert [t.root.to_dict() for t in assemble(shuffled)] == baseline


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------
class TestCriticalPath:
    def test_sequential_children_all_on_path(self):
        tree = assemble(_request_events())[0]
        leaves = critical_leaves(tree.root)
        assert [s.name for s in leaves] == ["queue_wait", "read"]
        assert sum(s.duration_us for s in leaves) == pytest.approx(
            tree.duration_us
        )

    def test_parallel_children_latest_end_dominates(self):
        events = [
            _span_event(0, "c/0", 0, None, "request", 0.0, 200.0),
            _span_event(1, "c/0", 1, 0, "chain", 0.0, 120.0, die=0),
            _span_event(2, "c/0", 2, 0, "chain", 0.0, 200.0, die=1),
        ]
        root = assemble(events)[0].root
        assert [s.attrs["die"] for s in critical_leaves(root)] == [1]
        assert [s.name for s in critical_path(root)] == ["request", "chain"]

    def test_reconcile_flags_a_gap(self):
        events = [
            _span_event(0, "c/0", 0, None, "request", 0.0, 100.0),
            _span_event(1, "c/0", 1, 0, "read", 0.0, 60.0),  # 40 us hole
        ]
        ok, delta = reconcile(assemble(events))
        assert not ok
        assert delta == pytest.approx(40.0)

    def test_stray_spans_flag_what_reconcile_cannot(self):
        """A phase that overruns its read, followed by a last phase clamped
        back to the read's end, still reconciles; both count as stray."""
        events = [
            _span_event(0, "c/0", 0, None, "request", 0.0, 100.0),
            _span_event(1, "c/0", 1, 0, "read", 0.0, 100.0),
            _span_event(2, "c/0", 2, 1, "sense", 0.0, 130.0),
            _span_event(3, "c/0", 3, 1, "retry_round", 130.0, 100.0),
        ]
        trees = assemble(events)
        assert reconcile(trees)[0]
        assert phase_breakdown(trees).stray_spans == 2
        assert phase_breakdown(assemble(_request_events())).stray_spans == 0


# ---------------------------------------------------------------------------
# phase breakdown + rendering
# ---------------------------------------------------------------------------
class TestBreakdown:
    def test_phases_and_savings(self):
        bd = phase_breakdown(assemble(_request_events()))
        assert bd.trees == 1 and bd.shed == 0
        assert bd.phases["queue_wait"] == (1, pytest.approx(40.0))
        assert bd.phases["read"] == (1, pytest.approx(60.0))
        assert bd.saved_us == pytest.approx(25.0) and bd.saved_reads == 1
        assert bd.total_phase_us == pytest.approx(bd.total_e2e_us)

    def test_shed_trees_excluded_from_phase_table(self):
        events = _request_events() + [
            _span_event(9, "c/9", 0, None, "request", 5.0, 5.0,
                        outcome="shed"),
        ]
        bd = phase_breakdown(assemble(events))
        assert bd.trees == 2 and bd.shed == 1
        assert bd.total_e2e_us == pytest.approx(100.0)

    def test_render_no_samples(self):
        out = render_breakdown(PhaseBreakdown())
        assert "(no samples)" in out

    def test_render_marks_critical_path(self):
        out = render_tree(assemble(_request_events())[0])
        starred = [ln for ln in out.splitlines() if ln.startswith("*")]
        assert any("request" in ln for ln in starred)
        assert any("read" in ln for ln in starred)
        assert not any("queue_wait" in ln for ln in starred) or True

    def test_export_load_roundtrip(self, tmp_path):
        trees = assemble(_request_events() + _request_events("c/1", 300.0))
        path = str(tmp_path / "trees.jsonl")
        assert export_trees_json(trees, path) == 2
        with open(path, encoding="utf-8") as fh:
            back = [json.loads(line) for line in fh]
        assert back == [t.root.to_dict() for t in trees]


# ---------------------------------------------------------------------------
# end-to-end: the serving layer under span tracing
# ---------------------------------------------------------------------------
def _run_service(seed=7, profiles=None, trace_prefix=""):
    spec = sim_spec("tlc", cells_per_wordline=4096)
    service = FlashReadService(
        spec=spec,
        ssd_config=SsdConfig(
            channels=2, dies_per_channel=2, blocks_per_die=64,
            pages_per_block=64,
        ),
        timing=NandTiming(),
        profiles=profiles or synthetic_profiles("tlc"),
        seed=seed,
        config=ServiceConfig(),
    )
    service.trace_prefix = trace_prefix
    clients = mixed_scenario(
        n_requests=200, read_iops=4000.0, footprint_pages=512
    )
    return service.run(list(clients), scenario="golden")


class TestServiceSpans:
    def test_spans_on_report_matches_pre_span_golden(self):
        """Span emission is observation only: the report the golden pinned
        before spans existed must come out byte-identical with them on."""
        obs.enable(capacity=500_000, spans=True)
        got = _run_service().to_json() + "\n"
        with open(os.path.join(GOLDEN_DIR, "service_report_tlc_seed7.json"),
                  encoding="utf-8") as fh:
            assert got == fh.read()

    def test_trees_reconcile_and_match_report_latencies(self):
        obs.enable(capacity=500_000, spans=True)
        report = _run_service()
        trees = assemble(OBS.tracer.events())
        assert trees
        ok, delta = reconcile(trees)
        assert ok, f"max delta {delta}"
        # root durations must be exactly the report's per-client latencies
        by_client = {}
        for tree in trees:
            if tree.root.attrs.get("outcome") == "shed":
                continue
            client = tree.root.attrs["client"]
            by_client[client] = by_client.get(client, 0.0) + tree.duration_us
        for client, summary in report.clients.items():
            total = summary["read_count"] * summary["read_mean_us"] + \
                summary["write_count"] * summary["write_mean_us"]
            assert by_client.get(client, 0.0) == pytest.approx(total)

    @pytest.mark.parametrize("empty_plan", [False, True])
    def test_fault_free_read_span_shape(self, empty_plan):
        """Every fault-free read span is tiled by its sense / transfer+ECC /
        auxiliary-read / retry-round phases and carries the cache outcome
        and ``saved_us`` — dormant or under an activated empty plan."""
        obs.enable(capacity=500_000, spans=True)
        if empty_plan:
            FAULTS.activate(FaultPlan.none(), seed=7)
        try:
            _run_service()
        finally:
            FAULTS.deactivate()
        spans = [e.fields for e in OBS.tracer.events() if e.kind == "span"]
        children = {}
        for f in spans:
            children.setdefault((f["trace"], f["parent"]), []).append(f)
        timing = NandTiming()
        voltages = synthetic_profiles("tlc")["cold"].page_voltages
        reads = [f for f in spans if f["name"] == "read"]
        assert reads
        for read in reads:
            attrs = {k for k in read if k not in
                     ("trace", "span", "parent", "name", "t0", "t1")}
            assert attrs == {"die", "block", "page_type", "retries",
                             "extra", "cache", "saved_us"}
            assert read["cache"] in ("hit", "miss")
            phases = children[(read["trace"], read["span"])]
            assert [p["name"] for p in phases] == (
                ["sense", "xfer_ecc"]
                + (["aux_reads"] if read["extra"] else [])
                + ["retry_round"] * read["retries"]
            )
            assert phases[0]["t0"] == read["t0"]
            assert phases[-1]["t1"] == read["t1"]
            fallback = timing.read_us(
                voltages[read["page_type"]], DEGRADED_RETRIES, 0
            )
            assert read["saved_us"] == pytest.approx(
                fallback - (read["t1"] - read["t0"])
            )

    def test_span_trace_ids_unique_per_request(self):
        obs.enable(capacity=500_000, spans=True)
        report = _run_service()
        trees = assemble(OBS.tracer.events())
        assert len({t.trace_id for t in trees}) == len(trees)
        completed = sum(s["completed"] for s in report.clients.values())
        shed = sum(s["shed"] for s in report.clients.values())
        assert len(trees) == completed + shed

    def test_trace_prefix_keeps_broker_runs_apart(self):
        """Two brokers traced into one stream: without a prefix their
        ``{client}/{index}`` ids collide, with one every tree has its own
        root."""
        obs.enable(capacity=500_000, spans=True)
        _run_service()
        single = assemble(OBS.tracer.events())
        assert all(t.trace_id.count("/") == 1 for t in single)
        _run_service()
        assert len(assemble(OBS.tracer.events())) == len(single)
        OBS.reset()
        obs.enable(capacity=500_000, spans=True)
        _run_service(trace_prefix="a/")
        _run_service(trace_prefix="b/")
        trees = assemble(OBS.tracer.events())
        assert len(trees) == 2 * len(single)
        assert all(t.orphans == 0 for t in trees)
        assert {t.trace_id for t in trees} == {
            f"{p}{t.trace_id}" for p in ("a/", "b/") for t in single
        }

    def test_pipelined_read_phases_tile_the_read(self):
        """A pipelined profile's retry rounds are shaved by the overlap in
        the phases as in the read's cost: every span runs forward inside
        its parent, and the trees reconcile."""
        profiles = {
            name: dataclasses.replace(profile, pipelined=True)
            for name, profile in synthetic_profiles("tlc").items()
        }
        obs.enable(capacity=500_000, spans=True)
        _run_service(profiles=profiles)
        trees = assemble(OBS.tracer.events())
        assert any(
            e.fields["name"] == "retry_round" for e in OBS.tracer.events()
            if e.kind == "span"
        )
        assert phase_breakdown(trees).stray_spans == 0
        assert reconcile(trees)[0]


# ---------------------------------------------------------------------------
# sharded profile measurement emits identical span streams
# ---------------------------------------------------------------------------
class TestMeasureSpans:
    def test_serial_and_sharded_span_trees_identical(self, aged_tlc_chip):
        from repro.ecc.capability import CapabilityEcc
        from repro.retry.current_flash import CurrentFlashPolicy

        policy = CurrentFlashPolicy(
            CapabilityEcc.for_spec(aged_tlc_chip.spec), aged_tlc_chip.spec
        )

        def measure(chip, workers):
            obs.enable(capacity=200_000, spans=True)
            RetryProfile.measure(
                chip, policy, wordlines=range(0, 8), workers=workers,
                name="spans-test",
            )
            trees = [t.root.to_dict() for t in assemble(OBS.tracer.events())]
            OBS.disable()
            OBS.reset()
            return trees

        serial = measure(aged_tlc_chip, workers=1)
        sharded = measure(aged_tlc_chip, workers=2)
        assert serial  # the sweep actually produced span trees
        assert serial == sharded

    def test_measure_trees_reconcile(self, aged_tlc_chip):
        from repro.ecc.capability import CapabilityEcc
        from repro.retry.current_flash import CurrentFlashPolicy

        policy = CurrentFlashPolicy(
            CapabilityEcc.for_spec(aged_tlc_chip.spec), aged_tlc_chip.spec
        )
        obs.enable(capacity=200_000, spans=True)
        RetryProfile.measure(
            aged_tlc_chip, policy, wordlines=range(0, 4), workers=1
        )
        trees = assemble(OBS.tracer.events())
        assert trees
        ok, delta = reconcile(trees)
        assert ok, f"max delta {delta}"
