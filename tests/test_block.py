"""Columnar block store (``repro.flash.block``): the one read path.

Every :class:`Wordline` is a row of a store.  The contract under test is
batch-size invariance: a kernel over rows ``[a, b, c]`` produces exactly
what one-row stores (standalone wordlines) produce at the same RNG stream
positions ("batch the arithmetic, not the RNG consumption order").
Broader randomized coverage lives in ``tests/test_property_block.py``;
this file pins the mechanics — live views, copy-on-write, cache bounds,
observability.
"""

import numpy as np
import pytest

from repro.exp.common import default_ecc
from repro.flash.block import BlockColumns
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import TLC_SPEC
from repro.flash.wordline import Wordline
from repro.obs import OBS
from tests.flash_oracle import one_row_wordlines

SEED = 11
RATIO = 0.002


def make_chip(spec, stress=None, seed=SEED):
    chip = FlashChip(spec, seed=seed, sentinel_ratio=RATIO)
    if stress is not None:
        chip.set_block_stress(0, stress)
    return chip


@pytest.fixture(autouse=True)
def _clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


# ---------------------------------------------------------------------------
# construction + views
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_columns_match_wordlines(self, tiny_tlc, aged_stress):
        """Construction is bit-identical to per-wordline materialization."""
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(4))
        serial = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(4))
        for row, wl in enumerate(serial):
            assert np.array_equal(cols.states[row], wl.states)
            assert np.array_equal(cols.vth[row], wl.vth)
            assert np.array_equal(cols.sentinel_indices, wl.sentinel_indices)

    def test_wordline_view_reads_match_fresh_wordline(self, tiny_tlc, aged_stress):
        """A view consumes the same noise stream as a dedicated Wordline."""
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(3))
        fresh = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(3))
        for row in range(3):
            view = cols.wordline_view(row)
            for page in range(tiny_tlc.pages_per_wordline):
                a = view.read_page(page)
                b = fresh[row].read_page(page)
                assert a.n_errors == b.n_errors
                assert np.array_equal(a.mismatch, b.mismatch)

    def test_view_then_batch_interleaving_stays_identical(self, tiny_tlc, aged_stress):
        """View reads and batched kernels share one stream per row."""
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(2))
        serial = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(2))
        # read page 0 through the views, page 1 through the batch kernel
        for row in range(2):
            assert (
                cols.wordline_view(row).read_page(0).n_errors
                == serial[row].read_page(0).n_errors
            )
        batch = cols.read_page_batch(1)
        for row in range(2):
            assert batch.n_errors[row] == serial[row].read_page(1).n_errors

    def test_program_pages_copy_on_write(self, tiny_tlc):
        """Writing through a view never mutates the shared columns."""
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        before = cols.states.copy()
        view = cols.wordline_view(0)
        bits = {
            p: np.zeros(view.n_data_cells, dtype=np.uint8)
            for p in range(tiny_tlc.pages_per_wordline)
        }
        view.program_pages(bits)
        assert np.array_equal(cols.states, before)
        assert not np.array_equal(view.states, before[0])

    def test_view_follows_store_set_stress(self, aged_stress):
        """A view made before ``cols.set_stress`` reads at the new stress."""
        spec = TLC_SPEC.scaled(
            cells_per_wordline=2048, wordlines_per_layer=1, layers=8,
            name_suffix="-live",
        )
        cols = BlockColumns(spec, 3, 0, range(8))
        view = cols.wordline_view(5)
        cols.set_stress(aged_stress)
        assert view.stress == aged_stress
        assert np.array_equal(view.vth, cols.vth[5])
        got = view.read_page("MSB")
        ref = Wordline(spec, 3, 0, 5, stress=aged_stress).read_page("MSB")
        assert ref.n_errors > 0  # a stale (fresh-stress) view would read ~0
        assert got.n_errors == ref.n_errors
        assert np.array_equal(got.mismatch, ref.mismatch)

    def test_view_set_stress_detaches(self, tiny_tlc, aged_stress):
        """A view's own set_stress leaves the store and siblings alone,
        and the detached row keeps consuming the row's one noise stream."""
        cols = make_chip(tiny_tlc).block_columns(0, range(3))
        vth_before = cols.vth
        view, sibling = cols.wordline_view(1), cols.wordline_view(2)
        view.set_stress(aged_stress)
        assert cols.stress == StressState() and sibling.stress == StressState()
        assert cols.vth is vth_before
        assert view.stress == aged_stress
        ref = Wordline(tiny_tlc, SEED, 0, 1, stress=aged_stress)
        assert np.array_equal(view.vth, ref.vth)
        # reference: one standalone wordline alternating the two stresses
        a = ref.read_page(0)
        ref.set_stress(StressState())
        b = ref.read_page(0)
        assert np.array_equal(view.read_page(0).mismatch, a.mismatch)
        batch = cols.read_page_batch(0, rows=[1])
        assert np.array_equal(batch.mismatch[0], b.mismatch)

    def test_iter_wordline_batches_partitions_in_order(self, tiny_tlc):
        chip = make_chip(tiny_tlc)
        got = []
        for batch in chip.iter_wordline_batches(0, range(7), batch=3):
            assert isinstance(batch, BlockColumns)
            got.extend(batch.indices)
        assert got == list(range(7))


# ---------------------------------------------------------------------------
# kernel bit-identity
# ---------------------------------------------------------------------------
class TestKernels:
    def test_read_page_batch_matches_serial(self, tiny_tlc, aged_stress):
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(4))
        serial = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(4))
        for page in range(tiny_tlc.pages_per_wordline):
            batch = cols.read_page_batch(page)
            for row, wl in enumerate(serial):
                ref = wl.read_page(page)
                assert batch.n_errors[row] == ref.n_errors
                assert np.array_equal(batch.mismatch[row], ref.mismatch)
                assert batch.rber[row] == ref.rber

    def test_noncontiguous_row_subset(self, tiny_tlc, aged_stress):
        """Fancy-indexed (ragged) subsets equal per-row calls in order."""
        rows = [1, 3, 4, 6]
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(8))
        ref_cols = make_chip(tiny_tlc, aged_stress).block_columns(0, range(8))
        batch = cols.read_page_batch(0, rows=rows)
        for j, r in enumerate(rows):
            ref = ref_cols.wordline_view(r).read_page(0)
            assert batch.n_errors[j] == ref.n_errors

    def test_per_row_offsets(self, tiny_tlc, aged_stress):
        """A (rows, n_voltages) offsets matrix applies row-wise."""
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(3))
        serial = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(3))
        rng = np.random.default_rng(7)
        offs = rng.integers(-40, 40, size=(3, tiny_tlc.n_voltages)).astype(float)
        batch = cols.read_page_batch(0, offsets=offs)
        for row, wl in enumerate(serial):
            ref = wl.read_page(0, offs[row])
            assert batch.n_errors[row] == ref.n_errors

    def test_sentinel_readout_batch_matches_serial(self, tiny_tlc, aged_stress):
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(4))
        serial = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(4))
        for off in (0.0, -12.0):
            batch = cols.sentinel_readout_batch(off)
            for row, wl in enumerate(serial):
                ref = wl.sentinel_readout(off)
                assert batch[row] == ref

    def test_single_voltage_counts_matches_serial(self, tiny_tlc, aged_stress):
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(4))
        serial = one_row_wordlines(make_chip(tiny_tlc, aged_stress), 0, range(4))
        pos = tiny_tlc.read_voltage(1, -8)
        counts = cols.single_voltage_counts(pos)
        for row, wl in enumerate(serial):
            assert counts[row] == int(wl.single_voltage_read(pos).sum())

    def test_decode_ok_batch_matches_decode_ok(self):
        ecc = default_ecc("tlc")
        rng = np.random.default_rng(3)
        for width in (ecc.frame_bits * 2, ecc.frame_bits * 2 + 17, 100):
            mismatch = rng.random((6, width)) < 0.004
            batched = ecc.decode_ok_batch(mismatch)
            for i in range(len(mismatch)):
                assert batched[i] == ecc.decode_ok(mismatch[i])


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------
class TestCaches:
    def _eviction_count(self, cache):
        text = OBS.metrics.render_prometheus()
        for line in text.splitlines():
            if "repro_flash_cache_evictions_total" in line and cache in line:
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    def test_vth_memo_bounded_with_eviction_counter(self, tiny_tlc):
        OBS.enable(metrics=True, tracing=False)
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        stresses = [StressState(pe_cycles=p) for p in (100, 200, 300, 400)]
        for s in stresses:
            cols.set_stress(s)
        assert len(cols._vth_cache) <= BlockColumns._VTH_CACHE_SIZE
        assert self._eviction_count('cache="block_vth"') >= 1

    def test_vth_memo_hit_returns_same_array(self, tiny_tlc, aged_stress):
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        cols.set_stress(aged_stress)
        first = cols.vth
        cols.set_stress(StressState())
        cols.set_stress(aged_stress)
        assert cols.vth is first

    def test_stored_bits_cache_bounded_with_eviction_counter(self, tiny_tlc):
        OBS.enable(metrics=True, tracing=False)
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        cols._STORED_BITS_CACHE_SIZE = 1  # shrink to force turnover
        cols.read_page_batch(0)
        cols.read_page_batch(1)
        cols.read_page_batch(2)
        assert len(cols._stored_bits_cache) <= 1
        assert self._eviction_count('cache="block_stored_bits"') >= 2


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_batch_sense_events_and_metrics(self, tiny_tlc, aged_stress):
        OBS.enable(metrics=True, tracing=True)
        chip = make_chip(tiny_tlc, aged_stress)
        cols = chip.block_columns(0, range(3))
        cols.read_page_batch(0)
        cols.sentinel_readout_batch(0.0)
        cols.single_voltage_counts(tiny_tlc.read_voltage(1, 0))
        kinds = [e.fields["kernel"] for e in OBS.tracer.events() if e.kind == "batch_sense"]
        assert "synthesize" in kinds
        assert "sense_regions" in kinds
        assert "sentinel_readout" in kinds
        assert "single_voltage" in kinds
        for e in OBS.tracer.events():
            if e.kind == "batch_sense":
                assert e.fields["wordlines"] >= 1
                assert e.fields["seconds"] >= 0.0
        text = OBS.metrics.render_prometheus()
        assert "repro_flash_batch_calls_total" in text
        assert "repro_flash_batch_kernel_seconds" in text

    def test_measure_event_counts_pinned(self):
        """Obs-on measure with the sentinel controller: per-kind event
        counts are pinned (one ``synthesize`` per store, one
        ``sense_regions`` per lockstep wave; the schedule's auxiliary
        senses go through the row's view and record no ``batch_sense``)."""
        from collections import Counter

        from repro.core.controller import SentinelController
        from repro.core.fitting import PolynomialFit
        from repro.ecc.capability import CapabilityEcc
        from repro.core.models import CorrelationTable, SentinelModel
        from repro.ssd.retry_model import RetryProfile

        spec = TLC_SPEC.scaled(
            cells_per_wordline=2048, wordlines_per_layer=1, layers=8,
            name_suffix="-tele",
        )
        nv = spec.n_voltages
        model = SentinelModel(
            spec_name=spec.name,
            sentinel_voltage=spec.sentinel_voltage,
            n_voltages=nv,
            difference_poly=PolynomialFit(
                coeffs=np.array([500.0, -2.0]), x_min=-0.1, x_max=0.1
            ),
            correlations=[
                CorrelationTable(
                    -273.0, 1000.0, np.linspace(1.4, 0.4, nv), np.zeros(nv)
                )
            ],
        )
        chip = make_chip(
            spec, StressState(pe_cycles=3000, retention_hours=4000.0)
        )
        OBS.enable(metrics=True, tracing=True)
        RetryProfile.measure(
            chip, SentinelController(CapabilityEcc.for_spec(spec), model)
        )
        events = OBS.tracer.events()
        assert dict(Counter(e.kind for e in events)) == {
            "batch_sense": 24,
            "calibration_step": 46,
            "ecc_decode": 92,
            "fallback_table": 4,
            "read_attempt": 92,
            "read_complete": 24,
            "sentinel_inference": 12,
            "shard_dispatch": 1,
            "shard_merge": 1,
        }
        assert [
            e.fields["kernel"] for e in events if e.kind == "batch_sense"
        ] == ["synthesize"] + ["sense_regions"] * 23

    def test_measure_read_complete_follows_merge(self, tiny_tlc, aged_stress):
        """Serial and sharded measures emit the same ``read_complete``
        sequence, as one contiguous block right after ``shard_merge``."""
        from repro.ecc.capability import CapabilityEcc
        from repro.retry.current_flash import CurrentFlashPolicy
        from repro.ssd.retry_model import RetryProfile

        chip = make_chip(tiny_tlc, aged_stress)
        streams = []
        for workers in (1, 2):
            OBS.reset()
            OBS.enable(metrics=False, tracing=True)
            RetryProfile.measure(
                chip,
                CurrentFlashPolicy(CapabilityEcc.for_spec(tiny_tlc), tiny_tlc),
                workers=workers,
            )
            events = OBS.tracer.events()
            kinds = [e.kind for e in events]
            done = [i for i, k in enumerate(kinds) if k == "read_complete"]
            assert done == list(range(done[0], done[0] + len(done)))
            assert kinds[done[0] - 1] == "shard_merge"
            streams.append([events[i].fields for i in done])
        assert len(streams[0]) == 8 * tiny_tlc.pages_per_wordline
        assert streams[0] == streams[1]

    def test_wordline_reads_record_no_batch_sense(self, tiny_tlc, aged_stress):
        OBS.enable(metrics=True, tracing=True)
        views = make_chip(tiny_tlc, aged_stress).block_columns(0, range(2))
        standalone = make_chip(tiny_tlc, aged_stress).wordline(0, 3)
        for wl in (*views.iter_views(), standalone):
            for page in range(tiny_tlc.pages_per_wordline):
                wl.read_page(page)
            wl.sentinel_readout(0.0)
        kernels = [
            e.fields["kernel"] for e in OBS.tracer.events()
            if e.kind == "batch_sense"
        ]
        assert kernels == ["synthesize", "synthesize"]

    def test_stats_fold_batch_kernels(self, tiny_tlc):
        from repro.obs.stats import aggregate, render

        OBS.enable(metrics=False, tracing=True)
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        cols.read_page_batch(0)
        stats = aggregate(OBS.tracer.events())
        assert stats.batch_kernels["sense_regions"][0] >= 1
        assert "columnar batched kernels" in render(stats)

    def test_characterize_notes_one_optimal_kernel_per_batch(
        self, tiny_tlc, tmp_path, capsys
    ):
        """Each characterization sub-batch runs one sentinel readout and
        one ground-truth search; ``repro stats`` lists the search with the
        other columnar kernels."""
        from collections import Counter

        from repro.cli import main
        from repro.core.characterization import (
            DEFAULT_TRAINING_STRESSES,
            characterize_chip,
        )

        OBS.enable(metrics=False, tracing=True)
        characterize_chip(make_chip(tiny_tlc), blocks=(0, 1))
        kernels = Counter(
            e.fields["kernel"] for e in OBS.tracer.events()
            if e.kind == "batch_sense"
        )
        batches = len(DEFAULT_TRAINING_STRESSES) * 2
        assert kernels["optimal"] == kernels["sentinel_readout"] == batches
        trace = tmp_path / "characterize.jsonl"
        OBS.tracer.export_jsonl(str(trace))
        assert main(["stats", str(trace)]) == 0
        table = capsys.readouterr().out.split("columnar batched kernels")[1]
        rows = {line.split()[0]: line.split()[1:3] for line in
                table.strip().split("\n\n")[0].splitlines()[2:]}
        assert rows["optimal"] == [str(batches), str(8 * batches)]

    def test_disabled_obs_emits_nothing(self, tiny_tlc):
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        cols.read_page_batch(0)
        assert len(OBS.tracer.events()) == 0
