"""Columnar block store (``repro.flash.block``): the one read path.

Every :class:`Wordline` is a row of a store.  The contract under test is
batch-size invariance: a kernel over rows ``[a, b, c]`` produces exactly
what one-row stores (standalone wordlines) produce at the same RNG stream
positions ("batch the arithmetic, not the RNG consumption order").
Broader randomized coverage lives in ``tests/test_property_block.py``;
this file pins the mechanics — live views, copy-on-write, restarts,
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

    @pytest.mark.parametrize("move", ["set_stress", "program_pages"])
    def test_row_store_shares_read_only_cells(self, tiny_tlc, aged_stress, move):
        """A row moved to a private store reads its parent's latents as
        read-only views; its states are read-only too."""
        cols = make_chip(tiny_tlc).block_columns(0, range(3))
        view = cols.wordline_view(1)
        if move == "set_stress":
            view.set_stress(aged_stress)
        else:
            zeros = np.zeros(view.n_data_cells, dtype=np.uint8)
            view.program_pages(
                {p: zeros for p in range(tiny_tlc.pages_per_wordline)}
            )
        row = view.store
        assert row is not cols and row.n_wordlines == 1
        for name in ("prog_noise", "leak_rate", "tail_mag"):
            assert np.shares_memory(getattr(row, name), getattr(cols, name))
        # programming gives the row new states; re-stressing keeps them
        assert np.shares_memory(row.states, cols.states) == (
            move == "set_stress"
        )
        for name in ("prog_noise", "leak_rate", "tail_mag", "states"):
            array = getattr(row, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1

    def test_view_follows_store_restart(self, aged_stress):
        """A view made before ``cols.restart`` reads at the new stress."""
        spec = TLC_SPEC.scaled(
            cells_per_wordline=2048, wordlines_per_layer=1, layers=8,
            name_suffix="-live",
        )
        cols = BlockColumns(spec, 3, 0, range(8))
        view = cols.wordline_view(5)
        cols.restart(aged_stress)
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

    def test_restart_equals_fresh_build(self, tiny_tlc, aged_stress):
        """A used store restarted at a stress is exactly a fresh build
        there: same cells, same Vth bytes, same next noisy sense."""
        cols = make_chip(tiny_tlc).block_columns(0, range(3))
        cols.read_page_batch(0)
        cols.sentinel_readout_batch(0.0)
        cols.restart(aged_stress)
        fresh = make_chip(tiny_tlc, aged_stress).block_columns(0, range(3))
        assert cols.stress == fresh.stress == aged_stress
        for name in ("states", "prog_noise", "leak_rate", "tail_mag"):
            assert np.array_equal(getattr(cols, name), getattr(fresh, name))
        assert cols.vth.tobytes() == fresh.vth.tobytes()
        positions = tiny_tlc.default_read_voltages
        assert np.array_equal(
            cols.sense_regions_batch(positions),
            fresh.sense_regions_batch(positions),
        )

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
            assert counts[row] == wl.store.single_voltage_counts(pos)[0]

    @staticmethod
    def _just_above(sensed: np.ndarray) -> float:
        """A float64 threshold a quarter float32 ulp above ``sensed[0]``:
        it rounds to that float32 value, but exceeds it in float64."""
        v = sensed.flat[0]
        return float(v) + float(np.spacing(v)) / 4

    def test_threshold_scalar_type_does_not_change_sensing(
        self, tiny_tlc, aged_stress
    ):
        """A Python-float and an ``np.float64`` threshold both round to
        float32, so the same cell senses alike at either."""
        sensed = make_chip(tiny_tlc, aged_stress).block_columns(0, [0])
        position = self._just_above(sensed._sensed([0], slice(0, 1)))
        counts = [
            make_chip(tiny_tlc, aged_stress).block_columns(0, [0])
            .single_voltage_counts(p)[0]
            for p in (position, np.float64(position))
        ]
        assert counts[0] == counts[1]

        cols = make_chip(tiny_tlc, aged_stress).block_columns(0, [0])
        idx = cols.sentinel_indices
        v = cols.vth[0:1][:, idx] + cols._noise_rows([0], len(idx))
        base = tiny_tlc.read_voltage(tiny_tlc.sentinel_voltage)
        offset = self._just_above(v) - base
        readouts = [
            make_chip(tiny_tlc, aged_stress).block_columns(0, [0])
            .sentinel_readout_batch(o)[0]
            for o in (offset, np.float64(offset))
        ]
        assert readouts[0] == readouts[1]

    def test_decode_ok_batch_matches_decode_ok(self):
        ecc = default_ecc("tlc")
        rng = np.random.default_rng(3)
        for width in (ecc.frame_bits * 2, ecc.frame_bits * 2 + 17, 100):
            mismatch = rng.random((6, width)) < 0.004
            batched = ecc.decode_ok_batch(mismatch)
            for i in range(len(mismatch)):
                assert batched[i] == ecc.decode_ok(mismatch[i])


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

    def test_measure_trace_same_in_pool_and_serial(self, tiny_tlc,
                                                   aged_stress, monkeypatch):
        """Pool shards hand their events back to the parent, so a sharded
        measure traces what its shard plan traces run serially, bar
        wall-clock and engine-mode fields.  The plan itself depends on the
        worker count and ``batch_sense`` (one per kernel call) follows it;
        each per-read kind, ``ecc_decode`` included, still matches an
        unsharded run."""
        import repro.flash.chip as chip_module
        from repro.ecc.capability import CapabilityEcc
        from repro.engine import ParallelMap
        from repro.retry.current_flash import CurrentFlashPolicy
        from repro.ssd.retry_model import RetryProfile

        varying = {"seconds", "wall_s", "busy_s", "merge_s", "utilization",
                   "mode", "workers"}
        chip = make_chip(tiny_tlc, aged_stress)

        def trace(workers):
            OBS.reset()
            OBS.enable(metrics=False, tracing=True)
            RetryProfile.measure(
                chip,
                CurrentFlashPolicy(CapabilityEcc.for_spec(tiny_tlc), tiny_tlc),
                workers=workers,
            )
            events = OBS.tracer.events()
            mode = events[-1].fields["mode"]
            return mode, [
                (e.seq, e.kind,
                 {k: v for k, v in e.fields.items() if k not in varying})
                for e in events
            ]

        unsharded = trace(1)[1]
        pool = trace(2)
        with monkeypatch.context() as m:
            m.setattr(chip_module, "ParallelMap",
                      lambda workers: ParallelMap(workers=1))
            serial = trace(2)
        assert (pool[0], serial[0]) == ("parallel", "serial")
        assert pool[1] == serial[1]

        def per_read(stream):
            return {kind: [f for _, k, f in stream if k == kind]
                    for kind in ("read_attempt", "read_complete",
                                 "ecc_decode")}

        reads = per_read(unsharded)
        assert len(reads["read_complete"]) == 8 * tiny_tlc.pages_per_wordline
        assert len(reads["ecc_decode"]) == len(reads["read_attempt"])
        assert per_read(pool[1]) == reads

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
        from repro.obs.stats import Kernels, aggregate, render

        OBS.enable(metrics=False, tracing=True)
        chip = make_chip(tiny_tlc)
        cols = chip.block_columns(0, range(2))
        cols.read_page_batch(0)
        stats = aggregate(OBS.tracer.events())
        assert stats.section(Kernels).by_kernel["sense_regions"][0] >= 1
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
