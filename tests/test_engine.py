"""The deterministic fan-out engine: sharding, merging, golden equivalence.

The engine's whole contract is one sentence — parallel output is
byte-identical to serial — so most tests here run the same computation
with ``workers=1`` and ``workers=N`` and assert exact equality, at every
level: raw ``ParallelMap`` results, ``RetryProfile`` samples,
characterization fits, block sweeps, and a full ``ServiceReport`` JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    ParallelMap,
    WordlineShard,
    available_workers,
    merge_in_order,
    plan_wordline_shards,
    split_contiguous,
)
from repro.engine.shards import SHARDS_PER_WORKER
from repro.flash.chip import FlashChip, StressState
from repro.flash.optimal import optimal_offsets_batch


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=0, max_value=200),
    workers=st.integers(min_value=1, max_value=8),
)
def test_shard_plan_is_a_partition_in_order(n, workers):
    spw = SHARDS_PER_WORKER
    indices = list(range(0, 3 * n, 3))  # arbitrary stride
    shards = plan_wordline_shards(0, indices, workers)
    flat = [w for s in shards for w in s.wordlines]
    assert flat == indices  # exact partition, canonical order
    if indices:
        assert all(len(s) >= 1 for s in shards)
        assert len(shards) <= max(1, workers) * spw or workers <= 1


def test_serial_plan_is_one_shard():
    shards = plan_wordline_shards(2, range(17), workers=1)
    assert len(shards) == 1
    assert shards[0].block == 2
    assert shards[0].wordlines == tuple(range(17))


@given(n=st.integers(min_value=0, max_value=60),
       n_shards=st.integers(min_value=-1, max_value=80))
def test_split_contiguous_is_near_equal_partition(n, n_shards):
    items = list(range(n))
    runs = split_contiguous(iter(items), n_shards)
    assert [x for run in runs for x in run] == items
    if items:
        assert len(runs) == max(1, min(n, n_shards))
        assert max(map(len, runs)) - min(map(len, runs)) <= 1
    else:
        assert runs == []


# ----------------------------------------------------------------------
# merge order
# ----------------------------------------------------------------------
@given(perm=st.permutations(list(range(9))))
def test_merge_in_order_ignores_completion_order(perm):
    # results arriving in any completion order merge identically
    results = {}
    for index in perm:
        results[index] = index * 10
    assert merge_in_order(results, 9) == [i * 10 for i in range(9)]


def test_merge_in_order_rejects_missing_shards():
    with pytest.raises(RuntimeError, match="missing"):
        merge_in_order({0: "a", 2: "c"}, 3)


# ----------------------------------------------------------------------
# ParallelMap execution
# ----------------------------------------------------------------------
def _square_sum(shard: WordlineShard) -> int:
    return sum(w * w for w in shard.wordlines)


def test_parallel_map_matches_serial():
    shards = plan_wordline_shards(0, range(40), workers=4)
    serial = ParallelMap(workers=1).run(_square_sum, shards)
    parallel = ParallelMap(workers=4).run(_square_sum, shards)
    assert serial == parallel == [_square_sum(s) for s in shards]


def test_parallel_map_reports_mode_and_accounting():
    shards = plan_wordline_shards(0, range(8), workers=2)
    engine = ParallelMap(workers=2)
    engine.run(_square_sum, shards)
    report = engine.last_report
    assert report.mode == "parallel"
    assert report.shards == len(shards)
    assert report.wall_seconds >= 0.0
    serial_engine = ParallelMap(workers=1)
    serial_engine.run(_square_sum, shards)
    assert serial_engine.last_report.mode == "serial"


def test_unpicklable_fn_falls_back_to_serial():
    captured = []

    def local_fn(shard):  # closures don't pickle -> pool must fall back
        captured.append(shard)
        return len(shard)

    shards = plan_wordline_shards(0, range(10), workers=2)
    engine = ParallelMap(workers=2)
    out = engine.run(local_fn, shards)
    assert out == [len(s) for s in shards]
    assert engine.last_report.mode == "serial-fallback"


def test_shard_errors_propagate():
    def boom(shard):
        raise ValueError("shard exploded")

    shards = plan_wordline_shards(0, range(4), workers=1)
    with pytest.raises(ValueError, match="shard exploded"):
        ParallelMap(workers=1).run(boom, shards)


def test_available_workers_positive():
    assert available_workers() >= 1


# ----------------------------------------------------------------------
# golden equivalence: consumers
# ----------------------------------------------------------------------
def _aged_chip(spec, seed=7):
    chip = FlashChip(spec, seed=seed, sentinel_ratio=0.002)
    chip.set_block_stress(
        0, StressState(pe_cycles=3000, retention_hours=4000.0)
    )
    return chip


def test_measure_samples_identical_serial_vs_parallel(tiny_tlc):
    from repro.ecc.capability import CapabilityEcc
    from repro.retry.current_flash import CurrentFlashPolicy
    from repro.ssd.retry_model import RetryProfile

    ecc = CapabilityEcc.for_spec(tiny_tlc)
    serial = RetryProfile.measure(
        _aged_chip(tiny_tlc), CurrentFlashPolicy(ecc, tiny_tlc), workers=1
    )
    parallel = RetryProfile.measure(
        _aged_chip(tiny_tlc), CurrentFlashPolicy(ecc, tiny_tlc), workers=4
    )
    assert serial.samples.keys() == parallel.samples.keys()
    for p in serial.samples:
        assert np.array_equal(serial.samples[p], parallel.samples[p])
    assert serial.page_voltages == parallel.page_voltages


def test_characterize_identical_serial_vs_parallel(tiny_tlc):
    from repro.core.characterization import characterize_chip

    def run(workers):
        return characterize_chip(
            FlashChip(tiny_tlc, seed=11, sentinel_ratio=0.002),
            blocks=(0, 1),
            workers=workers,
        )

    serial, parallel = run(1), run(2)
    assert np.array_equal(serial.d_rates, parallel.d_rates)
    assert np.array_equal(serial.optima, parallel.optima)
    assert np.array_equal(serial.temperatures, parallel.temperatures)
    assert serial.stress_labels == parallel.stress_labels
    assert np.array_equal(
        serial.model.difference_poly.coeffs,
        parallel.model.difference_poly.coeffs,
    )


def test_characterize_leaves_last_stress_applied(tiny_tlc):
    from repro.core.characterization import (
        DEFAULT_TRAINING_STRESSES,
        characterize_chip,
    )

    chip = FlashChip(tiny_tlc, seed=11, sentinel_ratio=0.002)
    characterize_chip(chip, blocks=(0, 1), workers=2)
    for block in (0, 1):
        assert chip.block_stress(block) == DEFAULT_TRAINING_STRESSES[-1]


def _sentinel_rows(cols):
    """Each row's identity and stress, one noisy sentinel readout, one
    noisy page read (RBER) and the noiseless optima of its Vth."""
    readouts = cols.sentinel_readout_batch(0.0)
    rber = cols.read_page_batch("MSB").rber
    optima = optimal_offsets_batch(cols)
    return [
        (cols.block, index, cols.stress, r.up_errors, r.down_errors, e,
         tuple(o))
        for index, r, e, o in zip(cols.indices, readouts, rber, optima)
    ]


_SWEEP_STRESSES = (
    StressState(pe_cycles=1000, retention_hours=500.0),
    StressState(pe_cycles=4000, retention_hours=8760.0),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    wordlines=st.lists(
        st.integers(min_value=0, max_value=7), min_size=1, max_size=8,
        unique=True,
    ),
    batch_rows=st.integers(min_value=1, max_value=3),
    workers=st.sampled_from([1, 2]),
    current_stress=st.booleans(),
)
def test_map_wordlines_matches_per_row_reference(
    tiny_tlc, monkeypatch, wordlines, batch_rows, workers, current_stress
):
    """The one block-sweep path equals one-row stores read in (stress,
    block, wordline) order, at any worker count and sub-batch size; no
    stresses sweep nothing."""
    from repro.flash import chip as chip_module
    from repro.flash.block import BlockColumns

    monkeypatch.setattr(
        chip_module, "SWEEP_BATCH_CELLS",
        batch_rows * tiny_tlc.cells_per_wordline,
    )
    chip = FlashChip(tiny_tlc, seed=5, sentinel_ratio=0.02)
    if current_stress:
        # stresses=None: each block once, at its own current stress
        for block, stress in zip((0, 1), _SWEEP_STRESSES):
            chip.set_block_stress(block, stress)
        units = list(zip(_SWEEP_STRESSES, (0, 1)))
        stresses = None
    else:
        units = [(s, b) for s in _SWEEP_STRESSES for b in (0, 1)]
        stresses = _SWEEP_STRESSES
    got = chip.map_wordlines(
        _sentinel_rows, wordlines, blocks=(0, 1), stresses=stresses,
        workers=workers,
    )
    expected = [
        row
        for stress, block in units
        for w in wordlines
        for row in _sentinel_rows(
            BlockColumns(tiny_tlc, 5, block, [w], 0.02, stress=stress)
        )
    ]
    assert got == expected
    assert chip.map_wordlines(
        _sentinel_rows, wordlines, blocks=(0, 1), stresses=(),
        workers=workers,
    ) == []


def test_service_report_json_identical_serial_vs_parallel(tiny_tlc):
    """The full pipeline: measured profiles -> service run -> JSON report."""
    from repro.ecc.capability import CapabilityEcc
    from repro.retry.current_flash import CurrentFlashPolicy
    from repro.service import FlashReadService, ServiceConfig, mixed_scenario
    from repro.ssd.config import SsdConfig
    from repro.ssd.retry_model import RetryProfile
    from repro.ssd.timing import NandTiming

    ecc = CapabilityEcc.for_spec(tiny_tlc)

    def report_json(workers):
        policy = CurrentFlashPolicy(ecc, tiny_tlc)
        cold = RetryProfile.measure(
            _aged_chip(tiny_tlc), policy, name="cold", workers=workers
        )
        warm = RetryProfile.measure(
            _aged_chip(tiny_tlc), policy, name="warm", workers=workers
        )
        service = FlashReadService(
            spec=tiny_tlc,
            ssd_config=SsdConfig.for_spec(
                tiny_tlc, channels=2, dies_per_channel=2, blocks_per_die=64
            ),
            timing=NandTiming(),
            profiles={"cold": cold, "warm": warm},
            seed=5,
            config=ServiceConfig(),
        )
        clients = mixed_scenario(n_requests=120, footprint_pages=256)
        return service.run(list(clients), scenario="test").to_json()

    assert json.loads(report_json(1)) == json.loads(report_json(4))


class _FakeModel:
    """Module-level so instances pickle by reference."""

    def infer_sentinel_offset(self, d_rate):
        return -40.0 * d_rate


def test_warm_hint_fn_pickles_and_matches(tiny_tlc):
    """The scrubber-hint callable survives pickling into worker processes."""
    import pickle

    from repro.service.profiles import SentinelHintFn

    fn = SentinelHintFn(_FakeModel())
    clone = pickle.loads(pickle.dumps(fn))
    wl = _aged_chip(tiny_tlc).wordline(0, 0)
    # both consume an identical fresh read-noise stream position
    wl2 = _aged_chip(tiny_tlc).wordline(0, 0)
    assert fn(wl) == clone(wl2)


# ----------------------------------------------------------------------
# obs integration
# ----------------------------------------------------------------------
def test_engine_emits_dispatch_and_merge_events(tiny_tlc):
    import repro.obs as obs
    from repro.obs import OBS
    from repro.obs.stats import Engine, aggregate

    obs.enable(metrics=True, tracing=True)
    try:
        OBS.tracer.clear()
        shards = plan_wordline_shards(0, range(12), workers=2)
        ParallelMap(workers=2).run(_square_sum, shards, label="unit")
        events = OBS.tracer.events()
        kinds = [e.kind for e in events]
        assert "shard_dispatch" in kinds and "shard_merge" in kinds
        engine = aggregate(events).section(Engine)
        assert engine.dispatches == 1
        assert engine.merges == 1
        assert engine.shards == len(shards)
        assert engine.modes.get("parallel") == 1
        assert engine.labels.get("unit") == 1
        assert 0.0 <= engine.utilization
    finally:
        obs.disable()


def test_pipelines_fan_out_in_parallel_mode(tiny_tlc):
    """``workers=2`` really reaches the pool.

    A shard the pool cannot ship (an unpicklable task, say) falls back to
    serial with byte-identical output, so only the engine's ``mode``
    shows the lost fan-out.  Only the top-level runs are checked: the
    serial runs nested inside tournament workers reach the trace too.
    """
    import repro.obs as obs
    from repro.ecc.capability import CapabilityEcc
    from repro.obs import OBS
    from repro.retry.current_flash import CurrentFlashPolicy
    from repro.ssd.retry_model import RetryProfile
    from repro.tournament import TournamentConfig, run_tournament

    obs.enable(metrics=True, tracing=True)
    try:
        OBS.tracer.clear()
        RetryProfile.measure(
            _aged_chip(tiny_tlc),
            CurrentFlashPolicy(CapabilityEcc.for_spec(tiny_tlc), tiny_tlc),
            workers=2,
        )
        run_tournament(TournamentConfig(
            kind="tlc",
            policies=("current-flash", "sentinel"),
            ages=("mid",),
            frontends=("hm_0",),
            cells_per_wordline=8192,
            sentinel_ratio=0.02,
            wordline_step=8,
            requests_per_cell=60,
            workers=2,
        ), seed=0)
        merges = [e.fields for e in OBS.tracer.events()
                  if e.kind == "shard_merge"]
    finally:
        obs.disable()
    top = [(m["label"], m["mode"]) for m in (merges[0], merges[-1])]
    assert top == [("profile-measure", "parallel"), ("tournament", "parallel")]
    assert all(m["mode"] != "serial-fallback" for m in merges)


def test_stats_render_includes_engine_section():
    from repro.obs.stats import Engine, TraceStats, render

    stats = TraceStats()
    stats.n_events = 2
    stats.kind_counts.update({"shard_dispatch": 1, "shard_merge": 1})
    vars(stats.section(Engine)).update(
        dispatches=1,
        shards=8,
        merges=1,
        wall_seconds=0.5,
        busy_seconds=0.8,
        merge_seconds=0.001,
        capacity_seconds=1.0,
        modes={"parallel": 1},
        labels={"profile-measure": 1},
    )
    text = render(stats)
    assert "parallel engine:" in text
    assert "8 shards" in text
    assert "profile-measure=1" in text
    assert "80.0%" in text
