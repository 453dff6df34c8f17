"""Property tests: one read path, invariant to batch size.

Every wordline reads through the columnar kernels of
:mod:`repro.flash.block`.  Randomizing over chip kind (TLC/QLC), stress
condition, batch size (including 1) and ragged / non-contiguous row
subsets, these tests assert that reading rows ``[a, b, c]`` of one store —
batched, through views, or both interleaved — equals reading one-row
stores in the same order; and that one-row reads equal the plain
per-wordline numpy oracle in ``tests/flash_oracle.py``.  Every kernel
is also invariant to the number of lanes its rows are split across.  The
end-to-end pipelines (``measure`` / ``characterize_chip``) are pinned at
the bottom against short compositions of per-wordline calls.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.parallel as engine
from repro.ecc.capability import CapabilityEcc
from repro.exp.fig7 import error_positions
from repro.faults import FAULTS, FaultPlan
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import QLC_SPEC, TLC_SPEC
from repro.flash.wordline import Wordline
from repro.obs import OBS
from tests import retry_oracle
from tests.flash_oracle import OracleWordline, one_row_wordlines

SPECS = {
    kind: base.scaled(
        cells_per_wordline=1024,
        wordlines_per_layer=1,
        layers=4,
        name_suffix="-prop",
    )
    for kind, base in (("tlc", TLC_SPEC), ("qlc", QLC_SPEC))
}

STRESSES = (
    StressState(),
    StressState(pe_cycles=1500, retention_hours=1000.0),
    StressState(pe_cycles=3000, retention_hours=8760.0),
)


def _chip(kind, stress):
    chip = FlashChip(SPECS[kind], seed=5, sentinel_ratio=0.002)
    chip.set_block_stress(0, stress)
    return chip


def _one_row_stores(kind, stress):
    """Row ``r`` of the 4-wordline block as its own one-row store."""
    chip = _chip(kind, stress)
    return {r: chip.block_columns(0, [r]) for r in range(4)}


kinds = st.sampled_from(sorted(SPECS))
stresses = st.sampled_from(STRESSES)
# row subsets of the 4-wordline block: any size (incl. batch=1), any order,
# contiguous or ragged — the kernels must not care
row_subsets = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True
)
# a read schedule: (page, read through views instead of one batched call)
schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    min_size=1,
    max_size=4,
)


@given(kind=kinds, stress=stresses, rows=row_subsets, schedule=schedules)
@settings(max_examples=25, deadline=None)
def test_batched_read_and_sentinel_bit_identical(kind, stress, rows, schedule):
    """Batched and view reads of a store equal one-row stores, in order."""
    spec = SPECS[kind]
    cols = _chip(kind, stress).block_columns(0, range(4))
    single = _one_row_stores(kind, stress)
    for page, via_views in schedule:
        page %= spec.pages_per_wordline
        if via_views:
            got = [cols.wordline_view(r).read_page(page) for r in rows]
            n_errors = [g.n_errors for g in got]
            mismatch = [g.mismatch for g in got]
        else:
            batch = cols.read_page_batch(page, rows=rows)
            n_errors = list(batch.n_errors)
            mismatch = list(batch.mismatch)
        for j, r in enumerate(rows):
            ref = single[r].read_page_batch(page)
            assert n_errors[j] == ref.n_errors[0]
            assert np.array_equal(mismatch[j], ref.mismatch[0])
    readouts = cols.sentinel_readout_batch(-6.0, rows=rows)
    for j, r in enumerate(rows):
        assert readouts[j] == single[r].wordline_view(0).sentinel_readout(-6.0)


@given(kind=kinds, stress=stresses, rows=row_subsets)
@settings(max_examples=10, deadline=None)
def test_batched_single_voltage_bit_identical(kind, stress, rows):
    spec = SPECS[kind]
    cols = _chip(kind, stress).block_columns(0, range(4))
    single = _one_row_stores(kind, stress)
    pos = spec.read_voltage(spec.sentinel_voltage, -4)
    counts = cols.single_voltage_counts(pos, rows=rows)
    for j, r in enumerate(rows):
        assert counts[j] == single[r].single_voltage_counts(pos)[0]


@given(
    kind=kinds,
    stress=stresses,
    index=st.integers(min_value=0, max_value=3),
    offset=st.integers(min_value=-40, max_value=20),
    pages=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_one_row_reads_match_numpy_oracle(kind, stress, index, offset, pages):
    """Vth, page reads and sentinel readouts equal the per-row oracle."""
    spec = SPECS[kind]
    wl = Wordline(spec, 5, 0, index, stress=stress)
    oracle = OracleWordline(spec, 5, 0, index, stress=stress)
    assert np.array_equal(wl.vth, oracle.vth)
    assert np.array_equal(wl.states, oracle.states)
    for page in pages:
        page %= spec.pages_per_wordline
        got = wl.read_page(page, offset)
        bits, mismatch, n_errors = oracle.read_page(page, offset)
        assert got.n_errors == n_errors
        assert np.array_equal(got.mismatch, mismatch)
        assert np.array_equal(got.bits, bits)
        readout = wl.sentinel_readout(float(offset))
        assert (readout.up_errors, readout.down_errors) == (
            oracle.sentinel_readout(float(offset))
        )


@given(
    kind=kinds,
    a=stresses,
    b=stresses,
    index=st.integers(min_value=0, max_value=3),
    pages=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_set_stress_round_trip_matches_numpy_oracle(kind, a, b, index, pages):
    """A wordline moved A -> B -> A by ``set_stress``, read at each stop,
    reads like the oracle built at each stress on one continued noise
    stream."""
    spec = SPECS[kind]
    wl = Wordline(spec, 5, 0, index, stress=a)
    read_rng = None
    for stress in (a, b, a):
        wl.set_stress(stress)
        oracle = OracleWordline(spec, 5, 0, index, stress=stress)
        if read_rng is None:
            read_rng = oracle.read_rng
        oracle.read_rng = read_rng
        assert wl.stress == stress
        assert wl.vth.tobytes() == oracle.vth.tobytes()
        for page in pages:
            page %= spec.pages_per_wordline
            got = wl.read_page(page)
            _, mismatch, n_errors = oracle.read_page(page)
            assert got.n_errors == n_errors
            assert np.array_equal(got.mismatch, mismatch)
        readout = wl.sentinel_readout(-4.0)
        assert (readout.up_errors, readout.down_errors) == (
            oracle.sentinel_readout(-4.0)
        )


# fractional parts, some not representable in float32: thresholds must
# round to the sensed Vth's precision the same way in both paths
fractions = st.sampled_from([0.0, 0.25, 0.3])


@given(kind=kinds, stress=stresses, rows=row_subsets, data=st.data())
@settings(max_examples=25, deadline=None)
def test_analysis_twins_match_numpy_oracle(kind, stress, rows, data):
    """Error positions, full-state reads, per-voltage errors and
    state-change counts of a store equal the per-row oracle, row by row,
    with shared and per-row offsets and positions."""
    spec = SPECS[kind]
    # a large sentinel share, and offsets far enough out to misread some
    # sentinels: counting them as data cells must show
    chip = FlashChip(spec, seed=5, sentinel_ratio=0.05)
    chip.set_block_stress(0, stress)
    cols = chip.block_columns(0, range(4))
    oracles = [
        OracleWordline(spec, 5, 0, r, stress=stress, sentinel_ratio=0.05)
        for r in range(4)
    ]
    per_row = np.array(data.draw(st.lists(
        st.lists(st.integers(-100, 40), min_size=spec.n_voltages,
                 max_size=spec.n_voltages),
        min_size=len(rows), max_size=len(rows),
    )), dtype=np.float64) + data.draw(fractions)
    shared = data.draw(st.integers(-100, 40))

    # Figure 7's error positions: one default read of every row
    for r, got in enumerate(error_positions(cols)):
        wrong = oracles[r].read_states() != oracles[r].states
        assert np.array_equal(got, np.nonzero(wrong & oracles[r].data_mask)[0])
    est = cols.read_states_batch(per_row, rows=rows)
    errors = cols.per_voltage_errors_batch(shared, rows=rows)
    per_row_errors = cols.per_voltage_errors_batch(per_row, rows=rows)
    for j, r in enumerate(rows):
        assert np.array_equal(est[j], oracles[r].read_states(per_row[j]))
        assert np.array_equal(errors[j], oracles[r].per_voltage_errors(shared))
        assert np.array_equal(
            per_row_errors[j], oracles[r].per_voltage_errors(per_row[j])
        )

    v = spec.sentinel_voltage
    pos_a = spec.read_voltage(v, float(shared))
    pos_b = spec.default_read_voltages[v - 1] + per_row[:, v - 1]
    nca, ncs = cols.state_change_counts_batch(pos_a, pos_b, rows=rows)
    for j, r in enumerate(rows):
        assert (nca[j], ncs[j]) == oracles[r].state_change_counts(
            pos_a, pos_b[j]
        )
        # the calibrator's one-row delegation reads the same kernel
        assert cols.wordline_view(r).state_change_counts(pos_b[j], pos_a) == (
            oracles[r].state_change_counts(pos_b[j], pos_a)
        )


@given(
    kind=kinds,
    n_rows=st.integers(min_value=1, max_value=5),
    width=st.integers(min_value=1, max_value=3000),
    rate=st.floats(min_value=0.0, max_value=0.02),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_decode_ok_batch_matches_per_row(kind, n_rows, width, rate, seed):
    """Batched ECC verdicts agree with decode_ok for any mask shape."""
    ecc = CapabilityEcc.for_spec(SPECS[kind])
    rng = np.random.default_rng(seed)
    mismatch = rng.random((n_rows, width)) < rate
    batched = ecc.decode_ok_batch(mismatch)
    for i in range(n_rows):
        assert bool(batched[i]) == ecc.decode_ok(mismatch[i])


# ---------------------------------------------------------------------------
# lanes: a kernel's rows split across threads, bit for bit
# ---------------------------------------------------------------------------
# 16 Ki cells make a chunk 4 rows, so 9 of 12 rows split into pieces of
# 2 rows at 2 lanes and of 1 row at 3, several pieces per lane
LANE_SPEC = TLC_SPEC.scaled(
    cells_per_wordline=16384, wordlines_per_layer=1, layers=12,
    name_suffix="-lanes",
)
LANE_ROWS = [11, 0, 5, 6, 7, 2, 9, 3, 10]  # ragged, with a contiguous run


def _every_kernel(spec):
    """The outputs of every row-piece kernel on a fresh aged store: Vth
    synthesis, the page target and page reads at shared and per-row
    offsets, region sensing, state-change and single-voltage counts."""
    chip = FlashChip(spec, seed=5, sentinel_ratio=0.02)
    chip.set_block_stress(0, StressState(pe_cycles=3000, retention_hours=8760.0))
    cols = chip.block_columns(0, range(spec.wordlines_per_block))
    per_row = np.random.default_rng(0).integers(
        -60, 20, (len(LANE_ROWS), spec.n_voltages)
    ).astype(np.float64)
    out = [cols.vth]
    for page in range(spec.pages_per_wordline):
        for offsets in (None, -20.0, per_row):
            batch = cols.read_page_batch(page, offsets, rows=LANE_ROWS)
            out += [batch.n_errors, batch.mismatch]
    out.append(cols.read_page_batch(1).mismatch)  # every row, in order
    out.append(cols.read_states_batch(-10.0, rows=LANE_ROWS))
    out.append(cols.read_states_batch(per_row, rows=LANE_ROWS))
    v = spec.sentinel_voltage
    pos_a = spec.read_voltage(v, -15.0)
    pos_b = spec.default_read_voltages[v - 1] + per_row[:, v - 1]
    out += cols.state_change_counts_batch(pos_a, pos_b, rows=LANE_ROWS)
    out.append(cols.single_voltage_counts(pos_a, rows=LANE_ROWS))
    return out


def _run_kernels(monkeypatch, lanes, mode):
    """:func:`_every_kernel` at ``lanes`` lanes, with the standard fault
    plan active or with obs on; returns the outputs and what the mode
    recorded: the fault counts, or every trace event without its time."""
    monkeypatch.setattr(engine, "available_workers", lambda: lanes)
    if mode == "faults":
        injector = FAULTS.activate(FaultPlan.standard(), seed=3)
        try:
            out = _every_kernel(LANE_SPEC)
        finally:
            FAULTS.deactivate()
        return out, injector.counts_snapshot()
    OBS.reset()
    OBS.enable(metrics=True, tracing=True)
    out = _every_kernel(LANE_SPEC)
    events = [
        (e.kind, {k: v for k, v in e.fields.items() if k != "seconds"})
        for e in OBS.tracer.events()
    ]
    return out, events


@pytest.mark.parametrize("mode", ["faults", "obs"])
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_every_kernel_bit_identical_at_any_lane_count(monkeypatch, lanes, mode):
    """1, 2 and 3 lanes, whatever the host's CPUs, give the one-lane
    outputs bit for bit, inject the same faults into the same rows and
    emit the same ``batch_sense`` events in the same order.  A short
    switch interval makes the lanes interleave as often as they can."""
    engine.close_lanes()  # count only this test's helper threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        expected, expected_log = _run_kernels(monkeypatch, 1, mode)
        got, log = _run_kernels(monkeypatch, lanes, mode)
        helpers = [
            t for t in threading.enumerate()
            if t.name.startswith(engine.LANE_THREAD_PREFIX)
        ]
        assert len(helpers) == lanes - 1
    finally:
        sys.setswitchinterval(interval)
        engine.close_lanes()
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert log == expected_log
    assert log  # the mode did record something


# ---------------------------------------------------------------------------
# end-to-end: the pipelines equal a composition of per-wordline calls
# ---------------------------------------------------------------------------
def _aged(spec):
    chip = FlashChip(spec, seed=11, sentinel_ratio=0.002)
    chip.set_block_stress(0, StressState(pe_cycles=3000, retention_hours=4000.0))
    return chip


def _assert_measure_matches_reads(spec, make_policy):
    """``RetryProfile.measure`` == the per-row reference read of each
    wordline."""
    from repro.ssd.retry_model import RetryProfile

    profile = RetryProfile.measure(_aged(spec), make_policy())
    policy = make_policy()
    expected = {p: [] for p in range(spec.pages_per_wordline)}
    for wl in one_row_wordlines(_aged(spec), 0):
        for p in expected:
            outcome = retry_oracle.read(policy, wl, p)
            expected[p].append((outcome.retries, outcome.extra_single_reads))
    assert profile.samples.keys() == expected.keys()
    for p, rows in expected.items():
        assert profile.samples[p].tolist() == [list(r) for r in rows]


def test_measure_batched_equals_serial_lockstep(tiny_tlc):
    """CurrentFlashPolicy takes the lockstep kernel path; samples match."""
    from repro.retry.current_flash import CurrentFlashPolicy

    ecc = CapabilityEcc.for_spec(tiny_tlc)
    _assert_measure_matches_reads(
        tiny_tlc, lambda: CurrentFlashPolicy(ecc, tiny_tlc)
    )


def _toy_sentinel_model(spec):
    from repro.core.fitting import PolynomialFit
    from repro.core.models import CorrelationTable, SentinelModel

    nv = spec.n_voltages
    return SentinelModel(
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


def test_measure_batched_equals_serial_sentinel_policy(tiny_tlc):
    """SentinelController (no read_batch override) goes through views."""
    from repro.core.controller import SentinelController

    ecc = CapabilityEcc.for_spec(tiny_tlc)
    model = _toy_sentinel_model(tiny_tlc)
    _assert_measure_matches_reads(
        tiny_tlc, lambda: SentinelController(ecc, model)
    )


def test_characterize_batched_equals_serial(tiny_tlc):
    """Samples equal sentinel_readout + optimal_offsets per wordline."""
    from repro.core.characterization import (
        DEFAULT_TRAINING_STRESSES,
        characterize_chip,
    )
    from repro.flash.optimal import optimal_offsets

    result = characterize_chip(
        FlashChip(tiny_tlc, seed=11, sentinel_ratio=0.002), blocks=(0, 1)
    )
    chip = FlashChip(tiny_tlc, seed=11, sentinel_ratio=0.002)
    d_rates, optima = [], []
    for stress in DEFAULT_TRAINING_STRESSES:
        for block in (0, 1):
            chip.set_block_stress(block, stress)
            for wl in one_row_wordlines(chip, block):
                d_rates.append(wl.sentinel_readout(0.0).difference_rate)
                optima.append(optimal_offsets(wl))
    assert np.array_equal(result.d_rates, np.asarray(d_rates))
    assert np.array_equal(result.optima, np.vstack(optima))
