"""Property tests: the batched ground-truth search equals the per-row one.

:func:`repro.flash.optimal.optimal_offsets_batch` and
:func:`~repro.flash.optimal.boundary_error_counts_batch` search many rows
of a store at once through one sorted int64 key per cell.  These tests
require them — and the per-wordline functions, which are one-row calls of
the same kernel — to equal the plain per-row search kept in
``tests/flash_oracle.py`` byte for byte, over both chip kinds, fresh, aged
and hot stresses, with and without sentinels, on wordlines small enough
to leave state segments empty, for voltage subsets, any row subset and
any key-chunk size.  The error-count offsets
include thresholds a quarter float32 step either side of a cell's Vth,
where a plain float32 cast of the threshold or a right-sided search would
miscount.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import optimal
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.optimal import (
    boundary_error_counts_batch,
    errors_at_offsets,
    optimal_offset,
    optimal_offsets,
    optimal_offsets_batch,
)
from repro.flash.spec import QLC_SPEC, TLC_SPEC
from tests import flash_oracle as ref

N_ROWS = 6
KINDS = {"tlc": TLC_SPEC, "qlc": QLC_SPEC}
STRESSES = {
    "fresh": StressState(),
    "aged": StressState(pe_cycles=3000, retention_hours=8760.0),
    "hot": StressState(pe_cycles=1000, retention_hours=720.0, temperature_c=80.0),
}


@lru_cache(maxsize=None)
def _store(kind, cells, ratio, stress_name):
    spec = KINDS[kind].scaled(
        cells_per_wordline=cells, wordlines_per_layer=2, layers=3,
        name_suffix=f"-opt{cells}",
    )
    chip = FlashChip(spec, seed=9, sentinel_ratio=ratio)
    chip.set_block_stress(0, STRESSES[stress_name])
    return chip.block_columns(0, range(N_ROWS))


stores = st.builds(
    _store,
    kind=st.sampled_from(sorted(KINDS)),
    cells=st.sampled_from([12, 1024]),
    ratio=st.sampled_from([0.0, 0.02]),
    stress_name=st.sampled_from(sorted(STRESSES)),
)
# one row, several, contiguous or not, in any order
row_lists = st.lists(
    st.integers(min_value=0, max_value=N_ROWS - 1),
    min_size=1, max_size=N_ROWS, unique=True,
)
# chunk bound: one row per chunk, a few rows, or the default
key_chunks = st.sampled_from([1, 1 << 14, optimal._KEY_CHUNK])


def _with_key_chunk(cells, fn):
    saved = optimal._KEY_CHUNK
    optimal._KEY_CHUNK = cells
    try:
        return fn()
    finally:
        optimal._KEY_CHUNK = saved


@given(cols=stores, rows=row_lists, data=st.data(), key_chunk=key_chunks)
@settings(max_examples=80, deadline=None)
def test_optimal_offsets_equal_reference(cols, rows, data, key_chunk):
    nv = cols.spec.n_voltages
    voltages = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(min_value=1, max_value=nv), max_size=nv,
                 unique=True),
    ))
    got = _with_key_chunk(
        key_chunk,
        lambda: optimal_offsets_batch(cols, rows, voltages),
    )
    want = np.stack([
        ref.optimal_offsets(cols.wordline_view(r), voltages)
        for r in rows
    ])
    assert got.shape == (len(rows), nv)
    assert got.tobytes() == want.tobytes()  # -0.0 != +0.0 here
    for j, r in enumerate(rows):
        wl = cols.wordline_view(r)
        one = optimal_offsets(wl, voltages)
        assert one.tobytes() == want[j].tobytes()
        for v in (1, nv) if voltages is None else voltages:
            assert optimal_offset(wl, v) == want[j, v - 1]


def _anchored_offsets(cols, rows, vindex, picks):
    """Offsets placing the threshold a quarter float32 step below, at and
    above the Vth of picked data cells of the boundary's two states."""
    spec = cols.spec
    default = spec.default_read_voltages[vindex - 1]
    states = spec.gray.adjacent_states(vindex)
    out = [-default]  # a threshold of exactly 0.0
    for r in rows:
        cells = np.flatnonzero(np.isin(cols.states[r], states) & cols.data_mask)
        for p in picks:
            if len(cells):
                v = cols.vth[r, cells[p % len(cells)]]
                quarter = float(np.spacing(v)) / 4
                for delta in (-quarter, 0.0, quarter):
                    out.append(float(v) - default + delta)
    return np.asarray(out)


@given(
    cols=stores, rows=row_lists, data=st.data(), key_chunk=key_chunks,
    plain=st.lists(
        st.floats(min_value=-150.0, max_value=60.0, allow_nan=False),
        max_size=12,
    ),
    picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_error_counts_equal_reference(cols, rows, data, key_chunk, plain, picks):
    vindex = data.draw(st.integers(min_value=1, max_value=cols.spec.n_voltages))
    offsets = np.concatenate([
        plain, np.arange(-40, 41, 8), _anchored_offsets(cols, rows, vindex, picks)
    ])
    up, down = _with_key_chunk(
        key_chunk,
        lambda: boundary_error_counts_batch(cols, rows, vindex, offsets),
    )
    assert up.shape == down.shape == (len(rows), len(offsets))
    for j, r in enumerate(rows):
        wl = cols.wordline_view(r)
        want_up, want_down = ref.boundary_error_counts(wl, vindex, offsets)
        assert np.array_equal(up[j], want_up)
        assert np.array_equal(down[j], want_down)
        assert np.array_equal(
            errors_at_offsets(wl, vindex, offsets), want_up + want_down
        )


@given(
    curves=st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=9),
                     min_size=n, max_size=n),
            min_size=1, max_size=5,
        )
    ),
    lo=st.integers(min_value=-60, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_window_rule_equals_scalar_walk(curves, lo):
    """Flat, tied and multi-dip curves: first argmin, tolerance run, and
    half-to-even rounding with no negative zero."""
    errors = np.asarray(curves, dtype=np.int64)
    offsets = np.arange(lo, lo + errors.shape[1])
    got = optimal._window_centres(errors, offsets)
    want = np.array(
        [ref.window_centre(e, offsets) for e in errors], dtype=np.float64
    )
    assert got.tobytes() == want.tobytes()


def test_tiny_wordline_has_empty_state_segments():
    """The 12-cell QLC store leaves states empty; the search still matches."""
    cols = _store("qlc", 12, 0.02, "aged")
    data_states = cols.states[:, cols.data_mask]
    for r in range(N_ROWS):
        assert len(np.unique(data_states[r])) < cols.spec.n_states
    want = np.stack([ref.optimal_offsets(v) for v in cols.iter_views()])
    assert optimal_offsets_batch(cols).tobytes() == want.tobytes()


def test_one_row_keys_follow_stress_changes(tiny_tlc, aged_stress):
    """Repeated one-row searches reuse the row's sorted keys only while
    the store keeps the same Vth: a stress change is searched afresh."""
    chip = FlashChip(tiny_tlc, seed=4)
    wl = chip.wordline(0, 2)
    for stress in (StressState(), aged_stress, StressState()):
        wl.set_stress(stress)
        for _ in range(2):
            assert optimal_offsets(wl).tobytes() == (
                ref.optimal_offsets(wl).tobytes()
            )
    view = chip.block_columns(0, range(3)).wordline_view(1)
    assert optimal_offsets(view).tobytes() == ref.optimal_offsets(view).tobytes()
