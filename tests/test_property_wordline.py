"""Property-based tests of wordline read-path invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.mechanisms import StressState
from repro.flash.spec import TLC_SPEC
from repro.flash.optimal import boundary_error_counts_batch
from repro.flash.wordline import Wordline

_SPEC = TLC_SPEC.scaled(
    cells_per_wordline=4096, wordlines_per_layer=1, layers=4, name_suffix="-prop"
)


def make_wordline(seed: int, pe: int, hours: float) -> Wordline:
    return Wordline(
        _SPEC,
        chip_seed=seed,
        block=0,
        index=seed % 4,
        stress=StressState(pe_cycles=pe, retention_hours=hours),
    )


def twin(wl: Wordline) -> Wordline:
    """A fresh copy of ``wl``: same cells, read-noise stream from its start."""
    return Wordline(wl.spec, wl.chip_seed, wl.block, wl.index, stress=wl.stress)


wl_strategy = st.builds(
    make_wordline,
    seed=st.integers(min_value=0, max_value=50),
    pe=st.sampled_from([0, 1000, 5000]),
    hours=st.sampled_from([0.0, 720.0, 8760.0]),
)


@given(wl=wl_strategy)
@settings(max_examples=25, deadline=None)
def test_rber_bounded(wl):
    for page in wl.spec.gray.page_names:
        rber = wl.store.read_page_batch(page, rows=[wl.row]).rber[0]
        assert 0.0 <= rber <= 1.0


@given(wl=wl_strategy, offset=st.integers(min_value=-100, max_value=50))
@settings(max_examples=25, deadline=None)
def test_boundary_counts_are_complementary_monotone(wl, offset):
    """up errors never increase, down errors never decrease with position."""
    up, down = boundary_error_counts_batch(
        wl.store, [wl.row], 4, np.array([offset, offset + 10])
    )
    up, down = up[0], down[0]
    assert up[1] <= up[0]
    assert down[1] >= down[0]


@given(wl=wl_strategy)
@settings(max_examples=20, deadline=None)
def test_per_voltage_errors_conserve_crossings(wl):
    # the same noise draws as wl's next read
    est = twin(wl).store.read_states_batch()[0]
    data = wl.data_mask
    total = np.abs(est[data].astype(int) - wl.states[data].astype(int)).sum()
    per_v = wl.store.per_voltage_errors_batch(rows=[wl.row])[0]
    assert per_v.sum() == total


@given(wl=wl_strategy)
@settings(max_examples=20, deadline=None)
def test_sentinel_counts_bounded_by_population(wl):
    readout = wl.sentinel_readout(0.0)
    half = wl.n_sentinels // 2 + 1
    assert readout.up_errors <= half
    assert readout.down_errors <= half


@given(
    wl=wl_strategy,
    a=st.integers(min_value=-60, max_value=20),
    b=st.integers(min_value=-60, max_value=20),
)
@settings(max_examples=20, deadline=None)
def test_state_changes_grow_with_window(wl, a, b):
    """A wider single-voltage window never changes fewer cells (noiseless
    comparison via ordering of window nesting)."""
    lo, hi = min(a, b), max(a, b)
    pos = wl.spec.read_voltage(4)
    inner = twin(wl).store.state_change_counts_batch(
        pos + lo, pos + (lo + hi) / 2
    )[0][0]
    outer = twin(wl).store.state_change_counts_batch(pos + lo, pos + hi)[0][0]
    # same start, wider end: the outer window covers the inner one up to
    # sensing noise; allow a small noise margin
    assert outer >= inner - wl.n_cells * 0.01
