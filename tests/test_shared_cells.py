"""The run-scoped cell memo and the chunk invariance it leans on.

Inside :func:`repro.flash.block.shared_cells`, a :class:`BlockColumns`
build reuses the read-only cells an earlier build of the same identity
drew and only re-synthesizes its Vth.  These tests pin that such a store
reads byte for byte like one built outside the scope, after any sequence
of restarts; that the shared cells cannot be written and programming
still detaches copy-on-write; that the grid runners close the scope when
they return or raise; and that Vth synthesis and reads do not depend on
how rows fall into kernel chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import block
from repro.flash.block import shared_cells
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import TLC_SPEC
from repro.flash.vth import CHUNK_ELEMS

SPEC = TLC_SPEC.scaled(
    cells_per_wordline=1024, wordlines_per_layer=1, layers=6,
    name_suffix="-shared",
)
STRESSES = (
    StressState(),
    StressState(pe_cycles=1500, retention_hours=1000.0),
    StressState(pe_cycles=5000, retention_hours=8760.0, temperature_c=55.0),
)
#: the drawn cells a hit shares with the store that drew them
CELL_ARRAYS = (
    "states", "prog_noise", "leak_rate", "tail_mag",
    "sentinel_indices", "sentinel_mask", "data_mask", "_data_idx",
)


def _store(rows, stress=StressState(), spec=SPEC, ratio=0.02):
    chip = FlashChip(spec, seed=5, sentinel_ratio=ratio)
    chip.set_block_stress(0, stress)
    return chip.block_columns(0, rows)


def _reads(cols, page, offsets):
    """One page read and one sentinel readout of every row."""
    batch = cols.read_page_batch(page, offsets)
    sentinels = cols.sentinel_readout_batch(0.0)
    return batch.n_errors, batch.mismatch, sentinels


row_subsets = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=6, unique=True
)
offset_vectors = st.lists(
    st.integers(min_value=-30, max_value=10),
    min_size=SPEC.n_voltages, max_size=SPEC.n_voltages,
)


@given(
    rows=row_subsets,
    restarts=st.lists(st.sampled_from(STRESSES), min_size=1, max_size=3),
    page=st.integers(min_value=0, max_value=SPEC.pages_per_wordline - 1),
    offsets=offset_vectors,
)
@settings(max_examples=20, deadline=None)
def test_shared_build_reads_like_a_fresh_one(rows, restarts, page, offsets):
    """A second build inside the scope shares the first one's cell
    arrays, and after every restart it reads exactly like a store built
    outside the scope at that stress; the first store is untouched."""
    dense = np.asarray(offsets, dtype=np.float64)
    with shared_cells():
        first = _store(rows)
        second = _store(rows)
        for name in CELL_ARRAYS:
            assert getattr(second, name) is getattr(first, name)
        assert second.modifiers is first.modifiers
        for stress in restarts:
            second.restart(stress)
            fresh = _store(rows, stress)
            assert np.array_equal(second.vth, fresh.vth)
            got, want = _reads(second, page, dense), _reads(fresh, page, dense)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
    unshared = _store(rows)
    assert np.array_equal(first.vth, unshared.vth)
    assert np.array_equal(
        first.read_page_batch(page, dense).mismatch,
        unshared.read_page_batch(page, dense).mismatch,
    )


def test_only_one_identity_shares():
    """Rows, sentinel ratio, block and chip seed are each part of the key."""
    with shared_cells():
        base = _store([0, 1])
        assert _store([0, 1]).states is base.states
        assert _store([1, 0]).states is not base.states
        assert _store([0, 1], ratio=0.01).states is not base.states
        other_chip = FlashChip(SPEC, seed=6, sentinel_ratio=0.02)
        assert other_chip.block_columns(0, [0, 1]).states is not base.states
        assert FlashChip(SPEC, seed=5, sentinel_ratio=0.02).block_columns(
            1, [0, 1]
        ).states is not base.states
        with shared_cells():  # a nested scope shares the outer memo
            assert _store([0, 1]).states is base.states
        assert block._SHARED_CELLS is not None
    assert block._SHARED_CELLS is None
    assert _store([0, 1]).states is not base.states


def test_shared_cells_are_read_only_and_programming_detaches():
    """Writing a drawn cell array in place raises; ``program_pages`` on a
    view moves that row to a private store and the shared cells, and the
    memo, keep the drawn data."""
    with shared_cells():
        cols = _store(range(4))
        for name in CELL_ARRAYS:
            array = getattr(cols, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        drawn = cols.states.copy()
        view = cols.wordline_view(2)
        zeros = np.zeros(view.n_data_cells, dtype=np.uint8)
        view.program_pages({p: zeros for p in range(SPEC.pages_per_wordline)})
        assert view.store is not cols and view.store.n_wordlines == 1
        for p in range(SPEC.pages_per_wordline):
            assert not view.stored_page_bits(p).any()
        assert np.array_equal(cols.states, drawn)
        again = _store(range(4))
        assert again.states is cols.states
    assert np.array_equal(_store(range(4)).states, drawn)


def _tournament_config(**overrides):
    from repro.tournament import TournamentConfig

    params = dict(
        kind="tlc", policies=("current-flash",), ages=("mid", "old"),
        cells_per_wordline=8192, wordline_step=32, requests_per_cell=40,
    )
    params.update(overrides)
    return TournamentConfig(**params)


def _campaign_config():
    from repro.campaign import CampaignConfig

    return CampaignConfig(
        kind="tlc", policies=("current-flash",), phases=2,
        requests_per_phase=40, cells_per_wordline=8192, wordline_step=32,
    )


def _scope_spy(monkeypatch, module):
    """Record, at the model fit and at each draw, whether a scope is open."""
    seen = {"fit": [], "draw": []}
    draw = block._draw_cells

    def spy_draw(*args):
        seen["draw"].append(block._SHARED_CELLS is not None)
        return draw(*args)

    def spy_model(*args):
        seen["fit"].append(block._SHARED_CELLS is not None)

    monkeypatch.setattr(block, "_draw_cells", spy_draw)
    monkeypatch.setattr(module, "tournament_model", spy_model)
    return seen


def test_tournament_scope_covers_the_grid_and_closes(monkeypatch):
    """The scope opens around the grid only, not the model fit; the two
    ages of a policy draw the measured block once; nothing outlives the
    call, also when a unit raises."""
    from repro.tournament import run_tournament, runner

    seen = _scope_spy(monkeypatch, runner)
    run_tournament(_tournament_config(), seed=1)
    assert seen["fit"] == [False]
    assert seen["draw"] == [True]
    assert block._SHARED_CELLS is None

    def boom(*args):
        assert block._SHARED_CELLS is not None
        raise RuntimeError("unit failed")

    monkeypatch.setattr(runner, "measure_cell_profile", boom)
    with pytest.raises(RuntimeError, match="unit failed"):
        run_tournament(_tournament_config(ages=("mid",)), seed=1)
    assert block._SHARED_CELLS is None


def test_campaign_scope_covers_the_grid_and_closes(monkeypatch):
    """Every phase of a campaign cell re-measures the same block: one
    draw; the scope is closed after the call and after a failing unit."""
    from repro.campaign import run_campaign, runner

    seen = _scope_spy(monkeypatch, runner)
    run_campaign(_campaign_config(), seed=1)
    assert seen["fit"] == [False]
    assert seen["draw"] == [True]
    assert block._SHARED_CELLS is None

    def boom(*args, **kwargs):
        assert block._SHARED_CELLS is not None
        raise RuntimeError("unit failed")

    monkeypatch.setattr(runner, "measure_stress_profile", boom)
    with pytest.raises(RuntimeError, match="unit failed"):
        run_campaign(_campaign_config(), seed=1)
    assert block._SHARED_CELLS is None


@pytest.mark.parametrize("cells", [8192, 65536])
def test_store_equals_one_row_stores_across_chunks(cells):
    """Synthesis and sensing chunk rows by ``CHUNK_ELEMS``: a ten-row
    store (several rows per chunk at 8,192 cells, one at 65,536) has the
    Vth and reads of ten one-row stores."""
    spec = TLC_SPEC.scaled(
        cells_per_wordline=cells, wordlines_per_layer=1, layers=10,
        name_suffix="-chunks",
    )
    assert CHUNK_ELEMS // cells < 10
    stress = StressState(pe_cycles=3000, retention_hours=4000.0)
    rows = range(10)
    cols = _store(rows, stress, spec)
    singles = [_store([r], stress, spec) for r in rows]
    assert np.array_equal(cols.vth, np.vstack([s.vth for s in singles]))
    for page in range(spec.pages_per_wordline):
        batch = cols.read_page_batch(page)
        for r, single in enumerate(singles):
            one = single.read_page_batch(page)
            assert batch.n_errors[r] == one.n_errors[0]
            assert np.array_equal(batch.mismatch[r], one.mismatch[0])
