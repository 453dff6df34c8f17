"""Property tests: the page-read kernel decodes sensed parity exactly.

``BlockColumns`` reads a page by XORing the page's threshold comparisons
into one parity bit per cell and comparing it with a per-page target
(``stored bit != region_bits(p)[0]``).  Under the Gray code that equals
the region lookup it replaced: sense the region of every cell, gather
``region_bits(p)[regions]`` and compare with the stored bits.  These
tests hold the kernel to that reference on TLC, QLC and MLC, at every
page, with shared, per-row and unsorted offsets, row batches longer than
one ``CHUNK_ELEMS`` chunk and flash-read faults.  The reference reads a
fresh store of the same identity, whose read-noise streams are at the
same position, and replays the same fault decisions.  The kernel
compares in float32 against rounded-down thresholds; that rounding is
checked against float64 comparisons on its own at the bottom.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULTS, FaultPlan
from repro.faults.plan import FaultSpec
from repro.flash.block import BlockColumns, _float32_floor
from repro.flash.mechanisms import StressState
from repro.flash.spec import MLC_SPEC, QLC_SPEC, TLC_SPEC
from repro.flash.vth import CHUNK_ELEMS

CELLS = 8192
ROWS = 12
#: rows per kernel chunk at this width; a full-store batch spans two
CHUNK_ROWS = CHUNK_ELEMS // CELLS
SPECS = {
    kind: base.scaled(
        cells_per_wordline=CELLS, wordlines_per_layer=ROWS, layers=1,
        name_suffix="-kernel",
    )
    for kind, base in (("tlc", TLC_SPEC), ("qlc", QLC_SPEC), ("mlc", MLC_SPEC))
}
STRESS = StressState(pe_cycles=2000, retention_hours=2000.0)
#: a bitflip burst on some reads and one stuck wordline
FAULT_PLAN = FaultPlan(name="kernel-faults", specs=(
    FaultSpec("flash.bitflip", probability=0.5, magnitude=9.0),
    FaultSpec("flash.stuck_wordline", wordlines=(3,)),
))


@pytest.fixture(autouse=True)
def _no_faults():
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


def _store(kind):
    return BlockColumns(
        SPECS[kind], chip_seed=11, block=2, indices=range(ROWS),
        stress=STRESS,
    )


def _reference(store, p, dense, rows):
    """``(bits, mismatch, n_errors)`` by the region lookup on ``store``."""
    gray = store.spec.gray
    idx = gray.page_voltage_arrays[p]
    positions = store.spec.default_read_voltages[idx] + dense[..., idx]
    regions = store.sense_regions_batch(positions, rows)
    bits = gray.region_bits(p)[regions][:, store.data_mask]
    stored = gray.stored_bits(p, store.states[rows])[:, store.data_mask]
    mismatch = bits != stored
    n_err = mismatch.sum(axis=1)
    if FAULTS.active:
        for j, r in enumerate(rows):
            n_err[j] = FAULTS.injector.flash_read(
                store.block, store.indices[r], mismatch[j], int(n_err[j])
            )
    return bits, mismatch, n_err


def _offsets(spec, mode, rows, rng):
    """Dense offsets: shared or per-row, within a pitch or across several
    (which unsorts the read positions)."""
    scale = {"near": 0.3, "unsorted": 3.0}[mode[1]] * spec.state_pitch
    shape = (len(rows), spec.n_voltages) if mode[0] == "per-row" else (
        spec.n_voltages,
    )
    return rng.uniform(-scale, scale, size=shape)


def _run(kind, schedule, faults):
    """Read ``schedule`` on a kernel store and on a reference store."""
    spec = SPECS[kind]
    kernel, reference = _store(kind), _store(kind)
    rng = np.random.default_rng(len(schedule))
    reads = []
    for page, rows, mode, via_view in schedule:
        p = page % spec.pages_per_wordline
        dense = _offsets(spec, mode, rows, rng)
        if via_view and dense.ndim == 2:
            dense = dense[0]
        reads.append((p, list(rows), dense, via_view))
    results = []
    for store, side in ((kernel, "kernel"), (reference, "reference")):
        if faults:
            FAULTS.activate(FAULT_PLAN, seed=4)
        out = []
        for p, rows, dense, via_view in reads:
            if side == "reference":
                ref_rows = rows[:1] if via_view else rows
                bits, mismatch, n_err = _reference(store, p, dense, ref_rows)
                out.append((bits if via_view else None, mismatch, n_err))
            elif via_view:
                read = store.wordline_view(rows[0]).read_page(p, dense)
                out.append((read.bits[None], read.mismatch[None],
                            np.array([read.n_errors])))
            else:
                read = store.read_page_batch(p, dense, rows)
                out.append((None, read.mismatch, read.n_errors))
        results.append(out)
        FAULTS.deactivate()
    for got, want in zip(*results):
        if want[0] is not None:
            assert got[0].dtype == np.uint8
            np.testing.assert_array_equal(got[0], want[0])
        assert got[1].dtype == bool
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
    return results


row_lists = st.lists(
    st.integers(min_value=0, max_value=ROWS - 1), min_size=1, max_size=ROWS,
    unique=True,
)
modes = st.tuples(
    st.sampled_from(("shared", "per-row")), st.sampled_from(("near", "unsorted"))
)
schedules = st.lists(
    st.tuples(st.integers(0, 3), row_lists, modes, st.booleans()),
    min_size=1, max_size=4,
)


@given(
    kind=st.sampled_from(sorted(SPECS)), schedule=schedules,
    faults=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_kernel_equals_region_lookup(kind, schedule, faults):
    """Batched and one-row reads equal the region lookup, read for read."""
    _run(kind, schedule, faults)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_every_page_across_chunks_with_faults(kind):
    """Every page, all rows (two chunks) in a ragged order, per-row
    unsorted offsets, under bitflip and stuck-wordline faults."""
    assert ROWS > CHUNK_ROWS
    rows = [5, 0, 11, 3, 7, 1, 10, 2, 9, 4, 8, 6]
    schedule = [
        (p, rows, (mode, "unsorted"), False)
        for p in range(SPECS[kind].pages_per_wordline)
        for mode in ("shared", "per-row")
    ]
    results = _run(kind, schedule, faults=True)
    # the faults fired: the stuck wordline fails every read
    stuck = rows.index(3)
    assert all(read[2][stuck] > CELLS // 10 for read in results[0])


@given(
    positions=st.lists(
        st.floats(-1e6, 1e6) | st.floats(-1e6, 1e6, width=32),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=200, deadline=None)
def test_float32_floor_compares_like_float64(positions):
    """``_float32_floor(p)`` is the largest float32 at or below ``p``, so
    every float32 ``x`` compares with it as with ``p`` in float64."""
    p = np.asarray(positions, dtype=np.float64)
    low = _float32_floor(p)
    up = np.nextafter(low, np.float32(np.inf))
    assert low.dtype == np.float32
    assert np.all(low <= p) and np.all(up > p)
    below = np.nextafter(low, np.float32(-np.inf))
    for x in (low, up, below, p.astype(np.float32)):
        np.testing.assert_array_equal(x > p, x > low)
