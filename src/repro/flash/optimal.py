"""Ground-truth optimal read-voltage search.

The *optimal* read voltage of a boundary is the threshold position that
minimizes the number of misread cells between the two adjacent states
(Figure 2: "there exists one optimal voltage which will introduce the lowest
RBER").  On real chips the paper finds it by exhaustive read sweeps; the
simulator can do it exactly from the realized cell Vth values.

The search is noiseless: sensing noise is zero-mean, so the minimizer of the
noiseless error count is the minimizer of the expected noisy count; actual
reads at the optimum still include noise (which is why measured "optimal"
error counts fluctuate, as the paper notes in Section IV-B).

**The kernel.**  :func:`optimal_offsets_batch` searches every requested
boundary of many rows of a :class:`~repro.flash.block.BlockColumns` store
at once; the per-wordline functions are one-row calls of the same kernel.
Each cell gets one int64 sort key ``(state << 32) + 2**31 + m(vth)``,
where ``m`` reads the float32 bit pattern as an int32 and flips the
magnitude bits of negatives, which makes it order-preserving.  Sentinel
cells get a state past the last one, so they never count.  One in-place
sort per row orders the keys by state, then by Vth, and a single
``searchsorted`` per row answers every query: where each boundary's
upper state starts and, for each (voltage, offset), how many cells of
the lower and of the upper state lie below the threshold.  The centre of
each boundary's near-minimal window is then found with masks over all
curves at once.  Per-wordline callers often probe one row many times in
a row, so a store keeps the sorted keys of its latest one-row search,
and the answer of every one-row :func:`optimal_offsets`, until its Vth
changes.

**Exactness.**  A threshold is ``default + offset`` in float64, and a cell
lies below it when its float32 Vth compares ``<`` in float64.  For a
float32 ``v`` and the smallest float32 ``c >= t`` (the cast, stepped up
with ``nextafter`` where it rounded down), ``v < t`` holds exactly when
``v < c``, which holds exactly when ``m(v) < m(c)``.  The one exception
is zero: ``m`` orders ``-0.0`` below ``+0.0``, so a zero threshold is
queried as ``-0.0``, below which neither zero lies.  A left
``searchsorted`` of the query keys therefore counts what a float64
comparison against every cell counts.

**Bounded memory.**  Rows are searched in chunks of at most
``_KEY_CHUNK`` keys or query answers (whole rows, at least one), so the
transient int64 keys, their int32 scratch and the per-row error curves
stay around a megabyte whatever the batch size.

**Telemetry.**  A store-level call (:func:`optimal_offsets_batch`,
:func:`boundary_error_counts_batch`) records one ``batch_sense`` event with
``kernel="optimal"``; the per-wordline functions record nothing, like
every other read through a :class:`~repro.flash.wordline.Wordline`.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.flash.block import BlockColumns, _note_kernel
from repro.flash.wordline import Wordline

#: Row chunk size, in int64 elements per array: a chunk's sort keys (plus
#: their int32 scratch) and its query positions each stay within 512 KB.
_KEY_CHUNK = 1 << 16


def default_search_range(pitch: int) -> Tuple[int, int]:
    """Offset search window scaled to the state pitch (inclusive, exclusive).

    Heavily-aged low boundaries need corrections approaching a full state
    pitch, so the window reaches well below the default position.
    """
    return -int(0.85 * pitch), int(0.35 * pitch) + 1


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
def _ordered(values: np.ndarray) -> np.ndarray:
    """Order-preserving int32 image of float32 values (negatives flip)."""
    u = values.view(np.int32)
    m = u >> 31
    m &= 0x7FFFFFFF
    m ^= u
    return m


def _threshold_keys(thresholds: np.ndarray) -> np.ndarray:
    """Vth keys of the smallest float32 at or above each float64 threshold."""
    ceil = thresholds.astype(np.float32)
    low = ceil.astype(np.float64) < thresholds
    ceil[low] = np.nextafter(ceil[low], np.float32(np.inf))
    ceil[ceil == 0] = np.float32(-0.0)
    return _ordered(ceil).astype(np.int64) + (1 << 31)


def _sorted_keys(cols: BlockColumns, rows: Sequence[int]) -> np.ndarray:
    """Per-row sorted ``(state << 32) + 2**31 + m(vth)`` keys of ``rows``."""
    sel = cols._selector(list(rows))
    keys = cols.states[sel].astype(np.int64)
    keys[:, cols.sentinel_indices] = cols.spec.n_states
    keys <<= 32
    keys += _ordered(cols.vth[sel])
    keys += 1 << 31
    keys.sort(axis=1)
    return keys


def _row_keys(cols: BlockColumns, row: int) -> np.ndarray:
    """Sorted keys of one row, kept on the store for repeated searches."""
    if cols._search_keys is None or cols._search_keys[0] != row:
        cols._search_keys = (row, _sorted_keys(cols, [row]))
    return cols._search_keys[1]


def _boundary_counts(
    cols: BlockColumns,
    rows: Sequence[int],
    voltages: Sequence[int],
    offsets: np.ndarray,
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """Noiseless up/down counts of ``voltages`` at ``offsets``, by chunk.

    Yields ``(out, up, down)`` per row chunk: ``out`` slices the chunk's
    rows out of ``rows``, and ``up[j, i, k]`` counts data cells of the
    lower state of ``voltages[i]`` at or above ``default + offsets[k]``,
    ``down[j, i, k]`` those of the upper state below it.
    """
    spec = cols.spec
    vidx = np.asarray(voltages, dtype=np.int64) - 1
    if vidx.size and not (0 <= vidx.min() and vidx.max() < spec.n_voltages):
        raise IndexError(f"voltage index out of range in {list(voltages)}")
    thresholds = spec.default_read_voltages[vidx][:, None] + np.asarray(
        offsets, dtype=np.float64
    )
    # V_v separates S_{v-1} (key base vidx << 32) from S_v; the first
    # query of each voltage is where S_v's segment starts
    lo_base = vidx[:, None] << 32
    hi_base = lo_base + (1 << 32)
    vth_keys = _threshold_keys(thresholds)
    nv, n = len(vidx), vth_keys.size
    queries = np.concatenate([
        hi_base.ravel(), (lo_base + vth_keys).ravel(),
        (hi_base + vth_keys).ravel(),
    ])
    chunk = max(1, _KEY_CHUNK // max(cols.n_cells, len(queries)))
    for c0 in range(0, len(rows), chunk):
        sub = rows[c0 : c0 + chunk]
        keys = (
            _row_keys(cols, sub[0]) if len(rows) == 1
            else _sorted_keys(cols, sub)
        )
        pos = np.empty((len(sub), len(queries)), dtype=np.int64)
        for j, row_keys in enumerate(keys):
            pos[j] = row_keys.searchsorted(queries)
        split = pos[:, :nv, None]
        up = split - pos[:, nv : nv + n].reshape(-1, *vth_keys.shape)
        down = pos[:, nv + n :].reshape(-1, *vth_keys.shape) - split
        yield slice(c0, c0 + len(sub)), up, down


def _window_centres(errors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Centre of the near-minimal window of each error curve (last axis).

    The window is the connected run of offsets around the first argmin
    whose error count stays within ``max(2, 3 %)`` of the minimum; its
    centre rounds half to even, and ``+ 0.0`` keeps ``-0.5`` at ``+0.0``.
    """
    n = errors.shape[-1]
    best_at = errors.argmin(axis=-1)[..., None]
    best = np.take_along_axis(errors, best_at, axis=-1)
    outside = errors > best + np.maximum(2.0, 0.03 * best)
    k = np.arange(n)
    run_lo = np.where(outside & (k < best_at), k, -1).max(axis=-1) + 1
    run_hi = np.where(outside & (k > best_at), k, n).min(axis=-1) - 1
    return np.round((offsets[run_lo] + offsets[run_hi]) / 2.0) + 0.0


def _search_grid(
    spec, voltages: Optional[Sequence[int]]
) -> Tuple[list, np.ndarray]:
    """The requested voltages (default: all) and the offset grid."""
    if voltages is None:
        voltages = range(1, spec.n_voltages + 1)
    return list(voltages), np.arange(*default_search_range(spec.state_pitch))


def _optimal_rows(
    cols: BlockColumns,
    rows: Sequence[int],
    voltages: list,
    offsets: np.ndarray,
) -> np.ndarray:
    """Dense optimal offsets of ``rows`` (unrequested voltages stay 0)."""
    dense = np.zeros((len(rows), cols.spec.n_voltages), dtype=np.float64)
    if not voltages:
        return dense
    vidx = np.asarray(voltages, dtype=np.int64) - 1
    for out, up, down in _boundary_counts(cols, rows, voltages, offsets):
        dense[out, vidx] = _window_centres(up + down, offsets)
    return dense


def _error_counts_rows(
    cols: BlockColumns, rows: Sequence[int], vindex: int, offsets
) -> Tuple[np.ndarray, np.ndarray]:
    """``(up, down)`` counts of one voltage, ``(len(rows), len(offsets))``."""
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1)
    up = np.empty((len(rows), len(offsets)), dtype=np.int64)
    down = np.empty_like(up)
    for out, u, d in _boundary_counts(cols, rows, [vindex], offsets):
        up[out], down[out] = u[:, 0], d[:, 0]
    return up, down


# ----------------------------------------------------------------------
# store-level entry points (timed; each call records one batch_sense)
# ----------------------------------------------------------------------
def optimal_offsets_batch(
    cols: BlockColumns,
    rows: Optional[Sequence[int]] = None,
    voltages: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Optimal offsets of ``rows`` of a store, ``(len(rows), n_voltages)``.

    Row ``j`` equals ``optimal_offsets(cols.wordline_view(rows[j]),
    voltages)``; entries of voltages not requested are 0.
    """
    row_idx = cols._row_list(rows)
    voltages, offsets = _search_grid(cols.spec, voltages)
    t0 = time.perf_counter()
    dense = _optimal_rows(cols, row_idx, voltages, offsets)
    _note_kernel(
        "optimal", len(row_idx), cols.n_cells, len(voltages) * len(offsets),
        time.perf_counter() - t0,
    )
    return dense


def boundary_error_counts_batch(
    cols: BlockColumns,
    rows: Optional[Sequence[int]],
    vindex: int,
    offsets: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Noiseless up/down error counts of ``V_vindex``, ``(len(rows), K)``.

    ``up[j, k]`` counts data cells of the lower state sensed at or above
    the threshold ``default + offsets[k]``; ``down[j, k]`` counts the
    upper state sensed below it.  Offsets may be fractional or negative.
    """
    row_idx = cols._row_list(rows)
    t0 = time.perf_counter()
    up, down = _error_counts_rows(cols, row_idx, vindex, offsets)
    _note_kernel(
        "optimal", len(row_idx), cols.n_cells, up.shape[1],
        time.perf_counter() - t0,
    )
    return up, down


# ----------------------------------------------------------------------
# per-wordline entry points: one-row calls of the kernel (not noted)
# ----------------------------------------------------------------------
def errors_at_offsets(
    wordline: Wordline, vindex: int, offsets: Sequence[float]
) -> np.ndarray:
    """Adjacent-state error count of ``V_vindex`` at each candidate offset."""
    up, down = _error_counts_rows(
        wordline.store, [wordline.row], vindex, offsets
    )
    return up[0] + down[0]


def optimal_offset(wordline: Wordline, vindex: int) -> int:
    """Integer offset minimizing the boundary errors of one read voltage.

    Weakly-shifted boundaries have wide, flat error minima (a handful of
    errors over tens of steps), so a bare argmin is dominated by counting
    noise.  Like a real characterization sweep, we take the *center* of the
    near-minimal window — the connected run of offsets whose error count
    stays within a small tolerance of the minimum.
    """
    return int(optimal_offsets(wordline, [vindex])[vindex - 1])


def optimal_offsets(
    wordline: Wordline,
    voltages: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Optimal offsets for the requested voltages (default: all of them).

    Returns a dense array of length ``n_voltages``; entries for voltages not
    requested are 0.  The search is noiseless, so the store keeps each
    answer until the row's Vth changes (OPT asks once per failed page).
    """
    store = wordline.store
    key = (wordline.row, None if voltages is None else tuple(voltages))
    dense = store._optima.get(key)
    if dense is None:
        voltages, offsets = _search_grid(wordline.spec, voltages)
        dense = _optimal_rows(store, [wordline.row], voltages, offsets)[0]
        store._optima[key] = dense
    return dense.copy()

