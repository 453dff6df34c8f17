"""Columnar (struct-of-arrays) storage: the one read path of the model.

:class:`BlockColumns` holds a set of wordlines of one block as dense 2D
arrays — states, latents and Vth with wordlines as rows — so a whole
block's synthesize / sense / decode / ECC pass is a handful of numpy
kernels instead of a python loop.  Every :class:`Wordline` is a
``(store, row)`` handle: a standalone wordline owns a one-row store,
``wordline_view(row)`` shares a multi-row one (see docs/PERFORMANCE.md
for the layout, live views, copy-on-write and the telemetry rule).

Determinism contract: each row owns its wordline's ``data``/``latent``/
``readnoise`` seed-tree generators, and the kernels batch only the
*arithmetic*, never the RNG consumption order.  Reading rows ``[a, b,
c]`` in one call equals reading them one at a time, in that order,
through one-row stores: results are invariant to batch size.

Memory per cell: int16 states + 3x float32 latents + float32 vth = 18
bytes, with no per-wordline object overhead — a full paper-scale block
(768 x 148736 cells) fits in ~2 GB.  Kernels chunk rows internally so
their working sets stay cache-sized on memory-bandwidth-starved hosts.

Drawn cells are shared only inside a :func:`shared_cells` scope: there,
every store of one identity reuses the first one's read-only cell arrays
and only re-synthesizes its Vth (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.faults import FAULTS
from repro.flash.mechanisms import StressState
from repro.flash.spec import FlashSpec
from repro.flash.variation import BlockVariation, WordlineModifiers
from repro.flash.vth import CHUNK_ELEMS, sample_latents, synthesize_vth_batch
from repro.flash.wordline import (
    OffsetsLike,
    SentinelReadout,
    Wordline,
    make_offsets,
)
from repro.obs import OBS
from repro.util.rng import derive_rng


class _Cells(NamedTuple):
    """The drawn cells of one store identity; nothing here depends on
    stress, and every array is read-only."""

    modifiers: Tuple[WordlineModifiers, ...]
    states: np.ndarray  # (rows, cells) int16
    prog_noise: np.ndarray  # (rows, cells) float32
    leak_rate: np.ndarray  # (rows, cells) float32
    tail_mag: np.ndarray  # (rows, cells) float32
    sentinel_indices: np.ndarray
    sentinel_mask: np.ndarray
    data_mask: np.ndarray
    data_idx: np.ndarray


#: ``(spec, chip_seed, block, indices, sentinel_ratio)`` -> drawn cells,
#: inside a :func:`shared_cells` scope; ``None`` outside one
_SHARED_CELLS: Optional[Dict[tuple, _Cells]] = None


@contextmanager
def shared_cells() -> Iterator[None]:
    """Draw each store identity's cells once while the scope is open.

    Inside the scope, :class:`BlockColumns` keeps the cells it draws, keyed
    by ``(spec, chip_seed, block, indices, sentinel_ratio)``, and a later
    build of the same identity reuses them and only synthesizes its Vth:
    a grid that measures one block at several policies and ages draws
    the block once.  A nested scope shares the outer one's cells.  The
    scope holds its cells until it closes, so open it only around work
    that rebuilds the same stores: a forked engine worker inherits the
    open, empty scope and fills its own, and the parent keeps nothing.
    """
    global _SHARED_CELLS
    outer = _SHARED_CELLS
    if outer is None:
        _SHARED_CELLS = {}
    try:
        yield
    finally:
        _SHARED_CELLS = outer


def _draw_cells(
    spec: FlashSpec,
    chip_seed: int,
    block: int,
    indices: Tuple[int, ...],
    sentinel_ratio: float,
) -> _Cells:
    """Draw the cells of ``indices``, each row from its wordline's own
    ``data``/``latent`` streams (in row order, which cannot matter: the
    streams are independent), plus the shared sentinel geometry and the
    rows' modifiers from the block's variation."""
    n = spec.cells_per_wordline
    # shared sentinel geometry: the reserved columns and their
    # alternating states are identical for every wordline of a spec
    # (Section III-B: S3/S4 for TLC, S7/S8 for QLC, spread evenly
    # along the bitline axis)
    if sentinel_ratio > 0.0:
        n_sent = spec.sentinel_cells(sentinel_ratio)
        sentinel_indices = np.linspace(0, n - 1, n_sent).astype(np.int64)
        s_low, s_high = spec.gray.adjacent_states(spec.sentinel_voltage)
        sentinel_states = np.where(
            np.arange(n_sent) % 2 == 0, s_low, s_high
        ).astype(np.int16)
    else:
        sentinel_indices = np.empty(0, dtype=np.int64)
        sentinel_states = np.empty(0, dtype=np.int16)
    sentinel_mask = np.zeros(n, dtype=bool)
    sentinel_mask[sentinel_indices] = True
    data_mask = ~sentinel_mask

    w = len(indices)
    states = np.empty((w, n), dtype=np.int16)
    prog_noise = np.empty((w, n), dtype=np.float32)
    leak_rate = np.empty((w, n), dtype=np.float32)
    tail_mag = np.empty((w, n), dtype=np.float32)
    for row, index in enumerate(indices):
        data_rng = derive_rng(chip_seed, "data", block, index)
        states[row] = data_rng.integers(0, spec.n_states, size=n).astype(
            np.int16
        )
        states[row, sentinel_indices] = sentinel_states
        latent_rng = derive_rng(chip_seed, "latent", block, index)
        lat = sample_latents(spec, n, latent_rng)
        prog_noise[row] = lat.prog_noise
        leak_rate[row] = lat.leak_rate
        tail_mag[row] = lat.tail_mag
    variation = BlockVariation(spec, chip_seed, block)
    cells = _Cells(
        tuple(variation.wordline_modifiers(i) for i in indices),
        states, prog_noise, leak_rate, tail_mag,
        sentinel_indices, sentinel_mask, data_mask, np.flatnonzero(data_mask),
    )
    for array in cells[1:]:
        array.flags.writeable = False
    return cells


def _float32_floor(positions: np.ndarray) -> np.ndarray:
    """The largest float32 at or below each float64 position.

    For every float32 ``x``, ``x > p`` equals ``x > _float32_floor(p)``:
    ``p`` either is a float32 or lies strictly between its floor and the
    next float32 up, and no float32 lies in between.  So the sensed
    float32 Vth can be compared in float32, without promoting every cell
    to float64, and decide exactly as against ``p``.
    """
    low = positions.astype(np.float32)
    above = low > positions
    low[above] = np.nextafter(low[above], np.float32(-np.inf))
    return low


def _note_kernel(
    kernel: str, wordlines: int, cells: int, positions: int, seconds: float
) -> None:
    """Record one batched-kernel invocation (metrics + ``batch_sense``)."""
    if not OBS.enabled:
        return
    if OBS.metrics.enabled:
        OBS.metrics.counter(
            "repro_flash_batch_calls_total",
            help="batched flash kernel invocations",
            kernel=kernel,
        ).inc()
        OBS.metrics.histogram(
            "repro_flash_batch_wordlines",
            help="wordlines (rows) processed per batched kernel call",
            edges=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            kernel=kernel,
        ).observe(float(wordlines))
        OBS.metrics.histogram(
            "repro_flash_batch_kernel_seconds",
            help="wall-clock seconds per batched kernel call",
            edges=(1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
            kernel=kernel,
        ).observe(seconds)
    if OBS.tracer.enabled:
        OBS.tracer.emit(
            "batch_sense",
            kernel=kernel,
            wordlines=wordlines,
            cells=cells,
            positions=positions,
            seconds=seconds,
        )


@dataclass(frozen=True)
class BatchReadResult:
    """Outcome of one batched page read (one row per wordline)."""

    page: int
    n_errors: np.ndarray  # (rows,) bit errors on data cells
    n_data_cells: int
    offsets: np.ndarray  # dense (n_voltages,) or per-row (rows, n_voltages)
    mismatch: np.ndarray  # (rows, n_data_cells) per-data-cell error mask

    @property
    def rber(self) -> np.ndarray:
        return self.n_errors / self.n_data_cells

    def __len__(self) -> int:
        return len(self.n_errors)


class BlockColumns:
    """Struct-of-arrays storage for ``indices`` wordlines of one block.

    Construction draws each row's states and latents from that wordline's
    own seed-tree streams — or, inside a :func:`shared_cells` scope,
    reuses the cells an earlier store of the same identity drew — then
    synthesizes all Vth rows with one batched kernel.  The drawn cells
    are read-only and never change: programming a wordline moves it to a
    new private store, and :meth:`restart` re-stresses the same cells as
    if freshly built.
    """

    def __init__(
        self,
        spec: FlashSpec,
        chip_seed: int,
        block: int,
        indices: Optional[Sequence[int]] = None,
        sentinel_ratio: float = 0.002,
        stress: Optional[StressState] = None,
    ) -> None:
        self.spec = spec
        self.chip_seed = chip_seed
        self.block = block
        if indices is None:
            indices = range(spec.wordlines_per_block)
        self.indices: Tuple[int, ...] = tuple(int(i) for i in indices)
        self.sentinel_ratio = float(sentinel_ratio)
        key = (spec, chip_seed, block, self.indices, self.sentinel_ratio)
        cells = None if _SHARED_CELLS is None else _SHARED_CELLS.get(key)
        if cells is None:
            cells = _draw_cells(*key)
            if _SHARED_CELLS is not None:
                _SHARED_CELLS[key] = cells
        (
            self.modifiers, self.states, self.prog_noise, self.leak_rate,
            self.tail_mag, self.sentinel_indices, self.sentinel_mask,
            self.data_mask, self._data_idx,
        ) = cells
        self.restart(stress or StressState())

    def restart(self, stress: StressState) -> None:
        """Make the store exactly a fresh build of its cells at ``stress``.

        Every row gets its ``readnoise`` stream back at the seed-tree
        origin, the memos are emptied and all rows are synthesized under
        ``stress``.  States, latents and modifiers do not depend on
        stress, so nothing is redrawn: a multi-stress sweep builds each
        sub-batch once and restarts it per stress.
        """
        self._read_rngs: List[np.random.Generator] = [
            derive_rng(self.chip_seed, "readnoise", self.block, index)
            for index in self.indices
        ]
        self.vth = None  # drop the old Vth first: no two copies at peak
        self._reset(stress)

    def _reset(self, stress: StressState) -> None:
        """Empty every memo and synthesize all rows under ``stress``."""
        #: page -> decode target of all rows (see :meth:`_page_target`);
        #: emptied before synthesis, so it never adds to the Vth peak
        self._targets: Dict[int, np.ndarray] = {}
        #: ``(row, sorted keys)`` of the latest one-row ground-truth search
        #: and each one-row search's answer (:mod:`repro.flash.optimal`),
        #: both dropped whenever the Vth changes
        self._search_keys: Optional[Tuple[int, np.ndarray]] = None
        self._optima: Dict[tuple, np.ndarray] = {}
        self.stress = stress
        t0 = time.perf_counter()
        self.vth = synthesize_vth_batch(
            self.spec, self.states, stress, self.modifiers,
            self.prog_noise, self.leak_rate, self.tail_mag,
        )
        _note_kernel(
            "synthesize", self.n_wordlines, self.n_cells, 0,
            time.perf_counter() - t0,
        )

    def _row_store(
        self,
        row: int,
        states: Optional[np.ndarray] = None,
        stress: Optional[StressState] = None,
    ) -> "BlockColumns":
        """A private one-row store of row ``row``.

        The copy-on-write target of a wordline: same identity, modifiers
        and latents, the given ``states`` (default: the row's), synthesized
        under ``stress`` (default: this store's).  The cell arrays are
        read-only views of this store's (programmed ``states`` are marked
        read-only), and it keeps sharing the row's read-noise generator,
        so the wordline's reads stay one stream.  Built without
        ``__init__``: nothing is redrawn.
        """
        store = copy.copy(self)  # shares spec and sentinel geometry
        sel = slice(row, row + 1)
        store.indices = self.indices[sel]
        store.modifiers = self.modifiers[sel]
        if states is None:
            store.states = self.states[sel]
        else:
            store.states = states.reshape(1, -1)
            store.states.flags.writeable = False
        store.prog_noise = self.prog_noise[sel]
        store.leak_rate = self.leak_rate[sel]
        store.tail_mag = self.tail_mag[sel]
        store._read_rngs = self._read_rngs[sel]
        store._reset(self.stress if stress is None else stress)
        return store

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_wordlines(self) -> int:
        return len(self.indices)

    @property
    def n_cells(self) -> int:
        return self.spec.cells_per_wordline

    @property
    def n_sentinels(self) -> int:
        return len(self.sentinel_indices)

    @property
    def n_data_cells(self) -> int:
        return self.n_cells - self.n_sentinels

    def read_rng(self, row: int) -> np.random.Generator:
        """Row ``row``'s read-noise generator (shared with its views)."""
        return self._read_rngs[row]

    # ------------------------------------------------------------------
    # per-wordline views
    # ------------------------------------------------------------------
    def wordline_view(self, row: int) -> Wordline:
        """A :class:`Wordline` handle on this store's row ``row``.

        The view reads the row live — states, Vth, stress and the
        read-noise generator — so reads through it and batched kernels
        over the same row consume one stream, and :meth:`restart` on the
        store moves its views too.  ``program_pages`` or ``set_stress``
        on the view moves it into a private one-row store; the shared
        columns never change.
        """
        return Wordline._view(self, row)

    def iter_views(self):
        for row in range(self.n_wordlines):
            yield self.wordline_view(row)

    # ------------------------------------------------------------------
    # kernel arithmetic, shared by the batched and the per-row paths
    # ------------------------------------------------------------------
    def _noise_rows(self, rows: Sequence[int], n: int) -> np.ndarray:
        """Fresh float32 comparator noise, ``n`` values per row.

        Each row draws from its own generator, in row order (irrelevant
        to the values: the streams are independent); the scale and the
        float64 -> float32 cast are elementwise, so applying them to the
        stacked draws equals applying them row by row.
        """
        sigma = self.spec.read_noise_sigma
        if sigma <= 0.0:
            return np.zeros((len(rows), n), dtype=np.float32)
        draws = np.empty((len(rows), n), dtype=np.float64)
        for j, r in enumerate(rows):
            self._read_rngs[r].standard_normal(out=draws[j])
        draws *= sigma
        return draws.astype(np.float32)

    def _sensed(self, rows: Sequence[int], sel) -> np.ndarray:
        """Noisy sensed Vth of ``rows`` (``sel`` indexes the same rows)."""
        sensed = self._noise_rows(rows, self.n_cells)
        sensed += self.vth[sel]  # float32 add
        return sensed

    def _regions(
        self,
        rows: Sequence[int],
        sel,
        positions: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Region index of every cell of ``rows`` w.r.t. ``positions``.

        ``positions`` is one vector ``(V,)`` or a per-row matrix
        ``(len(rows), V)``, in any order.  Counting ``sensed > p`` over the
        positions equals ``searchsorted(sorted(positions), sensed,
        side="left")`` but is several times faster at these position
        counts; each comparison promotes the float32 sensed values to
        float64 exactly as searchsorted does.  Writes into ``out`` when
        given.
        """
        sensed = self._sensed(rows, sel)
        if out is None:
            regions = np.zeros(sensed.shape, dtype=np.int16)
        else:
            regions = out
            regions.fill(0)
        cmp = np.empty(sensed.shape, dtype=bool)
        for p in self._columns(positions):
            np.greater(sensed, p, out=cmp)
            regions += cmp
        return regions

    @staticmethod
    def _columns(positions: np.ndarray):
        """The thresholds of ``positions`` one voltage at a time: scalars of
        a shared ``(V,)`` vector, ``(rows, 1)`` columns of a per-row one."""
        if positions.ndim == 2:
            return [positions[:, v : v + 1] for v in range(positions.shape[1])]
        return positions

    def _page_target(self, p: int) -> np.ndarray:
        """``stored bit != region_bits(p)[0]`` of every cell, memoized per
        page: the sensed parity a correct read of page ``p`` gives each
        cell (see :meth:`_page_mismatch`)."""
        target = self._targets.get(p)
        if target is None:
            gray = self.spec.gray
            table = gray.state_bits[:, p] != gray.region_bits(p)[0]
            target = self._targets[p] = np.empty(self.states.shape, bool)
            # take casts its int16 indices to one intp copy: chunk the
            # rows so that copy stays cache-sized instead of 8 B per cell
            chunk = max(1, CHUNK_ELEMS // max(self.n_cells, 1))
            for c0 in range(0, self.n_wordlines, chunk):
                rows = slice(c0, c0 + chunk)
                table.take(self.states[rows], out=target[rows])
        return target

    def _page_mismatch(
        self, p: int, rows: List[int], positions: np.ndarray
    ) -> np.ndarray:
        """Data-cell mismatch mask of page ``p`` read at ``positions``.

        The page-read kernel.  Under the Gray code page ``p``'s bit
        toggles at exactly its own read voltages, so a cell's read bit is
        ``region_bits(p)[0]`` XOR the parity of the thresholds it is
        sensed above — the region lookup bit for bit, in any position
        order.  Each chunk of rows is sensed once (noise in row order) and
        its comparisons are XORed onto the target: the data columns of
        the result are the mismatches.  ``positions`` is shared ``(V,)``
        or per-row ``(len(rows), V)``; the comparisons run in float32
        against :func:`_float32_floor` of them, which decides alike.
        """
        positions = _float32_floor(positions)
        mismatch = np.empty((len(rows), self.n_data_cells), dtype=bool)
        target = self._page_target(p)
        chunk = max(1, CHUNK_ELEMS // max(self.n_cells, 1))
        for c0 in range(0, len(rows), chunk):
            sub = rows[c0 : c0 + chunk]
            sel = self._selector(sub)
            pos = positions[c0 : c0 + chunk] if positions.ndim == 2 else positions
            sensed = self._sensed(sub, sel)
            parity = target[sel].copy()
            cmp = np.empty_like(parity)
            for threshold in self._columns(pos):
                np.greater(sensed, threshold, out=cmp)
                parity ^= cmp
            # an integer take: a boolean column mask on a 2-D array is
            # several times slower
            np.take(
                parity, self._data_idx, axis=1,
                out=mismatch[c0 : c0 + len(sub)],
            )
        return mismatch

    def _page_errors(
        self, rows: Sequence[int], mismatch: np.ndarray
    ) -> np.ndarray:
        """Error count per row of a page read's mismatch mask.

        Fault injection (``FAULTS.flash_read``) applies per row, in row
        order, to that row's mismatch mask in place.
        """
        # per row: count_nonzero along an axis is several times slower
        n_err = np.fromiter(
            (np.count_nonzero(row) for row in mismatch), np.int64,
            len(mismatch),
        )
        if FAULTS.active:
            for j, r in enumerate(rows):
                n_err[j] = FAULTS.injector.flash_read(
                    self.block, self.indices[r], mismatch[j], int(n_err[j])
                )
        return n_err

    def _sentinel_readouts(
        self, rows: Sequence[int], sel, offset: float
    ) -> List[SentinelReadout]:
        """Sentinel up/down errors of ``rows`` at ``offset``.

        One noise draw of ``n_sentinels`` values per row.  Up errors are
        low-state sentinels sensed at or above the sentinel voltage, down
        errors high-state sentinels sensed below it.  The threshold is
        rounded to float32, the precision of the sensed Vth.
        """
        if self.n_sentinels == 0:
            raise RuntimeError("wordline has no sentinel cells")
        spec = self.spec
        pos = np.float32(spec.read_voltage(spec.sentinel_voltage, offset))
        idx = self.sentinel_indices
        sensed = self.vth[sel][:, idx] + self._noise_rows(rows, len(idx))
        high = sensed >= pos
        s_low, s_high = spec.gray.adjacent_states(spec.sentinel_voltage)
        sent_states = self.states[sel][:, idx]
        up = np.count_nonzero((sent_states == s_low) & high, axis=1)
        down = np.count_nonzero((sent_states == s_high) & ~high, axis=1)
        return [
            SentinelReadout(int(u), int(d), self.n_sentinels)
            for u, d in zip(up, down)
        ]

    def _state_changes(
        self, rows: Sequence[int], sel, position_a, position_b
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(NCa, NCs)`` of ``rows`` between single-voltage reads at
        ``position_a``, then ``position_b`` (each a scalar or one per row).

        A threshold is rounded to float32, the precision of the sensed
        Vth (as comparing against a Python float does).
        """
        def read(position) -> np.ndarray:
            pos = np.asarray(position, dtype=np.float64).reshape(-1, 1)
            return self._sensed(rows, sel) >= pos.astype(np.float32)

        changed = read(position_a) != read(position_b)
        return (
            np.count_nonzero(changed & self.data_mask, axis=1),
            np.count_nonzero(changed & self.sentinel_mask, axis=1),
        )

    @staticmethod
    def _selector(rows: List[int]) -> Union[slice, List[int]]:
        """A basic slice for contiguous row runs (view, not fancy copy)."""
        if rows and rows == list(range(rows[0], rows[0] + len(rows))):
            return slice(rows[0], rows[0] + len(rows))
        return rows

    # ------------------------------------------------------------------
    # per-row entry points (what a Wordline handle calls; not noted)
    # ------------------------------------------------------------------
    def _read_page_row(
        self, row: int, p: int, dense: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One row's page read at dense offsets: data-cell bits, mismatch
        mask, errors."""
        mismatch = self._page_mismatch(p, [row], self._page_positions(p, dense))
        # the read bits, taken before any fault lands on the mask
        bits = mismatch[0] ^ self._page_target(p)[row, self._data_idx]
        bits ^= bool(self.spec.gray.region_bits(p)[0])
        n_err = self._page_errors([row], mismatch)
        return bits.view(np.uint8), mismatch[0], int(n_err[0])

    def _sentinel_row(self, row: int, offset: float) -> SentinelReadout:
        return self._sentinel_readouts([row], slice(row, row + 1), offset)[0]

    def _state_change_row(
        self, row: int, position_a: float, position_b: float
    ) -> Tuple[int, int]:
        nca, ncs = self._state_changes(
            [row], slice(row, row + 1), position_a, position_b
        )
        return int(nca[0]), int(ncs[0])

    # ------------------------------------------------------------------
    # batched kernels (timed; each call records one batch_sense event)
    # ------------------------------------------------------------------
    def _page_positions(self, p: int, dense: np.ndarray) -> np.ndarray:
        """Thresholds of page ``p`` at dense (or per-row dense) offsets."""
        idx = self.spec.gray.page_voltage_arrays[p]
        return self.spec.default_read_voltages[idx] + dense[..., idx]

    def _row_list(self, rows: Optional[Sequence[int]]) -> List[int]:
        return list(range(self.n_wordlines)) if rows is None else list(rows)

    @staticmethod
    def _check_rows(positions: np.ndarray, rows: List[int]) -> np.ndarray:
        """``positions``, refused if per-row with a row count not ``rows``'."""
        if positions.ndim == 2 and positions.shape[0] != len(rows):
            raise ValueError(
                f"per-row positions want {len(rows)} rows, "
                f"got {positions.shape[0]}"
            )
        return positions

    def _dense_offsets(
        self, offsets: Union[OffsetsLike, np.ndarray]
    ) -> np.ndarray:
        """Dense float64 offsets, shared ``(V,)`` or per-row ``(rows, V)``."""
        n_v = self.spec.n_voltages
        if isinstance(offsets, np.ndarray) and offsets.ndim == 2:
            if offsets.shape[1] != n_v:
                raise ValueError(f"per-row offsets must have {n_v} columns")
            return offsets.astype(np.float64, copy=True)
        return make_offsets(self.spec, offsets)

    def sense_regions_batch(
        self,
        positions: np.ndarray,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Region index of every cell of every row, in one timed pass.

        ``positions`` is either one shared position vector ``(V,)`` or a
        per-row matrix ``(len(rows), V)``.  Returns an
        ``(len(rows), n_cells)`` int16 array of regions (see
        :meth:`_regions`), sensed with fresh comparator noise per call.
        """
        row_idx = self._row_list(rows)
        positions = self._check_rows(
            np.asarray(positions, dtype=np.float64), row_idx
        )
        n = self.n_cells
        regions = np.empty((len(row_idx), n), dtype=np.int16)
        chunk = max(1, CHUNK_ELEMS // max(n, 1))
        t0 = time.perf_counter()
        for c0 in range(0, len(row_idx), chunk):
            sub = row_idx[c0 : c0 + chunk]
            pos = positions[c0 : c0 + chunk] if positions.ndim == 2 else positions
            self._regions(
                sub, self._selector(sub), pos,
                out=regions[c0 : c0 + len(sub)],
            )
        _note_kernel(
            "sense_regions",
            len(row_idx),
            n,
            int(positions.shape[-1]),
            time.perf_counter() - t0,
        )
        return regions

    def read_page_batch(
        self,
        page: Union[int, str],
        offsets: Union[OffsetsLike, np.ndarray] = None,
        rows: Optional[Sequence[int]] = None,
    ) -> BatchReadResult:
        """Read one page of every row in one batched kernel pass.

        ``offsets`` accepts everything :func:`make_offsets` does (shared
        across rows) or a per-row ``(len(rows), n_voltages)`` dense
        matrix.  Per-row results are bit-identical to
        ``wordline_view(r).read_page(page, offsets_r)`` issued in row
        order.
        """
        p = self.spec.gray.page_index(page)
        dense = self._dense_offsets(offsets)
        row_idx = self._row_list(rows)
        positions = self._check_rows(self._page_positions(p, dense), row_idx)
        t0 = time.perf_counter()
        mismatch = self._page_mismatch(p, row_idx, positions)
        _note_kernel(
            "sense_regions", len(row_idx), self.n_cells,
            int(positions.shape[-1]), time.perf_counter() - t0,
        )
        n_err = self._page_errors(row_idx, mismatch)
        return BatchReadResult(
            page=p,
            n_errors=n_err,
            n_data_cells=self.n_data_cells,
            offsets=dense,
            mismatch=mismatch,
        )

    def read_states_batch(
        self,
        offsets: Union[OffsetsLike, np.ndarray] = None,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Estimated state of every cell from one read with all voltages:
        the regions at ``default + offsets`` (shared or per-row offsets,
        as in :meth:`read_page_batch`)."""
        positions = self.spec.default_read_voltages + self._dense_offsets(
            offsets
        )
        return self.sense_regions_batch(positions, rows)

    def per_voltage_errors_batch(
        self,
        offsets: Union[OffsetsLike, np.ndarray] = None,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Bit errors of a full-state read charged to each read voltage.

        A data cell misread from state ``s`` to region ``r`` flips exactly
        one page bit at every boundary it crosses (Gray coding), so
        boundary ``V_i`` is charged one error for every data cell with
        ``min(s, r) < i <= max(s, r)`` — the per-voltage quantity of
        Figures 16-18.  Returns ``(len(rows), n_voltages)`` int64.
        """
        row_idx = self._row_list(rows)
        est = self.read_states_batch(offsets, row_idx)
        states = self.states[self._selector(row_idx)]
        lo = np.minimum(states, est).take(self._data_idx, axis=1)
        hi = np.maximum(states, est).take(self._data_idx, axis=1)
        n = self.spec.n_states
        crossed = np.empty((len(row_idx), n), dtype=np.int64)
        for j in range(len(row_idx)):
            # boundary k + 1 is crossed by the cells with lo <= k < hi
            crossed[j] = np.bincount(lo[j], None, n) - np.bincount(hi[j], None, n)
        return np.cumsum(crossed, axis=1)[:, :-1]

    def state_change_counts_batch(
        self,
        position_a: Union[float, np.ndarray],
        position_b: Union[float, np.ndarray],
        rows: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cells whose single-voltage readout changes between two positions.

        Returns ``(NCa, NCs)`` per row: the count over data cells and over
        sentinel cells, the two quantities the calibration of Section
        III-C compares (``NCa`` vs ``NCs / r``).  Each position is one
        absolute threshold for every row or one per row (Figure 12 probes
        each row's own optimum).  Row ``j`` equals
        ``wordline_view(rows[j]).state_change_counts(a_j, b_j)`` at the
        same stream position.
        """
        row_idx = self._row_list(rows)
        a, b = (
            np.broadcast_to(np.asarray(p, dtype=np.float64), len(row_idx))
            for p in (position_a, position_b)
        )
        nca = np.empty(len(row_idx), dtype=np.int64)
        ncs = np.empty_like(nca)
        chunk = max(1, CHUNK_ELEMS // max(self.n_cells, 1))
        t0 = time.perf_counter()
        for c0 in range(0, len(row_idx), chunk):
            sub, out = row_idx[c0 : c0 + chunk], slice(c0, c0 + chunk)
            nca[out], ncs[out] = self._state_changes(
                sub, self._selector(sub), a[out], b[out]
            )
        _note_kernel(
            "state_change", len(row_idx), self.n_cells, 2,
            time.perf_counter() - t0,
        )
        return nca, ncs

    def sentinel_readout_batch(
        self,
        offset: float = 0.0,
        rows: Optional[Sequence[int]] = None,
    ) -> List[SentinelReadout]:
        """Sentinel up/down errors of every row at the sentinel voltage.

        One noise draw of ``n_sentinels`` values per row, in row order —
        the same draw ``wordline_view(r).sentinel_readout(offset)`` makes.
        """
        row_idx = self._row_list(rows)
        t0 = time.perf_counter()
        readouts = self._sentinel_readouts(
            row_idx, self._selector(row_idx), offset
        )
        _note_kernel(
            "sentinel_readout", len(row_idx), self.n_sentinels, 1,
            time.perf_counter() - t0,
        )
        return readouts

    def single_voltage_counts(
        self,
        position: float,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Cells sensed at or above ``position``, per row (batched).

        One noise draw of ``n_cells`` values per row; the boolean readout
        itself is never materialized for all rows at once.  The threshold
        is rounded to float32, the precision of the sensed Vth.
        """
        threshold = np.float32(position)
        row_idx = self._row_list(rows)
        n = self.n_cells
        counts = np.empty(len(row_idx), dtype=np.int64)
        chunk = max(1, CHUNK_ELEMS // max(n, 1))
        t0 = time.perf_counter()
        for c0 in range(0, len(row_idx), chunk):
            sub = row_idx[c0 : c0 + chunk]
            sensed = self._sensed(sub, self._selector(sub))
            counts[c0 : c0 + chunk] = (sensed >= threshold).sum(axis=1)
        _note_kernel(
            "single_voltage", len(row_idx), n, 1, time.perf_counter() - t0
        )
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockColumns({self.spec.name}, block={self.block}, "
            f"wordlines={self.n_wordlines}, cells={self.n_cells})"
        )
