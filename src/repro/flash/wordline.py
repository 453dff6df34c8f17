"""One wordline: programming, page reads and the sentinel readout.

The wordline is the unit the paper operates on: sentinel cells are reserved
per wordline and the error difference is counted per wordline.  A
:class:`Wordline` is a ``(store, row)`` handle on a
:class:`repro.flash.block.BlockColumns` store, whose kernels are the model's
one read implementation; the handle programs its row and its reads are
one-row calls of those kernels.

Cells split into *data cells* and *sentinel cells*.  Sentinel cells are
spread evenly along the bitline axis (they live in spare OOB columns) and are
programmed alternately to the two states adjacent to the sentinel voltage
(S3/S4 for TLC, S7/S8 for QLC — Section III-B).  Error statistics exposed to
ECC cover data cells only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.flash.mechanisms import StressState
from repro.flash.spec import FlashSpec

OffsetsLike = Union[None, float, Mapping[int, float], Sequence[float], np.ndarray]


def make_offsets(spec: FlashSpec, offsets: OffsetsLike = None) -> np.ndarray:
    """Normalize any offsets description to a dense per-voltage array.

    Accepts ``None`` (all defaults), a scalar applied to every voltage, a
    mapping ``{voltage_index: offset}`` with 1-based voltage indices, or a
    dense array of length ``spec.n_voltages``.
    """
    dense = np.zeros(spec.n_voltages, dtype=np.float64)
    if offsets is None:
        return dense
    if isinstance(offsets, Mapping):
        for vindex, off in offsets.items():
            if not 1 <= int(vindex) <= spec.n_voltages:
                raise IndexError(f"voltage index {vindex} out of range")
            dense[int(vindex) - 1] = float(off)
        return dense
    if np.isscalar(offsets):
        dense[:] = float(offsets)
        return dense
    arr = np.asarray(offsets, dtype=np.float64)
    if arr.shape != (spec.n_voltages,):
        raise ValueError(
            f"offsets must have shape ({spec.n_voltages},), got {arr.shape}"
        )
    return arr.copy()


@dataclass(frozen=True)
class ReadResult:
    """Outcome of one page read."""

    page: int
    bits: np.ndarray  # data-cell readout bits
    n_errors: int  # bit errors on data cells
    n_data_cells: int
    offsets: np.ndarray  # dense per-voltage offsets used
    mismatch: np.ndarray  # per-data-cell error mask (bool)

    @property
    def rber(self) -> float:
        return self.n_errors / self.n_data_cells


@dataclass(frozen=True)
class SentinelReadout:
    """Error bookkeeping of the sentinel cells at one threshold position."""

    up_errors: int  # low-state sentinels read above the threshold
    down_errors: int  # high-state sentinels read below the threshold
    n_sentinels: int

    @property
    def difference(self) -> int:
        """The paper's error difference ``d = up - down``."""
        return self.up_errors - self.down_errors

    @property
    def difference_rate(self) -> float:
        return self.difference / self.n_sentinels


class Wordline:
    """One wordline of a block: a handle on one row of a columnar store.

    Parameters
    ----------
    spec:
        Chip specification.
    chip_seed, block, index:
        Identity; all randomness derives from these, so re-creating the same
        wordline always yields the same cells.
    stress:
        Stress condition at read time (can be changed with
        :meth:`set_stress`; the same cells are re-evaluated).
    sentinel_ratio:
        Fraction of cells reserved as sentinels (0 disables sentinels).

    Constructing a wordline builds a private one-row
    :class:`~repro.flash.block.BlockColumns`; ``BlockColumns.wordline_view``
    returns the same class over a shared store.  Either way ``states``,
    ``vth``, ``stress`` and the read-noise generator are read live from
    the store, and every read runs the store's kernels on this row.
    """

    def __init__(
        self,
        spec: FlashSpec,
        chip_seed: int,
        block: int,
        index: int,
        stress: Optional[StressState] = None,
        sentinel_ratio: float = 0.002,
    ) -> None:
        from repro.flash.block import BlockColumns

        store = BlockColumns(
            spec, chip_seed, block, (index,), sentinel_ratio, stress=stress
        )
        self._bind(store, 0)

    @classmethod
    def _view(cls, store, row: int) -> "Wordline":
        """A handle on row ``row`` of a store it shares with others."""
        wl = cls.__new__(cls)
        wl._bind(store, row)
        return wl

    def _bind(self, store, row: int) -> None:
        #: the store whose kernels read this wordline, and its row there
        self.store = store
        self.row = row
        self.spec = store.spec
        self.chip_seed = store.chip_seed
        self.block = store.block
        self.index = store.indices[row]
        self.layer = store.spec.layer_of_wordline(self.index)
        self.sentinel_indices = store.sentinel_indices

    def _detach(
        self,
        states: Optional[np.ndarray] = None,
        stress: Optional[StressState] = None,
    ) -> None:
        """Move this row into a private one-row store (see ``_row_store``)."""
        self.store = self.store._row_store(self.row, states, stress)
        self.row = 0

    # ------------------------------------------------------------------
    # live row state
    # ------------------------------------------------------------------
    @property
    def states(self) -> np.ndarray:
        return self.store.states[self.row]

    @property
    def vth(self) -> np.ndarray:
        return self.store.vth[self.row]

    @property
    def stress(self) -> StressState:
        return self.store.stress

    @property
    def read_rng(self) -> np.random.Generator:
        """This wordline's read-noise generator (one stream per wordline)."""
        return self.store.read_rng(self.row)

    @property
    def data_mask(self) -> np.ndarray:
        return self.store.data_mask

    @property
    def sentinel_mask(self) -> np.ndarray:
        return self.store.sentinel_mask

    # ------------------------------------------------------------------
    # programming user data
    # ------------------------------------------------------------------
    def program_pages(self, page_bits: Mapping[Union[int, str], np.ndarray]) -> None:
        """Program explicit user data into the wordline.

        ``page_bits`` must provide one bit array of length ``n_data_cells``
        per page of the wordline (all pages of a wordline are programmed
        together, as on one-pass-programmed 3D NAND).  Sentinel cells keep
        their reserved pattern; data cells take the state whose Gray code
        matches the supplied bits.  Cell voltages are re-synthesized under
        the current stress (the latents persist, so the same cells keep
        their physical personalities).  The programmed row moves to a
        private one-row store, so a shared store never changes.
        """
        spec = self.spec
        gray = spec.gray
        names = [gray.page_index(p) for p in page_bits]
        if sorted(names) != list(range(spec.pages_per_wordline)):
            raise ValueError(
                f"program_pages needs bits for all pages "
                f"{gray.page_names}, got {list(page_bits)}"
            )
        code = np.zeros(self.n_data_cells, dtype=np.int64)
        for page, bits in page_bits.items():
            p = gray.page_index(page)
            bits = np.asarray(bits)
            if bits.shape != (self.n_data_cells,):
                raise ValueError(
                    f"page {page!r}: expected {self.n_data_cells} bits, "
                    f"got {bits.shape}"
                )
            code |= (bits.astype(np.int64) & 1) << p
        states = self.states.copy()
        states[self.data_mask] = gray.decode_table[code]
        self._detach(states=states)

    # ------------------------------------------------------------------
    # identity / geometry helpers
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return self.spec.cells_per_wordline

    @property
    def n_data_cells(self) -> int:
        return self.n_cells - len(self.sentinel_indices)

    @property
    def n_sentinels(self) -> int:
        return len(self.sentinel_indices)

    @property
    def sentinel_states(self) -> np.ndarray:
        return self.states[self.sentinel_indices]

    def set_stress(self, stress: StressState) -> None:
        """Re-evaluate the same cells under a new stress condition.

        Moving to a stress other than the store's moves the row into a
        private one-row store (as :meth:`program_pages` does), so the old
        store and its other rows keep theirs; the row's read-noise stream
        continues.
        """
        if stress != self.stress:
            self._detach(stress=stress)

    # ------------------------------------------------------------------
    # page reads
    # ------------------------------------------------------------------
    def page_positions(
        self, page: Union[int, str], offsets: OffsetsLike = None
    ) -> np.ndarray:
        """Absolute threshold positions applied when reading ``page``."""
        p = self.spec.gray.page_index(page)
        return self.store._page_positions(p, make_offsets(self.spec, offsets))

    def read_page(
        self, page: Union[int, str], offsets: OffsetsLike = None
    ) -> ReadResult:
        """Read one page; count bit errors on data cells only."""
        p = self.spec.gray.page_index(page)
        dense = make_offsets(self.spec, offsets)
        bits, mismatch, n_err = self.store._read_page_row(self.row, p, dense)
        return ReadResult(
            page=p,
            bits=bits,
            n_errors=n_err,
            n_data_cells=self.n_data_cells,
            offsets=dense,
            mismatch=mismatch,
        )

    # ------------------------------------------------------------------
    # sentinel machinery
    # ------------------------------------------------------------------
    def sentinel_readout(self, offset: float = 0.0) -> SentinelReadout:
        """Up/down errors of the sentinel cells at the sentinel voltage.

        This is what the controller extracts from a (failed) read: the
        original sentinel data is known by construction, so errors are exact.
        """
        return self.store._sentinel_row(self.row, offset)

    def state_change_counts(
        self, position_a: float, position_b: float
    ) -> Tuple[int, int]:
        """Cells whose single-voltage readout changes between two positions.

        Returns ``(NCa, NCs)``: the count over data cells and over sentinel
        cells, the two quantities compared by the calibration procedure of
        Section III-C (``NCa`` vs ``NCs / r``).
        """
        return self.store._state_change_row(
            self.row, position_a, position_b
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Wordline({self.spec.name}, block={self.block}, index={self.index}, "
            f"layer={self.layer}, cells={self.n_cells}, "
            f"sentinels={self.n_sentinels})"
        )
