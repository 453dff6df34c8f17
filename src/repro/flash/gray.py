"""Gray coding of cell states and the page -> read-voltage mapping.

A cell storing ``b`` bits has ``2**b`` threshold-voltage states separated by
``2**b - 1`` read voltages ``V1 .. V(2**b - 1)``.  The bits of adjacent states
differ in exactly one position (Gray coding) so that a single misread cell
corrupts a single page.

The page naming follows the paper (Figure 1 for TLC, Figure 4 for QLC):

* TLC pages ``LSB, CSB, MSB`` read with voltage sets
  ``{V4}``, ``{V2, V6}``, ``{V1, V3, V5, V7}``.
* QLC pages ``LSB, CSB, CSB2, MSB`` read with
  ``{V8}``, ``{V4, V12}``, ``{V2, V6, V10, V14}`` and the eight odd voltages
  (the paper: "up to eight voltages are used to read the MSB page").

This is the binary-reflected Gray code with the page order chosen so that the
LSB page toggles exactly once — at the *sentinel voltage* (V4 for TLC, V8 for
QLC), which is why the sentinel read of Section III-B is "also an LSB page
read".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np

_PAGE_NAMES = {
    2: ("LSB", "MSB"),
    3: ("LSB", "CSB", "MSB"),
    4: ("LSB", "CSB", "CSB2", "MSB"),
}


@dataclass(frozen=True)
class GrayCode:
    """Gray coding for ``bits_per_cell`` bits.

    Attributes
    ----------
    bits_per_cell:
        Number of bits stored per cell (3 for TLC, 4 for QLC).
    state_bits:
        ``(n_states, bits_per_cell)`` uint8 array; ``state_bits[s, p]`` is the
        bit of page ``p`` stored by a cell in state ``s``.  Page 0 is the LSB
        page.  State 0 (erased) stores all ones, as in Figure 1 of the paper.
    """

    bits_per_cell: int
    state_bits: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    @lru_cache(maxsize=None)
    def for_bits(bits_per_cell: int) -> "GrayCode":
        """Build the canonical Gray code for a cell width.

        The binary-reflected Gray code ``g(i) = i ^ (i >> 1)`` has the
        property that bit ``k`` (counting from the least-significant bit of
        the codeword) toggles ``2**(b-1-k)`` times along the state sequence.
        We assign page ``p`` to codeword bit ``b - 1 - p`` so the LSB page
        (``p = 0``) toggles once, the CSB page twice, and so on, and finally
        complement all bits so that the erased state reads all ones.
        """
        if bits_per_cell not in _PAGE_NAMES:
            raise ValueError(
                f"unsupported bits_per_cell={bits_per_cell}; expected one of "
                f"{sorted(_PAGE_NAMES)}"
            )
        b = bits_per_cell
        n_states = 1 << b
        codes = np.arange(n_states)
        gray = codes ^ (codes >> 1)
        state_bits = np.empty((n_states, b), dtype=np.uint8)
        for page in range(b):
            codeword_bit = b - 1 - page
            raw = (gray >> codeword_bit) & 1
            state_bits[:, page] = 1 - raw  # complement: erased state = all 1s
        return GrayCode(bits_per_cell=b, state_bits=state_bits)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return 1 << self.bits_per_cell

    @property
    def n_voltages(self) -> int:
        return self.n_states - 1

    @property
    def page_names(self) -> Tuple[str, ...]:
        return _PAGE_NAMES[self.bits_per_cell]

    @property
    def n_pages(self) -> int:
        return self.bits_per_cell

    def page_index(self, page: "int | str") -> int:
        """Resolve a page given either its index or its name."""
        if isinstance(page, str):
            try:
                return self.page_names.index(page)
            except ValueError:
                raise KeyError(
                    f"unknown page {page!r}; valid names: {self.page_names}"
                ) from None
        if not 0 <= page < self.n_pages:
            raise IndexError(f"page index {page} out of range")
        return int(page)

    # ------------------------------------------------------------------
    # precomputed tables (the per-read hot path never re-derives these;
    # instances are shared through the lru_cache on ``for_bits``)
    # ------------------------------------------------------------------
    @cached_property
    def _page_voltage_table(self) -> Tuple[Tuple[int, ...], ...]:
        """``_page_voltage_table[p]``: 1-based voltage indices of page p."""
        table = []
        for p in range(self.n_pages):
            bits = self.state_bits[:, p]
            toggles = np.nonzero(bits[1:] != bits[:-1])[0] + 1
            table.append(tuple(int(v) for v in toggles))
        return tuple(table)

    @cached_property
    def page_voltage_arrays(self) -> Tuple[np.ndarray, ...]:
        """Per-page **0-based** voltage index arrays, read-only.

        ``page_voltage_arrays[p]`` indexes directly into dense per-voltage
        arrays (``spec.default_read_voltages``, offset vectors), which is
        how :meth:`repro.flash.wordline.Wordline.page_positions` builds the
        applied thresholds without a per-voltage Python loop.
        """
        arrays = []
        for voltages in self._page_voltage_table:
            arr = np.asarray(voltages, dtype=np.int64) - 1
            arr.flags.writeable = False
            arrays.append(arr)
        return tuple(arrays)

    @cached_property
    def _voltage_page_table(self) -> Tuple[int, ...]:
        """``_voltage_page_table[v-1]``: the page toggling at voltage v."""
        table = [-1] * self.n_voltages
        for p, voltages in enumerate(self._page_voltage_table):
            for v in voltages:
                table[v - 1] = p
        if any(p < 0 for p in table):
            raise AssertionError("every voltage belongs to exactly one page")
        return tuple(table)

    @cached_property
    def _region_bits_table(self) -> Tuple[np.ndarray, ...]:
        """Read-only region-bit pattern per page (see :meth:`region_bits`)."""
        table = []
        for p, voltages in enumerate(self._page_voltage_table):
            reps = [0] + [v for v in voltages]  # lowest state in each region
            pattern = self.state_bits[reps, p].astype(np.uint8)
            pattern.flags.writeable = False
            table.append(pattern)
        return tuple(table)

    @cached_property
    def decode_table(self) -> np.ndarray:
        """Inverse Gray map: packed page-bit key -> state (read-only).

        ``decode_table[k]`` is the state whose page bits, packed LSB-page
        first (``bit_p << p``), equal ``k``.  Built once per code instead of
        per :meth:`repro.flash.wordline.Wordline.program_pages` call.
        """
        keys = np.zeros(self.n_states, dtype=np.int64)
        for s in range(self.n_states):
            for p in range(self.n_pages):
                keys[s] |= int(self.state_bits[s, p]) << p
        decode = np.empty(self.n_states, dtype=np.int16)
        decode[keys] = np.arange(self.n_states, dtype=np.int16)
        decode.flags.writeable = False
        return decode

    # ------------------------------------------------------------------
    # page <-> voltage mapping
    # ------------------------------------------------------------------
    def page_voltages(self, page: "int | str") -> Tuple[int, ...]:
        """1-based read-voltage indices applied to read ``page``.

        ``V_i`` separates state ``i-1`` from state ``i``; the voltages of a
        page are exactly the state boundaries where its bit toggles.
        """
        return self._page_voltage_table[self.page_index(page)]

    def voltage_to_page(self, vindex: int) -> int:
        """The page whose bit toggles at read voltage ``V_vindex``."""
        if not 1 <= vindex <= self.n_voltages:
            raise IndexError(f"voltage index {vindex} out of range")
        return self._voltage_page_table[vindex - 1]

    def region_bits(self, page: "int | str") -> np.ndarray:
        """Bit value of ``page`` for each region of its applied voltages.

        When reading a page, the applied voltages partition the Vth axis into
        ``len(voltages) + 1`` regions; the readout bit is constant inside a
        region.  ``region_bits(page)[r]`` is that bit for region ``r``.  The
        returned array is a shared read-only table — copy before mutating.
        """
        return self._region_bits_table[self.page_index(page)]

    def stored_bits(self, page: "int | str", states: np.ndarray) -> np.ndarray:
        """Bits of ``page`` stored by cells in the given ``states``."""
        p = self.page_index(page)
        return self.state_bits[states, p]

    def adjacent_states(self, vindex: int) -> Tuple[int, int]:
        """The two states ``(S_{i-1}, S_i)`` separated by ``V_vindex``."""
        if not 1 <= vindex <= self.n_voltages:
            raise IndexError(f"voltage index {vindex} out of range")
        return vindex - 1, vindex
