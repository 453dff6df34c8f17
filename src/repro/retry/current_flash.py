"""The "current flash" baseline: a vendor-style read-retry table.

Today's chips ship a fixed table of retry voltage sets; after a decode
failure the controller walks the table entry by entry until a read decodes or
the table is exhausted.  Vendors shape each entry with the *typical* shift
profile of the cell states (larger corrections for the faster-shifting lower
states), but the table knows nothing about the actual wordline at hand — on
an aged block that means many retries (6.6 on average in the paper's
Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.mechanisms import (
    HOURS_PER_YEAR,
    StressState,
    state_mean_shifts,
)
from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline
from repro.retry.policy import ReadOutcome, ReadPolicy


@dataclass(frozen=True)
class RetryTable:
    """An ordered list of per-voltage offset vectors."""

    entries: np.ndarray  # (n_entries, n_voltages)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> np.ndarray:
        return self.entries[index]

    @classmethod
    def vendor_default(
        cls,
        spec: FlashSpec,
        n_entries: int = 12,
        step_fraction: float = 0.02,
        ramp: float = 0.08,
    ) -> "RetryTable":
        """A ladder of growing downward corrections.

        Entry ``k`` applies ``-k * step * (1 + ramp*k) * w(i)`` to voltage
        ``V_i``, where ``w`` is the chip's nominal per-state shift profile
        normalized to a unit maximum — the shape a vendor would burn into
        firmware from its own characterization.  Strides grow slightly
        (``ramp``) so the late entries still reach heavily-shifted wordlines,
        as real vendor tables do.  ``step_fraction`` scales the base stride
        with the state pitch.
        """
        # The vendor knows the chip's mean shift profile (including the
        # erased state creeping *up*); each boundary moves by the mean of
        # its two adjacent state shifts.
        shifts = state_mean_shifts(
            spec, StressState(retention_hours=HOURS_PER_YEAR)
        )
        boundary_w = -(shifts[:-1] + shifts[1:]) / 2.0  # per read voltage
        boundary_w = boundary_w / np.abs(boundary_w).max()
        step = step_fraction * spec.state_pitch
        entries = np.array(
            [
                -np.round((k + 1) * step * (1.0 + ramp * (k + 1)) * boundary_w)
                for k in range(n_entries)
            ],
            dtype=np.float64,
        )
        return cls(entries=entries)


class CurrentFlashPolicy(ReadPolicy):
    """Walk the retry table until the page decodes."""

    name = "current-flash"

    def __init__(
        self,
        ecc: CapabilityEcc,
        spec: FlashSpec,
        table: Optional[RetryTable] = None,
        max_retries: int = 10,
        soft_fallback: bool = False,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.table = table or RetryTable.vendor_default(spec)
        self.soft_fallback = soft_fallback

    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        # hint ignored: the vendor table has no notion of a cached offset
        outcome = self.new_outcome(wordline, page)
        if self.attempt(wordline, outcome, None):
            return outcome
        for k in range(min(self.max_retries, len(self.table))):
            if self.attempt(wordline, outcome, self.table.entry(k)):
                return outcome
        if self.soft_fallback:
            self.soft_rescue(wordline, outcome)
        return outcome

    # ------------------------------------------------------------------
    def read_batch(self, cols, pages, hints=None):
        """Lockstep batched read: one kernel call per (page, ladder entry).

        The vendor table applies the same offsets to every wordline, so
        attempt ``k`` of all still-failing rows is a single
        ``read_page_batch`` call.  Per-row results are bit-identical to
        :meth:`read`: each row's noise draws happen in the same order
        (page-major, attempt-major) because attempt ``k`` only senses rows
        that are still failing — exactly the attempts the serial loop
        would make.  Falls back to the per-row loop when an active fault
        plan makes cross-row call order observable.
        """
        from repro.faults import FAULTS

        if FAULTS.active:
            return super().read_batch(cols, pages, hints)
        from repro.retry.policy import ReadAttempt, ReadOutcome

        gray = cols.spec.gray
        n_rows = cols.n_wordlines
        outcomes = [[None] * len(pages) for _ in range(n_rows)]
        ladder = [None] + [
            self.table.entry(k)
            for k in range(min(self.max_retries, len(self.table)))
        ]
        for j, page in enumerate(pages):
            p = gray.page_index(page)
            n_pv = len(gray.page_voltages(p))
            outs = [
                ReadOutcome(page=p, page_voltages=n_pv) for _ in range(n_rows)
            ]
            for r in range(n_rows):
                outcomes[r][j] = outs[r]
            active = list(range(n_rows))
            for offsets in ladder:
                if not active:
                    break
                batch = cols.read_page_batch(p, offsets, rows=active)
                decoded = self.ecc.decode_ok_batch(batch.mismatch)
                still_failing = []
                for i, r in enumerate(active):
                    out = outs[r]
                    out.attempts.append(
                        ReadAttempt(
                            offsets=batch.offsets,
                            rber=float(batch.rber[i]),
                            decoded=bool(decoded[i]),
                        )
                    )
                    if len(out.attempts) > 1:
                        out.retries += 1
                    out.success = bool(decoded[i])
                    if not out.success:
                        still_failing.append(r)
                active = still_failing
            if self.soft_fallback:
                for r in active:
                    self.soft_rescue(cols.wordline_view(r), outs[r])
        self._flush_batch_obs(outcomes)
        return outcomes
