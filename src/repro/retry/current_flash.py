"""The "current flash" baseline: a vendor-style read-retry table.

Today's chips ship a fixed table of retry voltage sets; after a decode
failure the controller walks the table entry by entry until a read decodes or
the table is exhausted.  Vendors shape each entry with the *typical* shift
profile of the cell states (larger corrections for the faster-shifting lower
states), but the table knows nothing about the actual wordline at hand — on
an aged block that means many retries (6.6 on average in the paper's
Figure 13).

The policy only declares that ladder (:meth:`CurrentFlashPolicy.schedule`);
:class:`repro.retry.policy.ReadPolicy` walks it per wordline or, over a
columnar batch, in lockstep: one batched sense per (page, ladder entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.mechanisms import (
    HOURS_PER_YEAR,
    StressState,
    state_mean_shifts,
)
from repro.flash.spec import FlashSpec
from repro.retry.policy import ReadPolicy


@dataclass(frozen=True)
class RetryTable:
    """An ordered list of per-voltage offset vectors."""

    entries: np.ndarray  # (n_entries, n_voltages)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> np.ndarray:
        return self.entries[index]

    def ladder(self, n: int) -> np.ndarray:
        """The first ``n`` entries (none for ``n <= 0``)."""
        return self.entries[: max(n, 0)]

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

    def schedule(self, wordline, hint, outcome):
        # hint ignored: the vendor table has no notion of a cached offset
        yield None
        yield from self.table.ladder(self.max_retries)

    # perfbench/bench_trace.py wraps these two by name in this class's own
    # __dict__, so they stay here as delegations to the ReadPolicy drivers
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)

    def read_batch(self, cols, pages, hints=None):
        return super().read_batch(cols, pages, hints)
