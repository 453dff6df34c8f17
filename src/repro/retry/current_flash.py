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

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.mechanisms import (
    HOURS_PER_YEAR,
    StressState,
    state_mean_shifts,
)
from repro.flash.spec import FlashSpec
from repro.retry.policy import MAX_RETRIES, ReadPolicy

#: vendor table: entries, base stride as a fraction of the state pitch, and
#: the stride growth per entry
TABLE_ENTRIES = 12
TABLE_STEP_FRACTION = 0.02
TABLE_RAMP = 0.08


def vendor_table(spec: FlashSpec) -> np.ndarray:
    """The vendor retry table: ``(TABLE_ENTRIES, n_voltages)`` offsets of
    growing downward corrections, read-only.

    Entry ``k`` applies ``-k * step * (1 + ramp*k) * w(i)`` to voltage
    ``V_i``, where ``w`` is the chip's nominal per-state shift profile
    normalized to a unit maximum — the shape a vendor would burn into
    firmware from its own characterization.  Strides grow slightly
    (``TABLE_RAMP``) so the late entries still reach heavily-shifted
    wordlines, as real vendor tables do.  ``TABLE_STEP_FRACTION`` scales
    the base stride with the state pitch.
    """
    # The vendor knows the chip's mean shift profile (including the
    # erased state creeping *up*); each boundary moves by the mean of
    # its two adjacent state shifts.
    shifts = state_mean_shifts(
        spec, StressState(retention_hours=HOURS_PER_YEAR)
    )
    boundary_w = -(shifts[:-1] + shifts[1:]) / 2.0  # per read voltage
    boundary_w = boundary_w / np.abs(boundary_w).max()
    step = TABLE_STEP_FRACTION * spec.state_pitch
    table = np.array(
        [
            -np.round(
                (k + 1) * step * (1.0 + TABLE_RAMP * (k + 1)) * boundary_w
            )
            for k in range(TABLE_ENTRIES)
        ],
        dtype=np.float64,
    )
    table.setflags(write=False)
    return table


class CurrentFlashPolicy(ReadPolicy):
    """Walk the retry table until the page decodes."""

    name = "current-flash"

    def __init__(self, ecc: CapabilityEcc, spec: FlashSpec) -> None:
        super().__init__(ecc)
        self.table = vendor_table(spec)

    def schedule(self, wordline, hint, outcome):
        # hint ignored: the vendor table has no notion of a cached offset
        yield None
        yield from self.table[:MAX_RETRIES]

    # perfbench/bench_trace.py wraps these two by name in this class's own
    # __dict__, so they stay here as delegations to the ReadPolicy drivers
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)

    def read_batch(self, cols, pages, hints=None):
        return super().read_batch(cols, pages, hints)
