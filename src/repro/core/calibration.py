"""Calibration of the inferred read voltage (Section III-C).

When the retry at the inferred voltages still fails, the sentinel cells did
not represent the wordline exactly.  The paper observes that the inferred
direction is always right and the magnitude is close, leaving two cases
(Figure 11):

* **Case 1** — undershoot: tune further in the same direction.
* **Case 2** — overshoot: tune back a little.

They are distinguished by comparing the number of cells whose single-voltage
readout changed between the default and inferred positions: ``NCa`` over all
(data) cells versus the reserving-ratio-scaled sentinel count ``NCs / r``.
If the full population moved *more* than the sentinels predicted, the shift
was underestimated (Case 1); otherwise it was overestimated (Case 2).

Normalization detail: sentinel cells sit exclusively in the two states
adjacent to the sentinel voltage, while only ``2 / n_states`` of the data
cells do, so the populations are compared per capita of boundary-adjacent
cells (this is what dividing by the reserving ratio accomplishes in the
paper's like-for-like setting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline

#: Calibration verdicts.
FURTHER = "further"
BACK = "back"

#: calibration probes per read at most, before the vendor-table fallback
MAX_STEPS = 6


@dataclass(frozen=True)
class CalibrationConfig:
    """Step size of the calibration loop.

    ``delta_steps`` is the small offset Delta the paper applies per
    calibration step; the default scales with the state pitch (5 steps for
    TLC's 256-step pitch, 3 for QLC's 128).
    """

    delta_steps: float

    @classmethod
    def for_spec(cls, spec: FlashSpec) -> "CalibrationConfig":
        return cls(delta_steps=max(2.0, round(0.02 * spec.state_pitch)))


class Calibrator:
    """Implements the state-change comparison.

    The probe schedule around the inferred offset that the verdict steers
    lives in :meth:`repro.core.controller.SentinelController.schedule`.
    """

    def __init__(self, config: CalibrationConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def state_change_verdict(
        self,
        wordline: Wordline,
        sentinel_offset: float,
    ) -> Tuple[str, float, float]:
        """Compare normalized state-change counts; return the verdict.

        Returns ``(verdict, nca_norm, ncs_norm)`` where the counts are per
        capita of boundary-adjacent cells.
        """
        spec = wordline.spec
        pos_default = spec.read_voltage(spec.sentinel_voltage, 0.0)
        pos_inferred = spec.read_voltage(spec.sentinel_voltage, sentinel_offset)
        nca, ncs = wordline.state_change_counts(pos_default, pos_inferred)
        data_adjacent = 2.0 * wordline.n_data_cells / spec.n_states
        nca_norm = nca / data_adjacent
        ncs_norm = ncs / max(wordline.n_sentinels, 1)
        verdict = FURTHER if nca_norm > ncs_norm else BACK
        return verdict, nca_norm, ncs_norm
