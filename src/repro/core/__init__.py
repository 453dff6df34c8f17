"""The paper's contribution: sentinel-assisted read-voltage inference.

Pipeline (Section III):

1. :mod:`repro.core.characterization` — offline, per chip batch: read sweeps
   over training blocks collect ``(error-difference rate, optimal sentinel
   offset)`` pairs and per-voltage optima.
2. :mod:`repro.core.fitting` — fit the degree-5 polynomial ``V_opt = f(d)``
   (Figure 10) and the linear cross-voltage correlations (Figure 8),
   temperature-binned as Section III-D prescribes.
3. :mod:`repro.core.models` — the resulting :class:`SentinelModel`, the small
   table burned into every chip of the batch.
4. :mod:`repro.core.controller` — the online read flow: default read →
   sentinel inference → calibration (:mod:`repro.core.calibration`).
5. :mod:`repro.core.sentinel` — space-overhead accounting of the reserved
   sentinel cells (Section III-D / Table I context).
"""

from repro.core.models import SentinelModel, CorrelationTable
from repro.core.fitting import fit_difference_polynomial, fit_linear_correlations
from repro.core.characterization import CharacterizationResult, characterize_chip
from repro.core.calibration import calibration_delta, state_change_verdict
from repro.core.controller import SentinelController, ReadOutcome
from repro.core.sentinel import sentinel_overhead

__all__ = [
    "SentinelModel",
    "CorrelationTable",
    "fit_difference_polynomial",
    "fit_linear_correlations",
    "CharacterizationResult",
    "characterize_chip",
    "calibration_delta",
    "state_change_verdict",
    "SentinelController",
    "ReadOutcome",
    "sentinel_overhead",
]
