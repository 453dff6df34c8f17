"""Offline characterization: collect training data and fit the sentinel model.

Mirrors the paper's manufacturing-time procedure: pick one or several chips
of a batch, sweep blocks across stress conditions (P/E cycles, retention,
temperature), and for every wordline record

* the sentinel error-difference rate ``d`` measured at the *default*
  sentinel voltage (what the controller will see on a failed read), and
* the ground-truth optimal offsets of every read voltage (what an exhaustive
  read sweep finds).

The degree-5 polynomial of Figure 10 and the linear correlation tables of
Figure 8 are fitted from these samples; temperature-range bins get separate
correlation tables (Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fitting import fit_difference_polynomial, fit_linear_correlations
from repro.core.models import CorrelationTable, SentinelModel
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.optimal import optimal_offsets_batch

#: Default stress sweep: the conditions Section III collects data under.
DEFAULT_TRAINING_STRESSES: Tuple[StressState, ...] = (
    StressState(pe_cycles=1000, retention_hours=24 * 30),
    StressState(pe_cycles=3000, retention_hours=8760),
    StressState(pe_cycles=5000, retention_hours=8760),
)

#: Degree of the fitted ``V_opt = f(d)`` polynomial (Figure 10).
POLY_DEGREE = 5

#: Temperature bin edges (degC) of the correlation tables.
TEMP_BIN_EDGES: Tuple[float, ...] = (-273.0, 55.0, 1000.0)


@dataclass
class CharacterizationResult:
    """Training samples plus the fitted model."""

    model: SentinelModel
    d_rates: np.ndarray  # (n_samples,)
    optima: np.ndarray  # (n_samples, n_voltages) ground-truth offsets
    temperatures: np.ndarray  # (n_samples,)
    stress_labels: List[str] = field(default_factory=list)

    @property
    def sentinel_optima(self) -> np.ndarray:
        return self.optima[:, self.model.sentinel_voltage - 1]

    def inference_residuals(self) -> np.ndarray:
        """Training-set residuals of the d->offset polynomial (in steps)."""
        predicted = self.model.difference_poly(self.d_rates)
        return predicted - self.sentinel_optima


def _characterize_shard(cols) -> List[tuple]:
    """Collect (stress, d rate, ground-truth optima) rows for a sub-batch.

    Both measurements are pure functions of the wordline identity: the
    sentinel readouts are one batched sense, each row drawing from its
    own fresh read-noise stream, and the optimal search is one noiseless
    batched kernel call.
    """
    readouts = cols.sentinel_readout_batch(0.0)
    optima = optimal_offsets_batch(cols)
    return [
        (cols.stress, readout.difference_rate, row)
        for readout, row in zip(readouts, optima)
    ]


def characterize_chip(
    chip: FlashChip,
    blocks: Sequence[int] = (0, 1),
    stresses: Sequence[StressState] = DEFAULT_TRAINING_STRESSES,
    wordlines: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> CharacterizationResult:
    """Run the full characterization sweep and fit a :class:`SentinelModel`.

    ``wordlines`` restricts the sweep (default: every wordline of each
    block); hundreds of (d, V_opt) pairs are plenty, per the paper.

    The sweep is one :meth:`FlashChip.map_wordlines` run in canonical
    (stress, block, wordline) order; ``workers > 1`` fans it out over
    :class:`repro.engine.ParallelMap`, and the collected samples — and
    therefore the fitted model — are byte-identical to a serial run.
    """
    if chip.sentinel_ratio <= 0:
        raise ValueError("characterization requires a chip with sentinel cells")
    spec = chip.spec
    rows = chip.map_wordlines(
        _characterize_shard,
        wordlines,
        blocks=blocks,
        stresses=stresses,
        workers=workers,
        label="characterize",
    )

    d_rates: List[float] = []
    optima_rows: List[np.ndarray] = []
    temps: List[float] = []
    labels: List[str] = []
    for stress, d_rate, optima_row in rows:
        d_rates.append(d_rate)
        optima_rows.append(optima_row)
        temps.append(stress.temperature_c)
        labels.append(
            f"pe={stress.pe_cycles},ret={stress.retention_hours}h,"
            f"T={stress.temperature_c}C"
        )

    # the serial sweep left every swept block at the last stress; keep that
    # contract for callers that reuse the chip afterwards
    if rows:
        for block in blocks:
            chip.set_block_stress(block, stresses[-1])

    d_arr = np.asarray(d_rates)
    optima = np.vstack(optima_rows)
    temp_arr = np.asarray(temps)

    poly = fit_difference_polynomial(
        d_arr, optima[:, spec.sentinel_voltage - 1], degree=POLY_DEGREE
    )

    tables: List[CorrelationTable] = []
    for lo, hi in zip(TEMP_BIN_EDGES[:-1], TEMP_BIN_EDGES[1:]):
        mask = (temp_arr >= lo) & (temp_arr < hi)
        if mask.sum() < 2:
            continue
        slopes, intercepts, _ = fit_linear_correlations(
            optima[mask], spec.sentinel_voltage
        )
        tables.append(
            CorrelationTable(
                temp_low_c=lo, temp_high_c=hi, slopes=slopes, intercepts=intercepts
            )
        )
    if not tables:  # all samples in one unexpected range: fit globally
        slopes, intercepts, _ = fit_linear_correlations(
            optima, spec.sentinel_voltage
        )
        tables.append(
            CorrelationTable(
                temp_low_c=-273.0, temp_high_c=1000.0,
                slopes=slopes, intercepts=intercepts,
            )
        )

    model = SentinelModel(
        spec_name=spec.name,
        sentinel_voltage=spec.sentinel_voltage,
        n_voltages=spec.n_voltages,
        difference_poly=poly,
        correlations=tables,
    )
    return CharacterizationResult(
        model=model,
        d_rates=d_arr,
        optima=optima,
        temperatures=temp_arr,
        stress_labels=labels,
    )
