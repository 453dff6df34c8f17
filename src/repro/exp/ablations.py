"""Ablations of the design choices called out in DESIGN.md section 5.

Each function sweeps one knob of the sentinel design and reports the effect
on the quantity it trades against:

* sentinel ratio        -> mean retries (space vs accuracy, Table I context)
* sentinel voltage      -> inference accuracy (why V8/V4 are good picks)
* polynomial degree     -> fit residuals (why degree 5)
* calibration delta     -> mean retries after inference failure
* cross-voltage model   -> success with vs without the correlation step
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.controller import SentinelController
from repro.core.fitting import fit_difference_polynomial
from repro.exp.common import (
    EVAL_SEED,
    characterization,
    characterize_training_die,
    default_ecc,
    eval_chip,
    eval_stress,
    sentinel_accuracy,
    sim_spec,
    sweep_reads,
    trained_model,
)
from repro.flash.chip import FlashChip


@dataclass
class SweepResult:
    """Generic one-knob sweep outcome."""

    name: str
    knob_values: Tuple
    metric_name: str
    metrics: Dict

    def rows(self) -> List[tuple]:
        return [(v, round(float(self.metrics[v]), 3)) for v in self.knob_values]


def _mean_retries(chip, controller, wordline_step: int, page: str = "MSB") -> float:
    reads = sweep_reads(
        chip, [controller], [page],
        range(0, chip.spec.wordlines_per_block, wordline_step),
    )
    return float(np.mean([row[0].retries for row in reads]))


def ablate_sentinel_ratio(
    kind: str = "tlc",
    ratios: Sequence[float] = (0.0005, 0.002, 0.006),
    wordline_step: int = 8,
) -> SweepResult:
    """Mean retries as a function of the sentinel reservation."""
    spec = sim_spec(kind)
    metrics = {}
    for ratio in ratios:
        model = characterize_training_die(
            kind, spec, wordline_step, ratio
        ).model
        chip = FlashChip(spec, seed=EVAL_SEED, sentinel_ratio=ratio)
        chip.set_block_stress(0, eval_stress(kind))
        controller = SentinelController(default_ecc(kind), model)
        metrics[ratio] = _mean_retries(chip, controller, wordline_step)
    return SweepResult(
        name="sentinel-ratio",
        knob_values=tuple(ratios),
        metric_name="mean retries",
        metrics=metrics,
    )


def ablate_sentinel_voltage(
    kind: str = "qlc",
    voltages: Sequence[int] = (4, 8, 12),
    wordline_step: int = 8,
) -> SweepResult:
    """Inference accuracy when a different voltage plays sentinel.

    Rebuilds chips whose sentinel cells guard the alternative voltage and
    measures mean |predicted - real| for it.  Mid-range voltages work best:
    their boundary shifts correlate well with everything else.
    """
    from dataclasses import replace

    metrics = {}
    for v in voltages:
        spec = replace(sim_spec(kind), sentinel_voltage=v)
        _, errors = sentinel_accuracy(kind, spec, wordline_step, wordline_step)
        metrics[v] = float(errors.mean())
    return SweepResult(
        name="sentinel-voltage",
        knob_values=tuple(voltages),
        metric_name="mean |predicted-real| (steps)",
        metrics=metrics,
    )


def ablate_polynomial_degree(
    kind: str = "qlc", degrees: Sequence[int] = (1, 3, 5, 7)
) -> SweepResult:
    """Training residual of the d -> offset fit per polynomial degree."""
    data = characterization(kind)
    metrics = {}
    target = data.sentinel_optima
    for degree in degrees:
        poly = fit_difference_polynomial(data.d_rates, target, degree=degree)
        residual = poly(data.d_rates) - target
        metrics[degree] = float(np.abs(residual).mean())
    return SweepResult(
        name="poly-degree",
        knob_values=tuple(degrees),
        metric_name="mean |residual| (steps)",
        metrics=metrics,
    )


def ablate_calibration_delta(
    kind: str = "tlc",
    deltas: Sequence[float] = (2.0, 5.0, 10.0),
    wordline_step: int = 8,
) -> SweepResult:
    """Mean retries as a function of the calibration step size."""
    metrics = {}
    for delta in deltas:
        chip = eval_chip(kind)
        controller = SentinelController(
            default_ecc(kind),
            trained_model(kind),
            delta_steps=delta,
        )
        metrics[delta] = _mean_retries(chip, controller, wordline_step)
    return SweepResult(
        name="calibration-delta",
        knob_values=tuple(deltas),
        metric_name="mean retries",
        metrics=metrics,
    )


def ablate_correlation(
    kind: str = "qlc", wordline_step: int = 8
) -> SweepResult:
    """Retries with and without the cross-voltage correlation step.

    Without the correlation, only the sentinel voltage is tuned and every
    other voltage stays at its default — quantifying how much of the win
    comes from propagating one inferred offset to all voltages.
    """
    chip = eval_chip(kind)
    ecc = default_ecc(kind)
    model = trained_model(kind)
    with_corr = SentinelController(ecc, model)
    metrics = {"with-correlation": _mean_retries(chip, with_corr, wordline_step)}

    # a crippled model: identity for the sentinel voltage, zeros elsewhere
    import copy

    crippled = copy.deepcopy(model)
    for table in crippled.correlations:
        table.slopes[:] = 0.0
        table.intercepts[:] = 0.0
        table.slopes[model.sentinel_voltage - 1] = 1.0
    chip2 = eval_chip(kind)
    without = SentinelController(ecc, crippled)
    metrics["sentinel-only"] = _mean_retries(chip2, without, wordline_step)
    return SweepResult(
        name="cross-voltage-correlation",
        knob_values=("with-correlation", "sentinel-only"),
        metric_name="mean retries",
        metrics=metrics,
    )


def ablate_read_noise(
    kind: str = "qlc",
    noise_sigmas: Sequence[float] = (1.0, 3.5, 8.0),
    wordline_step: int = 16,
) -> SweepResult:
    """Inference accuracy versus the sensing-comparator noise.

    The error difference is counted from noisy reads, so a noisier sense
    amp blurs the d -> offset relationship on both the training and the
    evaluation side.  Chips are rebuilt per noise level (train + eval).
    """
    from dataclasses import replace as dc_replace

    metrics = {}
    for sigma in noise_sigmas:
        spec = dc_replace(sim_spec(kind), read_noise_sigma=sigma)
        _, errors = sentinel_accuracy(kind, spec, wordline_step, wordline_step)
        metrics[sigma] = float(errors.mean())
    return SweepResult(
        name="read-noise",
        knob_values=tuple(noise_sigmas),
        metric_name="mean |predicted-real| (steps)",
        metrics=metrics,
    )


def ablate_training_budget(
    kind: str = "qlc",
    wordline_steps: Sequence[int] = (64, 16, 4),
    eval_step: int = 16,
) -> SweepResult:
    """Inference accuracy versus factory characterization effort.

    Sweeping fewer training wordlines is cheaper factory time; the fit
    quality saturates once a few hundred (d, V_opt) pairs are in hand — the
    paper's "hundreds of pairs" remark.
    """
    spec = sim_spec(kind)
    metrics = {}
    for step in wordline_steps:
        result, errors = sentinel_accuracy(kind, spec, step, eval_step)
        # key by the number of training samples, the quantity that matters
        metrics[len(result.d_rates)] = float(errors.mean())
    return SweepResult(
        name="training-budget",
        knob_values=tuple(sorted(metrics)),
        metric_name="mean |predicted-real| (steps)",
        metrics=metrics,
    )
