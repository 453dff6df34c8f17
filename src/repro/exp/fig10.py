"""Figure 10: the error-difference polynomial and its inference accuracy.

Left panels: the degree-5 fit of optimal sentinel-voltage offset versus the
sentinel error-difference rate (training data).  Right panels: per-wordline
groundtruth vs inferred optimum on the *evaluated* chip — a different die of
the same batch, exactly the paper's deployment story.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.exp.common import characterization, eval_chip, sentinel_inferences


@dataclass
class Fig10Result:
    kind: str
    sentinel_voltage: int
    # training scatter (left panel)
    train_d_rates: np.ndarray
    train_optima: np.ndarray
    poly_coeffs: np.ndarray
    # evaluation series (right panel)
    wordlines: np.ndarray
    groundtruth: np.ndarray
    inferred: np.ndarray

    @property
    def eval_errors(self) -> np.ndarray:
        return self.inferred - self.groundtruth

    def mean_abs_error(self) -> float:
        return float(np.abs(self.eval_errors).mean())

    def direction_accuracy(self) -> float:
        """Fraction of wordlines where the inferred *direction* is right —
        the property the calibration step relies on."""
        gt = self.groundtruth
        mask = np.abs(gt) > 2  # direction undefined at the origin
        if not mask.any():
            return 1.0
        return float(np.mean(np.sign(self.inferred[mask]) == np.sign(gt[mask])))

    def rows(self) -> list:
        return [
            ("training samples", len(self.train_d_rates)),
            ("mean |inferred - groundtruth| (steps)", round(self.mean_abs_error(), 2)),
            ("direction accuracy", f"{self.direction_accuracy():.1%}"),
        ]


def run_fig10(kind: str = "tlc", wordline_step: int = 2) -> Fig10Result:
    """Fit panel from the training die; accuracy panel from the eval die."""
    result = characterization(kind)
    model = result.model
    chip = eval_chip(kind)
    spec = chip.spec
    indices = np.arange(0, spec.wordlines_per_block, wordline_step)
    rows = chip.map_wordlines(partial(sentinel_inferences, model=model), indices)
    groundtruth = np.array([real for real, _ in rows], dtype=np.float64)
    inferred = np.array([pred for _, pred in rows], dtype=np.float64)
    return Fig10Result(
        kind=kind,
        sentinel_voltage=spec.sentinel_voltage,
        train_d_rates=result.d_rates,
        train_optima=result.sentinel_optima,
        poly_coeffs=model.difference_poly.coeffs,
        wordlines=indices,
        groundtruth=groundtruth,
        inferred=inferred,
    )
