"""Cross-chip model transfer (Section III-D's batch claim).

"During the manufacturing process, we can conduct evaluations on one or
several flash chips to collect data for the correlation. Then the
correlation can be written into all the chips of the same batch ... all the
flash chips of the same type have similar reliability characteristics, with
only marginal deviations due to process variation."

This driver fits the sentinel model on one training die and evaluates the
inference accuracy and retry behaviour on several *other* dies (different
chip seeds = different process realizations of the same batch), quantifying
the claimed marginal deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.controller import SentinelController
from repro.exp.common import (
    TRAIN_SEED, default_ecc, eval_stress, read_rows, sentinel_inference_errors,
    sim_spec, trained_model,
)
from repro.flash.chip import FlashChip


@dataclass
class BatchTransferResult:
    kind: str
    train_seed: int
    eval_seeds: Sequence[int]
    mean_abs_error: Dict[int, float]  # seed -> |predicted-real| mean
    mean_retries: Dict[int, float]  # seed -> controller mean retries

    def worst_error(self) -> float:
        return max(self.mean_abs_error.values())

    def error_spread(self) -> float:
        """Relative spread of accuracy across dies — the 'marginal
        deviation due to process variation'."""
        values = np.array(list(self.mean_abs_error.values()))
        return float((values.max() - values.min()) / max(values.mean(), 1e-9))

    def rows(self) -> list:
        return [
            (
                seed,
                round(self.mean_abs_error[seed], 2),
                round(self.mean_retries[seed], 2),
            )
            for seed in self.eval_seeds
        ]


def run_batch_transfer(
    kind: str = "qlc",
    eval_seeds: Sequence[int] = (1, 2, 3, 4),
    wordline_step: int = 8,
) -> BatchTransferResult:
    """Evaluate the training die's model on several sibling dies."""
    spec = sim_spec(kind)
    model = trained_model(kind)
    ecc = default_ecc(kind)
    errors: Dict[int, float] = {}
    retries: Dict[int, float] = {}
    for seed in eval_seeds:
        chip = FlashChip(spec, seed=seed)
        chip.set_block_stress(0, eval_stress(kind))
        controller = SentinelController(ecc, model)
        # per row: the sentinel inference, then the controller's read
        rows = chip.map_wordlines(
            lambda cols: list(zip(sentinel_inference_errors(cols, model),
                                  read_rows(controller, cols, "MSB"))),
            range(0, spec.wordlines_per_block, wordline_step),
        )
        errors[seed] = float(np.mean([err for err, _ in rows]))
        retries[seed] = float(np.mean([o.retries for _, o in rows]))
    return BatchTransferResult(
        kind=kind,
        train_seed=TRAIN_SEED,
        eval_seeds=tuple(eval_seeds),
        mean_abs_error=errors,
        mean_retries=retries,
    )
