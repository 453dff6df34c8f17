"""Retry profiles of the serving layer: cache-miss (cold) vs cache-hit (warm).

The serving engine replays empirical (retries, auxiliary reads) samples the
way :class:`repro.ssd.ssd.Ssd` does, but it needs *two* distributions per
policy: one for reads that start at the default voltages (a voltage-cache
miss) and one for reads that start at a cached sentinel inference (a hit).
Both are measured on the aged evaluation block of the chip model:

* **cold** — the plain sentinel controller flow (default first attempt,
  inference on failure);
* **warm** — the same controller handed a per-wordline ``hint``: the
  sentinel offset a cache entry of that block/layer would hold, obtained
  from a fresh single-voltage sentinel readout (exactly what the background
  scrubber stores).

``synthetic_profiles`` fabricates both distributions from literals — no
chip model, instant — for smoke tests and CI.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.controller import SentinelController
from repro.core.models import SentinelModel
from repro.flash.wordline import Wordline
from repro.ssd.retry_model import RetryProfile

COLD, WARM = "cold", "warm"


class SentinelHintFn:
    """Per-wordline hint: the offset a scrubber pass would cache.

    One single-voltage sentinel readout at the default position, mapped
    through the fitted inference polynomial — the cheap operation the
    background scrubber performs during idle gaps.

    A class (not a closure) so the hint function pickles into
    :class:`repro.engine.ParallelMap` worker processes.
    """

    def __init__(self, model: SentinelModel) -> None:
        self.model = model

    def __call__(self, wordline: Wordline) -> float:
        readout = wordline.sentinel_readout(0.0)
        return float(np.round(
            self.model.infer_sentinel_offset(readout.difference_rate)
        ))


def measure_service_profiles(
    kind: str, wordline_step: int = 8, workers: int = 1
) -> Dict[str, RetryProfile]:
    """Cold and warm sentinel retry profiles on the aged evaluation block.

    ``workers`` fans each measurement out over :mod:`repro.engine`; the
    profiles are byte-identical to a serial measurement.
    """
    from repro.exp.common import default_ecc, eval_chip, trained_model

    chip = eval_chip(kind)
    spec = chip.spec
    model = trained_model(kind)
    policy = SentinelController(default_ecc(kind), model)
    wordlines = range(0, spec.wordlines_per_block, wordline_step)
    cold = RetryProfile.measure(
        chip, policy, wordlines=wordlines, name="sentinel-cold",
        workers=workers,
    )
    warm = RetryProfile.measure(
        chip,
        policy,
        wordlines=wordlines,
        hint_fn=SentinelHintFn(model),
        name="sentinel-warm",
        workers=workers,
    )
    return {COLD: cold, WARM: warm}


#: Literal (retries, extra single reads) mixtures for smoke runs: the cold
#: mixture mimics an aged block under the sentinel flow (most reads need the
#: one inferred retry plus its auxiliary read, a tail needs calibration);
#: the warm mixture mimics hinted reads (almost always decode immediately).
_SYNTHETIC_COLD = (
    ((0, 0), 3),
    ((1, 1), 10),
    ((2, 2), 4),
    ((4, 2), 2),
    ((6, 2), 1),
)
_SYNTHETIC_WARM = (
    ((0, 0), 18),
    ((1, 1), 2),
)


def _rows(mixture) -> np.ndarray:
    rows = []
    for (retries, extra), count in mixture:
        rows.extend([(retries, extra)] * count)
    return np.asarray(rows, dtype=np.int64)


def synthetic_profiles(kind: str = "tlc") -> Dict[str, RetryProfile]:
    """Chip-free cold/warm profiles for smoke tests and CI.

    Page-type voltage counts come from the real spec's Gray code so the
    timing model prices reads correctly; only the retry distributions are
    fabricated.
    """
    from repro.exp.common import sim_spec

    spec = sim_spec(kind)
    page_types = list(range(spec.pages_per_wordline))
    voltages = {p: len(spec.gray.page_voltages(p)) for p in page_types}
    cold_rows = _rows(_SYNTHETIC_COLD)
    warm_rows = _rows(_SYNTHETIC_WARM)
    return {
        COLD: RetryProfile(
            policy_name="synthetic-cold",
            page_voltages=dict(voltages),
            samples={p: cold_rows for p in page_types},
        ),
        WARM: RetryProfile(
            policy_name="synthetic-warm",
            page_voltages=dict(voltages),
            samples={p: warm_rows for p in page_types},
        ),
    }
