"""Online process-variation / early-retention Vth model (Luo et al.,
arXiv 1807.05140).

"Improving 3D NAND Flash Memory Lifetime by Tolerating Early Retention
Loss and Process Variation" proposes reading at read voltages *predicted*
by an online model instead of walking a fixed ladder:

* **Retention prior** — the mean Vth shift of every state is a predictable
  function of the block's dwell time, P/E count and temperature; the
  controller tracks those and evaluates the same retention model the chip
  obeys (:func:`state_mean_shifts`), predicting each read-voltage offset
  as the mean shift of its two adjacent states.  This is the
  "early retention loss" component: the first sense already lands near
  the optimum of an aged block, before any decode failure.

* **Online per-layer correction** — process variation is systematic
  within a layer, so the model keeps one learned offset vector per
  (block, layer), updated from decode feedback: every read that decodes
  with ECC margin contributes ``applied - prior`` to its layer's
  correction.  Like the real proposal, the model improves as it serves
  reads — a freshly powered controller predicts from the prior alone and
  converges after one pass over a layer.

On a decode failure the policy probes around the prediction (alternating
deeper/shallower along the chip's boundary-shift profile) rather than
restarting a vendor ladder.  A sentinel ``hint`` (warm path) re-anchors
the prediction so its sentinel-voltage component matches the hinted
offset, scaled along the shift profile.

Determinism contract: identical to :class:`AdaptiveRetryPolicy` — decode
feedback queues in read order and only :meth:`commit_feedback` folds it
into the committed per-layer corrections, so each read's probe sequence is
a pure function of its frozen prediction.  That keeps the lockstep and
per-wordline reads of :class:`repro.retry.policy.ReadPolicy`
bit-identical and sharded measurements worker-count-invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.mechanisms import (
    HOURS_PER_YEAR,
    StressState,
    state_mean_shifts,
)
from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline
from repro.retry.policy import MAX_RETRIES, ReadOutcome, ReadPolicy

#: feedback key: (block, layer)
_Key = Tuple[int, int]

#: most recent contributions per key that a committed correction averages
HISTORY = 16
#: a decode clears the ECC margin at or below this fraction of capability
MARGIN_FRACTION = 0.75
#: probe stride along the boundary-shift profile, in state pitches
PROBE_FRACTION = 0.03


class OnlineModelPolicy(ReadPolicy):
    """Model-predicted first sense with per-layer online corrections."""

    name = "online-model"

    def __init__(self, ecc: CapabilityEcc, spec: FlashSpec) -> None:
        super().__init__(ecc)
        self.spec = spec
        # probe direction: the chip's nominal boundary-shift profile
        # (unit maximum), the same shape a vendor ladder walks
        shifts = state_mean_shifts(
            spec, StressState(retention_hours=HOURS_PER_YEAR)
        )
        profile = -(shifts[:-1] + shifts[1:]) / 2.0
        self._profile = profile / np.abs(profile).max()
        self._probe_step = PROBE_FRACTION * spec.state_pitch
        self._prior_cache: Dict[tuple, np.ndarray] = {}
        #: committed learned correction per key (DAC steps per voltage)
        self._corrections: Dict[_Key, np.ndarray] = {}
        #: (applied - prior) vectors queued since the last commit
        self._pending: Dict[_Key, List[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def prior_offsets(self, stress: StressState) -> np.ndarray:
        """Retention-model prediction of every read-voltage offset."""
        key = stress.key()
        if key not in self._prior_cache:
            shifts = state_mean_shifts(self.spec, stress)
            self._prior_cache[key] = np.round((shifts[:-1] + shifts[1:]) / 2.0)
        return self._prior_cache[key]

    def _predict(
        self, prior: np.ndarray, key: _Key, hint: Optional[float]
    ) -> np.ndarray:
        pred = prior
        correction = self._corrections.get(key)
        if correction is not None:
            pred = pred + correction
        if hint is not None:
            sv = self.spec.sentinel_voltage - 1
            delta = float(hint) - float(pred[sv])
            half_pitch = self.spec.state_pitch / 2.0
            delta = float(np.clip(delta, -half_pitch, half_pitch))
            anchor = self._profile[sv]
            if abs(anchor) > 1e-9:
                pred = pred + delta * self._profile / anchor
            else:
                pred = pred + delta
        return np.round(pred)

    def _probe(self, pred: np.ndarray, attempt: int) -> np.ndarray:
        """Attempt ``attempt`` offsets: the prediction, then expanding
        probes alternating deeper (more shift) / shallower along the
        boundary-shift profile."""
        if attempt == 0:
            return pred
        magnitude = (attempt + 1) // 2
        sign = -1.0 if attempt % 2 == 1 else 1.0
        return np.round(
            pred + sign * magnitude * self._probe_step * self._profile
        )

    def schedule(self, wordline, hint, outcome):
        prior = self.prior_offsets(wordline.stress)
        pred = self._predict(prior, (wordline.block, wordline.layer), hint)
        return (self._probe(pred, k) for k in range(MAX_RETRIES + 1))

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _margin_clears(self, rber: float) -> bool:
        return rber <= MARGIN_FRACTION * self.ecc.capability_rber

    def feedback(
        self, wordline: Wordline, hint: Optional[float], outcome: ReadOutcome
    ) -> None:
        if not outcome.success:
            return
        applied = outcome.attempts[-1]
        if not self._margin_clears(applied.rber):
            return  # a barely-decoded read is a noisy teacher; skip it
        prior = self.prior_offsets(wordline.stress)
        key = (wordline.block, wordline.layer)
        self._pending.setdefault(key, []).append(applied.offsets - prior)

    def commit_feedback(self) -> None:
        """Fold queued decode feedback into the per-layer corrections.

        The committed correction of a key is the rounded per-voltage
        mean of its most recent :data:`HISTORY` contributions.  Feedback
        queued inside :class:`repro.engine.ParallelMap` worker processes
        dies with the worker — commit boundaries belong to the caller.
        """
        for key, vectors in self._pending.items():
            window = vectors[-HISTORY:]
            self._corrections[key] = np.round(
                np.mean(np.stack(window), axis=0)
            )
        self._pending.clear()

    # perfbench/bench_trace.py wraps these two by name in this class's own
    # __dict__, so they stay here as delegations to the ReadPolicy drivers
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)

    def read_batch(self, cols, pages, hints=None):
        return super().read_batch(cols, pages, hints)
