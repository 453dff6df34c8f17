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

* **Online per-chunk correction** — process variation is systematic
  across neighbouring layers, so the model keeps one learned offset
  vector per (block, layer-chunk), updated from decode feedback: every
  read that decodes with ECC margin contributes ``applied - prior`` to
  its chunk's correction.  Like the real proposal, the model improves as
  it serves reads — a freshly powered controller predicts from the prior
  alone and converges after one pass over a chunk.

On a decode failure the policy probes around the prediction (alternating
deeper/shallower along the chip's boundary-shift profile) rather than
restarting a vendor ladder.  A sentinel ``hint`` (warm path) re-anchors
the prediction so its sentinel-voltage component matches the hinted
offset, scaled along the shift profile.

Determinism contract: identical to :class:`AdaptiveRetryPolicy` — decode
feedback queues in read order and only :meth:`commit_feedback` folds it
into the committed per-chunk corrections, keeping batched and serial
paths bit-identical and sharded measurements worker-count-invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.mechanisms import (
    HOURS_PER_YEAR,
    StressState,
    state_mean_shifts,
)
from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline
from repro.retry.policy import ReadAttempt, ReadOutcome, ReadPolicy

#: feedback key: (block, layer // chunk_layers)
_Key = Tuple[int, int]


class OnlineModelPolicy(ReadPolicy):
    """Model-predicted first sense with per-chunk online corrections."""

    name = "online-model"

    def __init__(
        self,
        ecc: CapabilityEcc,
        spec: FlashSpec,
        chunk_layers: int = 1,
        max_retries: int = 10,
        history: int = 16,
        margin_fraction: float = 0.75,
        probe_fraction: float = 0.03,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.spec = spec
        self.chunk_layers = max(1, chunk_layers)
        self.history = max(1, history)
        self.margin_fraction = margin_fraction
        # probe direction: the chip's nominal boundary-shift profile
        # (unit maximum), the same shape a vendor ladder walks
        shifts = state_mean_shifts(
            spec, StressState(retention_hours=HOURS_PER_YEAR)
        )
        profile = -(shifts[:-1] + shifts[1:]) / 2.0
        self._profile = profile / np.abs(profile).max()
        self._probe_step = probe_fraction * spec.state_pitch
        self._prior_cache: Dict[tuple, np.ndarray] = {}
        #: committed learned correction per chunk (DAC steps per voltage)
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

    def _chunk_of(self, block: int, layer: int) -> _Key:
        return (block, layer // self.chunk_layers)

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

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _margin_clears(self, rber: float) -> bool:
        return rber <= self.margin_fraction * self.ecc.effective_rber

    def _note_feedback(
        self,
        key: _Key,
        prior: np.ndarray,
        applied: Optional[np.ndarray],
        outcome: ReadOutcome,
    ) -> None:
        if applied is None or not outcome.success:
            return
        if not self._margin_clears(outcome.attempts[-1].rber):
            return  # a barely-decoded read is a noisy teacher; skip it
        self._pending.setdefault(key, []).append(applied - prior)

    def commit_feedback(self) -> None:
        """Fold queued decode feedback into the per-chunk corrections.

        The committed correction of a chunk is the rounded per-voltage
        mean of its most recent ``history`` contributions.  Feedback
        queued inside :class:`repro.engine.ParallelMap` worker processes
        dies with the worker — commit boundaries belong to the caller.
        """
        for key, vectors in self._pending.items():
            window = vectors[-self.history:]
            self._corrections[key] = np.round(
                np.mean(np.stack(window), axis=0)
            )
        self._pending.clear()

    # ------------------------------------------------------------------
    # read paths
    # ------------------------------------------------------------------
    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        outcome = self.new_outcome(wordline, page)
        prior = self.prior_offsets(wordline.stress)
        key = self._chunk_of(wordline.block, wordline.layer)
        pred = self._predict(prior, key, hint)
        applied: Optional[np.ndarray] = None
        for attempt in range(self.max_retries + 1):
            offsets = self._probe(pred, attempt)
            if self.attempt(wordline, outcome, offsets):
                applied = offsets
                break
        self._note_feedback(key, prior, applied, outcome)
        return outcome

    def read_batch(self, cols, pages, hints=None):
        """Lockstep batched read over the probe schedules.

        Every row's probe sequence is a pure function of its frozen
        prediction, so wave ``k`` senses exactly the attempts the serial
        loop would make; per-row offset matrices carry the per-chunk
        predictions.  Falls back to the per-row loop when an active fault
        plan makes cross-row order observable.
        """
        from repro.faults import FAULTS

        if FAULTS.active:
            return super().read_batch(cols, pages, hints)
        spec = cols.spec
        gray = spec.gray
        n_rows = cols.n_wordlines
        prior = self.prior_offsets(cols.stress)
        keys: List[_Key] = []
        preds: List[np.ndarray] = []
        for r in range(n_rows):
            key = self._chunk_of(
                cols.block, spec.layer_of_wordline(cols.indices[r])
            )
            keys.append(key)
            hint = hints[r] if hints is not None else None
            preds.append(self._predict(prior, key, hint))
        outcomes: List[List[ReadOutcome]] = [
            [None] * len(pages) for _ in range(n_rows)
        ]
        applied_by: List[List[Optional[np.ndarray]]] = [
            [None] * len(pages) for _ in range(n_rows)
        ]
        for j, page in enumerate(pages):
            p = gray.page_index(page)
            n_pv = len(gray.page_voltages(p))
            outs = [
                ReadOutcome(page=p, page_voltages=n_pv) for _ in range(n_rows)
            ]
            for r in range(n_rows):
                outcomes[r][j] = outs[r]
            active = list(range(n_rows))
            for wave in range(self.max_retries + 1):
                if not active:
                    break
                matrix = np.stack(
                    [self._probe(preds[r], wave) for r in active]
                )
                batch = cols.read_page_batch(p, matrix, rows=active)
                decoded = self.ecc.decode_ok_batch(batch.mismatch)
                still_failing = []
                for i, r in enumerate(active):
                    out = outs[r]
                    out.attempts.append(
                        ReadAttempt(
                            offsets=matrix[i],
                            rber=float(batch.rber[i]),
                            decoded=bool(decoded[i]),
                        )
                    )
                    if len(out.attempts) > 1:
                        out.retries += 1
                    out.success = bool(decoded[i])
                    if out.success:
                        applied_by[r][j] = matrix[i]
                    else:
                        still_failing.append(r)
                active = still_failing
        # feedback in canonical (row, page) order — the serial read order
        for r in range(n_rows):
            for j in range(len(pages)):
                self._note_feedback(
                    keys[r], prior, applied_by[r][j], outcomes[r][j]
                )
        self._flush_batch_obs(outcomes)
        return outcomes
