"""Adaptive + pipelined read-retry (Park et al., arXiv 2104.09611).

Implements the two firmware-only techniques of "Reducing Solid-State Drive
Read Latency by Optimizing Read-Retry" as a :class:`ReadPolicy` drop-in:

* **Adaptive read-retry** — the controller remembers, per (block, layer),
  which vendor-table entry recently decoded, and starts the next retry walk
  there instead of at the default voltages.  The walk expands around the
  predicted entry (``s, s+1, s-1, s+2, ...``) so a slightly stale
  prediction costs one step, not a full ladder.  A sentinel-cache ``hint``
  (the warm path) maps to the table entry whose sentinel-voltage component
  is nearest, so hinted reads also skip the cold prefix of the ladder.

* **Pipelined read-retry with early termination** — while one attempt's
  data is on the channel being ECC-checked, the die already senses the
  next ladder entry speculatively.  The latency model accounts this by
  marking every retry round in :attr:`ReadOutcome.pipelined_senses`; the
  timing layer then overlaps each retry's sensing with the previous
  round's transfer (``max`` instead of sum — see
  :meth:`NandTiming.read_us`).  Once an attempt decodes, the walk ends and
  the in-flight speculative sense is discarded; decodes that clear the
  configured ECC margin feed the ladder-start predictor, thin-margin
  decodes predict one entry deeper (the optimum is drifting past the
  entry that barely worked).

Determinism contract: predictions are **frozen while reads are in
flight** — both :meth:`read` and the lockstep :meth:`read_batch` queue
decode feedback and only fold it into the per-(block, layer) start table
when the caller invokes :meth:`commit_feedback` (an FTL would do this from
its background task).  This keeps the batched and per-wordline paths
bit-identical and keeps sharded measurements worker-count-invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline
from repro.retry.current_flash import RetryTable
from repro.retry.policy import ReadAttempt, ReadOutcome, ReadPolicy

#: feedback key: (block, layer)
_Key = Tuple[int, int]


class AdaptiveRetryPolicy(ReadPolicy):
    """Vendor ladder with a learned per-(block, layer) starting entry."""

    name = "adaptive-retry"
    #: retries overlap sensing with the previous round's transfer + ECC
    pipelined = True

    def __init__(
        self,
        ecc: CapabilityEcc,
        spec: FlashSpec,
        table: Optional[RetryTable] = None,
        max_retries: int = 10,
        history: int = 8,
        margin_fraction: float = 0.75,
    ) -> None:
        super().__init__(ecc, max_retries)
        self.spec = spec
        self.table = table or RetryTable.vendor_default(spec)
        self.history = max(1, history)
        self.margin_fraction = margin_fraction
        #: committed ladder-start per (block, layer); None = cold walk
        self._starts: Dict[_Key, int] = {}
        #: decode feedback queued since the last commit, in read order
        self._pending: Dict[_Key, List[int]] = {}

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _start_from_hint(self, hint: float) -> int:
        """Ladder entry whose sentinel-voltage offset is nearest the hint."""
        sv = self.spec.sentinel_voltage - 1
        column = self.table.entries[:, sv]
        return int(np.argmin(np.abs(column - float(hint))))

    def _start_for(self, key: _Key, hint: Optional[float]) -> Optional[int]:
        if hint is not None:
            return self._start_from_hint(hint)
        return self._starts.get(key)

    def _schedule(self, start: Optional[int]) -> List[int]:
        """Ladder-entry sequence of one read; index ``-1`` is the default
        (zero-offset) read.  Cold reads walk the vendor ladder from the
        top; predicted reads expand around the start entry."""
        n = len(self.table)
        cap = self.max_retries + 1
        if start is None:
            return ([-1] + list(range(n)))[:cap]
        idxs: List[int] = []
        for d in range(0, n + 2):
            steps = (start,) if d == 0 else (start + d, start - d)
            for k in steps:
                if -1 <= k < n and k not in idxs:
                    idxs.append(k)
            if len(idxs) >= cap:
                break
        return idxs[:cap]

    def _offsets_of(self, entry: int) -> Optional[np.ndarray]:
        return None if entry < 0 else self.table.entry(entry)

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _margin_clears(self, rber: float) -> bool:
        return rber <= self.margin_fraction * self.ecc.effective_rber

    def _note_feedback(
        self, key: _Key, success_entry: Optional[int], outcome: ReadOutcome
    ) -> None:
        if not outcome.success:
            # the whole ladder failed: predict the deep end next time
            self._pending.setdefault(key, []).append(len(self.table) - 1)
            return
        entry = success_entry if success_entry is not None else -1
        if not self._margin_clears(outcome.attempts[-1].rber):
            # barely decoded: the optimum is drifting past this entry
            entry = min(entry + 1, len(self.table) - 1)
        self._pending.setdefault(key, []).append(entry)

    def commit_feedback(self) -> None:
        """Fold queued decode feedback into the ladder-start table.

        The committed start of a key is the rounded mean of its most
        recent ``history`` outcomes; a negative mean (default reads keep
        decoding) clears the prediction back to the cold walk.  Feedback
        queued inside :class:`repro.engine.ParallelMap` worker processes
        dies with the worker — commit boundaries belong to the caller.
        """
        for key, entries in self._pending.items():
            window = entries[-self.history:]
            start = int(round(float(np.mean(window))))
            if start < 0:
                self._starts.pop(key, None)
            else:
                self._starts[key] = min(start, len(self.table) - 1)
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
        key = (wordline.block, wordline.layer)
        success_entry: Optional[int] = None
        for entry in self._schedule(self._start_for(key, hint)):
            if self.attempt(wordline, outcome, self._offsets_of(entry)):
                success_entry = entry
                break
        outcome.pipelined_senses = outcome.retries
        self._note_feedback(key, success_entry, outcome)
        return outcome

    def read_batch(self, cols, pages, hints=None):
        """Lockstep batched read over the ladder schedules.

        Predictions are frozen for the whole batch (the same contract the
        serial path follows between commits), so each row's attempt
        sequence is a pure function of its (block, layer) key and hint —
        wave ``k`` senses exactly the attempts the serial loop would make,
        with per-row offset matrices carrying rows that sit at different
        ladder entries.  Falls back to the per-row loop when an active
        fault plan makes cross-row order observable.
        """
        from repro.faults import FAULTS

        if FAULTS.active:
            return super().read_batch(cols, pages, hints)
        spec = cols.spec
        gray = spec.gray
        n_rows = cols.n_wordlines
        keys: List[_Key] = []
        schedules: List[List[int]] = []
        for r in range(n_rows):
            key = (cols.block, spec.layer_of_wordline(cols.indices[r]))
            keys.append(key)
            hint = hints[r] if hints is not None else None
            schedules.append(self._schedule(self._start_for(key, hint)))
        n_v = len(self.table.entries[0])
        outcomes: List[List[ReadOutcome]] = [
            [None] * len(pages) for _ in range(n_rows)
        ]
        success_entries: List[List[Optional[int]]] = [
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
            wave = 0
            while active:
                rows = [r for r in active if wave < len(schedules[r])]
                if not rows:
                    break
                matrix = np.zeros((len(rows), n_v), dtype=np.float64)
                for i, r in enumerate(rows):
                    entry = schedules[r][wave]
                    if entry >= 0:
                        matrix[i] = self.table.entry(entry)
                batch = cols.read_page_batch(p, matrix, rows=rows)
                decoded = self.ecc.decode_ok_batch(batch.mismatch)
                still_failing = []
                for i, r in enumerate(rows):
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
                        success_entries[r][j] = schedules[r][wave]
                    else:
                        still_failing.append(r)
                active = still_failing
                wave += 1
        # feedback in canonical (row, page) order — the serial read order
        for r in range(n_rows):
            for j in range(len(pages)):
                out = outcomes[r][j]
                out.pipelined_senses = out.retries
                self._note_feedback(keys[r], success_entries[r][j], out)
        self._flush_batch_obs(outcomes)
        return outcomes
