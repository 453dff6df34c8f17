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
  ECC margin (:data:`MARGIN_FRACTION`) feed the ladder-start predictor,
  thin-margin decodes predict one entry deeper (the optimum is drifting
  past the entry that barely worked).

Determinism contract: predictions are **frozen while reads are in
flight** — decode feedback only queues, and is folded into the
per-(block, layer) start table when the caller invokes
:meth:`commit_feedback` (an FTL would do this from its background task).
So each read's ladder is a pure function of its (block, layer) key and
hint, which lets :class:`repro.retry.policy.ReadPolicy` read a columnar
batch in lockstep bit-identically to per-wordline reads, and keeps sharded
measurements worker-count-invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline
from repro.retry.current_flash import vendor_table
from repro.retry.policy import MAX_RETRIES, ReadOutcome, ReadPolicy

#: feedback key: (block, layer)
_Key = Tuple[int, int]

#: most recent outcomes per key that a committed ladder start averages
HISTORY = 8
#: a decode clears the ECC margin at or below this fraction of capability
MARGIN_FRACTION = 0.75


class AdaptiveRetryPolicy(ReadPolicy):
    """Vendor ladder with a learned per-(block, layer) starting entry."""

    name = "adaptive-retry"
    #: retries overlap sensing with the previous round's transfer + ECC
    pipelined = True

    def __init__(self, ecc: CapabilityEcc, spec: FlashSpec) -> None:
        super().__init__(ecc)
        self.spec = spec
        self.table = vendor_table(spec)
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
        column = self.table[:, sv]
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
        cap = MAX_RETRIES + 1
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

    def schedule(self, wordline, hint, outcome):
        start = self._start_for((wordline.block, wordline.layer), hint)
        return (
            None if entry < 0 else self.table[entry]
            for entry in self._schedule(start)
        )

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _margin_clears(self, rber: float) -> bool:
        return rber <= MARGIN_FRACTION * self.ecc.capability_rber

    def feedback(
        self, wordline: Wordline, hint: Optional[float], outcome: ReadOutcome
    ) -> None:
        # every retry round was sensed during the previous round's ECC
        outcome.pipelined_senses = outcome.retries
        key = (wordline.block, wordline.layer)
        last = len(self.table) - 1
        if not outcome.success:
            # the whole ladder failed: predict the deep end next time
            entry = last
        else:
            start = self._start_for(key, hint)
            entry = self._schedule(start)[len(outcome.attempts) - 1]
            if not self._margin_clears(outcome.attempts[-1].rber):
                # barely decoded: the optimum is drifting past this entry
                entry = min(entry + 1, last)
        self._pending.setdefault(key, []).append(entry)

    def commit_feedback(self) -> None:
        """Fold queued decode feedback into the ladder-start table.

        The committed start of a key is the rounded mean of its most
        recent :data:`HISTORY` outcomes; a negative mean (default reads keep
        decoding) clears the prediction back to the cold walk.  Feedback
        queued inside :class:`repro.engine.ParallelMap` worker processes
        dies with the worker — commit boundaries belong to the caller.
        """
        for key, entries in self._pending.items():
            window = entries[-HISTORY:]
            start = int(round(float(np.mean(window))))
            if start < 0:
                self._starts.pop(key, None)
            else:
                self._starts[key] = min(start, len(self.table) - 1)
        self._pending.clear()

    # perfbench/bench_trace.py wraps these two by name in this class's own
    # __dict__, so they stay here as delegations to the ReadPolicy drivers
    def read(self, wordline, page, hint=None):
        return super().read(wordline, page, hint)

    def read_batch(self, cols, pages, hints=None):
        return super().read_batch(cols, pages, hints)
