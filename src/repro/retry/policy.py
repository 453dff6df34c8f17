"""Common base of all read policies.

A *read policy* drives a page read to ECC success: it decides which voltage
offsets every attempt uses and when to give up (:data:`MAX_RETRIES`).  The
outcome records enough accounting (full-page senses, auxiliary
single-voltage senses, transfers) for the NAND timing model to price the
whole operation.

Every policy only declares a per-read offset :meth:`ReadPolicy.schedule`;
:class:`ReadPolicy` reads it in lockstep over a columnar batch, and a
one-wordline read is a one-row batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.faults import FAULTS
from repro.flash.wordline import Wordline
from repro.obs import OBS

#: the retry cap every policy's schedule is built on: full page re-reads
#: after the first attempt (the sentinel flow counts its calibration and
#: vendor-table retries from its own default read)
MAX_RETRIES = 10


@dataclass(frozen=True)
class ReadAttempt:
    """One full page read attempt."""

    offsets: np.ndarray
    rber: float
    decoded: bool


@dataclass
class ReadOutcome:
    """Accounting of a complete page-read operation.

    ``retries`` counts full page re-reads after the initial attempt — the
    quantity of Figure 13.  ``extra_single_reads`` counts auxiliary
    one-voltage senses (the sentinel read of Section III-B and the
    state-change comparison reads of Section III-C), which are much cheaper
    than retries because sensing latency is proportional to the number of
    read voltages applied.
    """

    page: int
    page_voltages: int  # voltages applied per full read of this page
    success: bool = False
    retries: int = 0
    extra_single_reads: int = 0
    calibration_steps: int = 0
    #: retry rounds whose array sensing was issued speculatively during the
    #: previous round's transfer + ECC (Park et al., arXiv 2104.09611): the
    #: timing model overlaps those senses with the channel instead of
    #: serializing them.  0 for non-pipelined policies.
    pipelined_senses: int = 0
    attempts: List[ReadAttempt] = field(default_factory=list)
    #: obs not yet emitted, as ``(index of the attempt it precedes,
    #: emit)``: schedule events (:meth:`ReadPolicy.note`) and page decodes
    notes: List[tuple] = field(default_factory=list, repr=False, compare=False)

    @property
    def final_rber(self) -> float:
        return self.attempts[-1].rber if self.attempts else float("nan")

    @property
    def final_offsets(self) -> np.ndarray:
        return self.attempts[-1].offsets if self.attempts else np.zeros(0)


@dataclass(frozen=True)
class ScheduleEvent:
    """A trace event a schedule raises between attempts, and its counter."""

    kind: str
    counter: str
    help: str
    #: event fields that also label the counter
    labels: Tuple[str, ...] = ()

    def emit(self, policy: str, page: int, fields: dict) -> None:
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                self.counter,
                help=self.help,
                **{label: fields[label] for label in self.labels},
            ).inc()
        if OBS.tracer.enabled:
            OBS.tracer.emit(self.kind, policy=policy, page=page, **fields)


#: ``next()`` default that marks an exhausted schedule
_EXHAUSTED = object()


class ReadPolicy(ABC):
    """Drives page reads to ECC success under some retry strategy.

    A subclass only declares :meth:`schedule` — per wordline read, the
    offsets it tries in order until one decodes — and, if it learns, a
    :meth:`feedback` hook.  This base owns the one read driver, which
    walks every row of a columnar batch in lockstep, page by page: wave
    ``k`` senses attempt ``k`` of every still-failing row with one
    ``read_page_batch`` + ``decode_ok_batch`` call.  :meth:`read_batch`
    drives every row of a store; :meth:`read` drives one wordline's row.

    Each row reads exactly as if it were read alone, one page after the
    other, also under an active fault plan.  A schedule is resumed only
    after its previous attempt failed, so any auxiliary sense it makes
    then (the sentinel readout, the calibration comparison) falls between
    the same two senses of its row; rows draw read noise from their own
    streams, and fault decisions are keyed per wordline with a per-target
    ordinal, so only rows interleave.  Schedules are consumed lazily, so
    an entry that is costly to compute (OPT's optimum) is computed only
    once the attempt before it has failed.  :meth:`feedback` runs once per
    read, in canonical (row, page) order, and so does every read's obs,
    the events its schedule raised through :meth:`note` included.
    """

    #: human-readable policy name used in reports
    name: str = "abstract"

    def __init__(self, ecc: CapabilityEcc) -> None:
        self.ecc = ecc

    # ------------------------------------------------------------------
    def _record(
        self,
        wordline: Wordline,
        outcome: ReadOutcome,
        dense: np.ndarray,
        rber: float,
        decoded: bool,
    ) -> bool:
        """Append one sensed attempt after the ECC fault verdict; return it."""
        decoded = FAULTS.ecc_verdict(wordline.block, wordline.index, decoded)
        outcome.attempts.append(
            ReadAttempt(offsets=dense, rber=rber, decoded=decoded)
        )
        if len(outcome.attempts) > 1:
            outcome.retries += 1
        outcome.success = decoded
        return decoded

    # ------------------------------------------------------------------
    # observability (callers check OBS.enabled)
    # ------------------------------------------------------------------
    def _note_read(self) -> None:
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_reads_total",
                help="page-read operations started",
                policy=self.name,
            ).inc()

    def _note_attempt(self, outcome: ReadOutcome, k: int) -> None:
        att = outcome.attempts[k]
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_read_attempts_total",
                help="full page read attempts (initial + retries)",
                policy=self.name,
            ).inc()
        if OBS.tracer.enabled:
            OBS.tracer.emit(
                "read_attempt",
                policy=self.name,
                page=outcome.page,
                attempt=k + 1,
                rber=float(att.rber),
                decoded=bool(att.decoded),
            )

    def _emit_notes(self, outcome: ReadOutcome, upto: int) -> None:
        """Emit (and drop) the noted obs that precedes attempt ``upto``."""
        notes = outcome.notes
        while notes and notes[0][0] <= upto:
            notes.pop(0)[1]()

    @staticmethod
    def _note_decodes(
        outcome: ReadOutcome, deferred: List[Callable[[], None]]
    ) -> None:
        """Queue page decodes (``ecc_decode``) at the read's current place:
        just before its next ``read_attempt``, or at its end."""
        for emit in deferred:
            outcome.notes.append((len(outcome.attempts), emit))

    def _flush_batch_obs(self, outcomes: List[List[ReadOutcome]]) -> None:
        """Emit the per-read obs a lockstep batch deferred, in row order.

        Lockstep reads process attempts page-major across rows, so they
        must not emit as they sense (the event order would depend on
        batching).  Instead they record silently and this helper replays
        the exact per-read stream — ``repro_reads_total``, then per
        attempt the schedule events noted before it, its ``ecc_decode``
        and its ``read_attempt``, then the events noted after the last —
        in canonical (row, page, attempt) order.
        """
        if not OBS.enabled:
            return
        for row in outcomes:
            for outcome in row:
                self._note_read()
                for k in range(len(outcome.attempts)):
                    self._emit_notes(outcome, k)
                    self._note_attempt(outcome, k)
                self._emit_notes(outcome, len(outcome.attempts))

    # ------------------------------------------------------------------
    @abstractmethod
    def schedule(
        self, wordline: Wordline, hint: Optional[float], outcome: ReadOutcome
    ) -> Iterable[Optional[np.ndarray]]:
        """The offsets of each attempt of one read, in order (lazily).

        Each is ``None`` (the default voltages) or a dense per-voltage
        vector; ``hint`` is as in :meth:`read`.  ``outcome`` is the read
        so far: when resumed after a failed attempt, a schedule may sense
        ``wordline`` itself, charge those senses to ``outcome`` and read
        its live ``retries``.
        """

    def feedback(
        self, wordline: Wordline, hint: Optional[float], outcome: ReadOutcome
    ) -> None:
        """Learn from one finished read (default: nothing to learn)."""

    def note(self, outcome: ReadOutcome, event: ScheduleEvent, **fields) -> None:
        """Queue one schedule event of a read for its driver to emit.

        It is emitted just before the read's next ``read_attempt`` (or at
        the end of the read), in the read's canonical place on both paths.
        """
        if OBS.enabled:
            outcome.notes.append((
                len(outcome.attempts),
                partial(event.emit, self.name, outcome.page, fields),
            ))

    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        """Read a page to completion (success or retry exhaustion).

        The one-row form of :meth:`read_batch`: it drives only
        ``wordline``'s row of its store.  ``hint`` is an optional cached
        sentinel-voltage offset (in voltage steps) from an earlier read of
        the same block/layer — e.g. from a
        :class:`repro.service.voltage_cache.VoltageOffsetCache`.  Policies
        that know how to use it (the sentinel controller, adaptive retry,
        the online model) start their first attempt from it; others
        ignore it.
        """
        return self._lockstep(wordline.store, [wordline], [page], [hint])[0][0]

    def read_batch(
        self,
        cols,
        pages: Sequence[Union[int, str]],
        hints: Optional[Sequence[Optional[float]]] = None,
    ) -> List[List[ReadOutcome]]:
        """Read ``pages`` of every wordline of a columnar batch, in lockstep.

        ``cols`` is a :class:`repro.flash.block.BlockColumns`; the return
        value is ``outcomes[row][page_position]``.  Each row's view is
        built once and shared by all pages.
        """
        views = list(cols.iter_views())
        if hints is None:
            hints = [None] * len(views)
        return self._lockstep(cols, views, pages, hints)

    def _lockstep(
        self,
        cols,
        views: List[Wordline],
        pages: Sequence[Union[int, str]],
        hints: Sequence[Optional[float]],
    ) -> List[List[ReadOutcome]]:
        """The read driver: ``pages`` of each view's row of ``cols``.

        Per-read obs is deferred to :meth:`_flush_batch_obs`.
        """
        spec = cols.spec
        store_rows = [view.row for view in views]
        outcomes: List[List[ReadOutcome]] = [[] for _ in views]
        for page in pages:
            p = spec.gray.page_index(page)
            n_pv = len(spec.gray.page_voltages(p))
            outs = [ReadOutcome(page=p, page_voltages=n_pv) for _ in views]
            walks = [
                iter(self.schedule(v, h, o))
                for v, h, o in zip(views, hints, outs)
            ]
            active = range(len(views))
            while active:
                rows, steps = [], []
                for r in active:
                    step = next(walks[r], _EXHAUSTED)
                    if step is not _EXHAUSTED:
                        rows.append(r)
                        steps.append(step)
                if not rows:
                    break
                matrix = np.zeros((len(rows), spec.n_voltages))
                for i, step in enumerate(steps):
                    if step is not None:
                        matrix[i] = step
                batch = cols.read_page_batch(
                    p, matrix, rows=[store_rows[r] for r in rows]
                )
                deferred: List[Callable[[], None]] = []
                decoded = self.ecc.decode_ok_batch(batch.mismatch, deferred)
                active = []
                for i, r in enumerate(rows):
                    # one decode per row when obs is on, none when off
                    self._note_decodes(outs[r], deferred[i : i + 1])
                    if not self._record(
                        views[r], outs[r], batch.offsets[i],
                        float(batch.rber[i]), bool(decoded[i]),
                    ):
                        active.append(r)
            for out, row in zip(outs, outcomes):
                row.append(out)
        for view, hint, row in zip(views, hints, outcomes):
            for out in row:
                self.feedback(view, hint, out)
        self._flush_batch_obs(outcomes)
        return outcomes
