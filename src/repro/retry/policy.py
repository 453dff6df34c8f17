"""Common interface of all read policies.

A *read policy* drives a page read to ECC success: it decides which voltage
offsets every attempt uses and when to give up.  The outcome records enough
accounting (full-page senses, auxiliary single-voltage senses, transfers) for
the NAND timing model to price the whole operation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.ecc.capability import CapabilityEcc
from repro.faults import FAULTS
from repro.flash.wordline import Wordline, make_offsets
from repro.obs import OBS


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
    read voltages applied.  ``soft_decoded`` records the sensing mode of a
    last-resort soft decode, if one rescued the read.
    """

    page: int
    page_voltages: int  # voltages applied per full read of this page
    success: bool = False
    retries: int = 0
    extra_single_reads: int = 0
    calibration_steps: int = 0
    soft_decoded: Optional[str] = None
    #: retry rounds whose array sensing was issued speculatively during the
    #: previous round's transfer + ECC (Park et al., arXiv 2104.09611): the
    #: timing model overlaps those senses with the channel instead of
    #: serializing them.  0 for non-pipelined policies.
    pipelined_senses: int = 0
    attempts: List[ReadAttempt] = field(default_factory=list)

    @property
    def initial_rber(self) -> float:
        return self.attempts[0].rber if self.attempts else float("nan")

    @property
    def final_rber(self) -> float:
        return self.attempts[-1].rber if self.attempts else float("nan")

    @property
    def final_offsets(self) -> np.ndarray:
        return self.attempts[-1].offsets if self.attempts else np.zeros(0)

    @property
    def total_full_reads(self) -> int:
        return 1 + self.retries

    @property
    def total_voltage_senses(self) -> int:
        """Total sensing passes, the unit the latency model charges."""
        senses = self.total_full_reads * self.page_voltages + self.extra_single_reads
        if self.soft_decoded is not None:
            # a soft decode re-senses the page with extra reference reads
            # per voltage (3 for 2-bit, 7 for 3-bit sensing)
            per_voltage = {"soft2": 3, "soft3": 7}[self.soft_decoded]
            senses += self.page_voltages * per_voltage
        return senses


class ReadPolicy(ABC):
    """Drives page reads to ECC success under some retry strategy."""

    #: human-readable policy name used in reports
    name: str = "abstract"

    def __init__(self, ecc: CapabilityEcc, max_retries: int = 10) -> None:
        self.ecc = ecc
        self.max_retries = max_retries

    # ------------------------------------------------------------------
    def attempt(
        self,
        wordline: Wordline,
        outcome: ReadOutcome,
        offsets,
    ) -> bool:
        """Perform one full read, record it, and return decode success."""
        dense = make_offsets(wordline.spec, offsets)
        result = wordline.read_page(outcome.page, dense)
        decoded = self.ecc.decode_ok(result)
        if FAULTS.active:
            decoded = FAULTS.injector.ecc_verdict(
                wordline.block, wordline.index, decoded
            )
        outcome.attempts.append(
            ReadAttempt(offsets=dense, rber=result.rber, decoded=decoded)
        )
        if len(outcome.attempts) > 1:
            outcome.retries += 1
        outcome.success = decoded
        if OBS.enabled:
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
                    attempt=len(outcome.attempts),
                    rber=float(result.rber),
                    decoded=bool(decoded),
                )
        return decoded

    def new_outcome(self, wordline: Wordline, page: Union[int, str]) -> ReadOutcome:
        p = wordline.spec.gray.page_index(page)
        if OBS.enabled and OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_reads_total",
                help="page-read operations started",
                policy=self.name,
            ).inc()
        return ReadOutcome(
            page=p, page_voltages=len(wordline.spec.gray.page_voltages(p))
        )

    def soft_rescue(
        self,
        wordline: Wordline,
        outcome: ReadOutcome,
        modes: Sequence[str] = ("soft2", "soft3"),
    ) -> bool:
        """Last resort after retry exhaustion: soft-sensing decode.

        Re-senses the page at the best offsets seen so far with 2-bit and
        then 3-bit soft sensing; the extra reference reads raise the ECC
        capability (the Figure 19 effect).  Returns True if a soft mode
        decoded; the cost is recorded in ``outcome.soft_decoded``.
        """
        if outcome.success or not outcome.attempts:
            return outcome.success
        best = min(outcome.attempts, key=lambda a: a.rber)
        result = wordline.read_page(outcome.page, best.offsets)
        for mode in modes:
            if self.ecc.with_mode(mode).decode_ok(result):
                outcome.soft_decoded = mode
                outcome.success = True
                return True
        return False

    # ------------------------------------------------------------------
    def read_batch(
        self,
        cols,
        pages: Sequence[Union[int, str]],
        hints: Optional[Sequence[Optional[float]]] = None,
    ) -> List[List[ReadOutcome]]:
        """Read ``pages`` of every wordline of a columnar batch.

        ``cols`` is a :class:`repro.flash.block.BlockColumns`; the return
        value is ``outcomes[row][page_position]``.  The base implementation
        loops wordline views in row order — bit-identical to per-wordline
        reads by construction, and still faster than materializing
        wordlines because the batch was synthesized in one kernel.
        Policies whose retry ladder is data-independent (the vendor table)
        override this with lockstep batched kernels.
        """
        out: List[List[ReadOutcome]] = []
        for row in range(cols.n_wordlines):
            wl = cols.wordline_view(row)
            hint = hints[row] if hints is not None else None
            out.append([self.read(wl, p, hint=hint) for p in pages])
        return out

    def _flush_batch_obs(self, outcomes: List[List[ReadOutcome]]) -> None:
        """Emit the per-read obs a lockstep batch deferred, in row order.

        Lockstep batched reads process attempts page-major across rows, so
        they must not emit through :meth:`attempt` (the event order would
        depend on batching).  Instead they record silently and this helper
        replays the exact per-read stream — ``repro_reads_total`` /
        ``repro_read_attempts_total`` increments and one ``read_attempt``
        event per attempt — in canonical (row, page, attempt) order.
        """
        if not OBS.enabled:
            return
        for row in outcomes:
            for outcome in row:
                if OBS.metrics.enabled:
                    OBS.metrics.counter(
                        "repro_reads_total",
                        help="page-read operations started",
                        policy=self.name,
                    ).inc()
                for k, att in enumerate(outcome.attempts):
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

    # ------------------------------------------------------------------
    @abstractmethod
    def read(
        self,
        wordline: Wordline,
        page: Union[int, str],
        hint: Optional[float] = None,
    ) -> ReadOutcome:
        """Read a page to completion (success or retry exhaustion).

        ``hint`` is an optional cached sentinel-voltage offset (in voltage
        steps) from an earlier read of the same block/layer — e.g. from a
        :class:`repro.service.voltage_cache.VoltageOffsetCache`.  Policies
        that know how to derive per-voltage offsets from it (the sentinel
        controller) start their first attempt there instead of at the
        default voltages; others ignore it.
        """
