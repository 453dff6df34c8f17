"""Empirical retry profiles: the bridge from chip-level to system-level.

Running the cell-accurate flash model for every I/O of a multi-hour block
trace would be absurd; the paper itself feeds SSDSim with the retry
behaviour measured on its real chips.  We do the same: a
:class:`RetryProfile` measures the joint distribution of (retries, auxiliary
single-voltage reads) per page type for a given read policy on an aged
block, then replays i.i.d. samples per simulated read.

Each simulated read picks its sample with :meth:`RetryDraws.below`, one
bounded draw from the device model's own generator.  The draws equal
numpy's scalar ``Generator.integers(n)`` term for term, so a buffered
stream costs a few Python operations per read instead of a Generator
call, and no result moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flash.chip import FlashChip
from repro.obs import OBS
from repro.retry.policy import ReadPolicy
from repro.ssd.timing import NandTiming

#: raw 32-bit words fetched from the generator per refill
DRAW_CHUNK = 1024
_WORD = 1 << 32
_LOW = _WORD - 1


class RetryDraws:
    """Bounded integer draws from one generator, fetched in chunks.

    ``below(n)`` returns what ``rng.integers(n)`` would, call for call:
    numpy draws a bound of at most ``2**32`` with Lemire's
    multiply-and-reject rule (Lemire, "Fast Random Integer Generation in an
    Interval", arXiv 1805.10941) on the generator's 32-bit words, and
    ``integers(0, 2**32, size=k, dtype=np.uint32)`` hands out those same
    words in the same order.  So ``below`` scales a word by ``n``, keeps
    the high 32 bits, and redraws while the low 32 bits fall under
    ``(2**32 - n) % n``; ``n == 1`` takes no word.  The stream fetches
    words ahead of use, so it must be its generator's only consumer.
    """

    __slots__ = ("_rng", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._next = iter(()).__next__

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            words = self._rng.integers(
                0, _WORD, size=DRAW_CHUNK, dtype=np.uint32
            ).tolist()
            self._next = iter(words).__next__
            return self._next()

    def below(self, n: int) -> int:
        """One uniform draw from ``range(n)``, ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        if not 1 <= n <= _WORD:
            raise ValueError(f"bound {n} outside [1, 2**32]")
        m = self._word() * n
        if m & _LOW < n:  # n bounds the threshold: most words skip the mod
            threshold = (_WORD - n) % n
            while m & _LOW < threshold:
                m = self._word() * n
        return m >> 32


def _measure_shard(
    policy: ReadPolicy,
    pages: Tuple[int, ...],
    hint_fn: Optional[Callable[..., float]],
    cols,
) -> List[tuple]:
    """Measure one columnar sub-batch; rows in (wordline, page) order.

    The policy reads the sub-batch with :meth:`ReadPolicy.read_batch`, in
    kernel lockstep.  Each wordline's draws come from its own seed-tree
    streams in its per-row order, so the rows do not depend on the
    sub-batch size.  Emits one ``read_complete`` per row.
    """
    hints = None
    if hint_fn is not None:
        hints = [hint_fn(v) for v in cols.iter_views()]
    rows = [
        (
            p,
            outcome.retries,
            outcome.extra_single_reads,
            outcome.calibration_steps,
            bool(outcome.success),
        )
        for row_outcomes in policy.read_batch(cols, pages, hints)
        for p, outcome in zip(pages, row_outcomes)
    ]
    if OBS.enabled and OBS.tracer.enabled:
        for p, retries, extra, calibration_steps, success in rows:
            OBS.tracer.emit(
                "read_complete", policy=policy.name, page=p, retries=retries,
                extra=extra, calibration_steps=calibration_steps,
                success=success,
            )
    return rows


def _emit_read_spans(
    trace: str, row: tuple, n_voltages: int, pipelined: bool, t0: float
) -> float:
    """Emit one chip-level read's span tree in deterministic virtual time.

    Duration and phases come from :meth:`NandTiming.read_cost`, as in the
    serving layer; the last child is clamped to the root's end so float
    noise cannot open a gap.  Returns the read's duration so the caller
    can advance its cumulative clock."""
    page, retries, extra, calibration_steps, success = row
    phases: List[tuple] = []
    die, channel, overlap = NandTiming().read_cost(
        n_voltages, retries, extra, retries if pipelined else 0,
        phases=phases,
    )
    duration = die + channel - overlap
    t1 = t0 + duration
    OBS.tracer.emit(
        "span", trace=trace, span=0, parent=None, name="chip_read",
        t0=t0, t1=t1, page=page, retries=retries, extra=extra,
        calibration_steps=calibration_steps, success=success,
    )
    t = t0
    for j, (pname, pdur, pattrs) in enumerate(phases):
        p_t1 = t1 if j == len(phases) - 1 else t + pdur
        OBS.tracer.emit(
            "span", trace=trace, span=j + 1, parent=0, name=pname,
            t0=t, t1=p_t1, **pattrs,
        )
        t = p_t1
    return duration


@dataclass
class RetryProfile:
    """Per-page-type empirical (retries, extra single reads) samples."""

    policy_name: str
    page_voltages: Dict[int, int]  # page type -> voltages per full read
    samples: Dict[int, np.ndarray]  # page type -> (n, 2) [retries, extra]
    #: the measured policy pipelines speculative retry sensing (Park et
    #: al.); replayed reads price retries with the sense/transfer overlap
    #: shaved (see :meth:`NandTiming.read_cost`)
    pipelined: bool = False

    def __post_init__(self) -> None:
        # ``sample`` runs once per simulated read: it picks from these
        # per-page-type (retries, extra) int tuples, built once here,
        # instead of converting a numpy row on every draw
        self._rows: Dict[int, List[Tuple[int, int]]] = {
            p: [(int(r), int(e)) for r, e in np.asarray(v).tolist()]
            for p, v in self.samples.items()
        }

    # ------------------------------------------------------------------
    @classmethod
    def measure(
        cls,
        chip: FlashChip,
        policy: ReadPolicy,
        block: int = 0,
        wordlines: Optional[Sequence[int]] = None,
        pages: Optional[Sequence[int]] = None,
        hint_fn: Optional[Callable[..., float]] = None,
        name: Optional[str] = None,
        workers: int = 1,
        trace_prefix: str = "",
    ) -> "RetryProfile":
        """Measure a policy on one (aged) block of the chip model.

        ``hint_fn(wordline)`` supplies a cached sentinel-voltage offset per
        wordline, passed as the ``hint`` of every read — this is how the
        serving layer measures its *warm* profile (reads that start from a
        voltage-cache hit) alongside the cold one.  ``name`` overrides the
        stored policy name so both profiles stay distinguishable.

        The block is swept by :meth:`FlashChip.map_wordlines` at its
        current stress: each columnar sub-batch is read with the policy's
        ``read_batch`` (:func:`_measure_shard`), in lockstep batched
        sense/decode kernels.  With ``workers > 1`` the sweep fans out over
        :class:`repro.engine.ParallelMap`; the samples are byte-identical
        to a serial run because each wordline's randomness derives from its
        own seed-tree streams.  With span tracing on, read ``i`` is the
        span tree ``f"{trace_prefix}measure/{name}/{i}"``; a caller that
        measures one name more than once tells the runs apart by prefix.
        """
        spec = chip.spec
        if wordlines is None:
            step = max(1, spec.wordlines_per_block // 64)
            wordlines = range(0, spec.wordlines_per_block, step)
        page_list = list(pages) if pages is not None else list(
            range(spec.pages_per_wordline)
        )
        collected: Dict[int, List[Tuple[int, int]]] = {p: [] for p in page_list}
        voltages = {
            p: len(spec.gray.page_voltages(p)) for p in page_list
        }
        per_row = chip.map_wordlines(
            partial(_measure_shard, policy, tuple(page_list), hint_fn),
            wordlines,
            blocks=(block,),
            workers=workers,
            label="profile-measure",
        )
        # span trees emit here, post-merge, on one cumulative virtual
        # clock in canonical sweep order
        spans_on = (
            OBS.enabled and OBS.tracer.enabled and OBS.spans_enabled
        )
        pipelined = bool(getattr(policy, "pipelined", False))
        span_trace = f"{trace_prefix}measure/{name or policy.name}/"
        span_clock = 0.0
        for i, row in enumerate(per_row):
            p, retries, extra = row[0], row[1], row[2]
            collected[p].append((retries, extra))
            if spans_on:
                span_clock += _emit_read_spans(
                    f"{span_trace}{i}", row, voltages[p], pipelined,
                    span_clock,
                )
        return cls(
            policy_name=name or policy.name,
            page_voltages=voltages,
            samples={
                p: np.asarray(v, dtype=np.int64) for p, v in collected.items()
            },
            pipelined=pipelined,
        )

    # ------------------------------------------------------------------
    def sample(self, page_type: int, draws: RetryDraws) -> Tuple[int, int]:
        """Draw one (retries, extra single reads) pair for a page type."""
        rows = self._rows[page_type]
        return rows[draws.below(len(rows))]

    def mean_retries(self, page_type: Optional[int] = None) -> float:
        if page_type is not None:
            return float(self.samples[page_type][:, 0].mean())
        all_rows = np.vstack(list(self.samples.values()))
        return float(all_rows[:, 0].mean())

    def mean_read_us(self, timing: NandTiming) -> float:
        """Analytic mean read service time across page types."""
        costs = [
            timing.read_us(self.page_voltages[p], retries, extra,
                           pipelined=self.pipelined)
            for p, rows in self.samples.items() for retries, extra in rows
        ]
        return sum(costs) / len(costs) if costs else 0.0
