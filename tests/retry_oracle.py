"""A per-row reference of the retry read driver, for tests only.

:class:`repro.retry.policy.ReadPolicy` has one read driver: it walks the
schedules of a store's rows in lockstep, sensing attempt ``k`` of every
still-failing row with one batched page read, and defers each read's obs
to the end.  ``policy.read`` is the one-row form of that driver.

This module keeps the plain per-row statement the driver must equal: one
wordline at a time, one page at a time, each attempt sensed through
``Wordline.read_page`` and decoded by ``ecc.decode_ok``, its obs emitted
as it happens.  Tests compare ``read_batch`` and ``read`` against it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.flash.wordline import Wordline, make_offsets
from repro.obs import OBS
from repro.retry.policy import ReadOutcome, ReadPolicy


def read(
    policy: ReadPolicy,
    wordline: Wordline,
    page: Union[int, str],
    hint: Optional[float] = None,
) -> ReadOutcome:
    """One page read walked attempt by attempt on one wordline."""
    spec = wordline.spec
    p = spec.gray.page_index(page)
    if OBS.enabled:
        policy._note_read()
    outcome = ReadOutcome(page=p, page_voltages=len(spec.gray.page_voltages(p)))
    for offsets in policy.schedule(wordline, hint, outcome):
        k = len(outcome.attempts)
        if OBS.enabled:
            policy._emit_notes(outcome, k)
        dense = make_offsets(spec, offsets)
        result = wordline.read_page(p, dense)
        decoded = policy._record(
            wordline, outcome, dense, result.rber, policy.ecc.decode_ok(result)
        )
        if OBS.enabled:
            policy._note_attempt(outcome, k)
        if decoded:
            break
    if OBS.enabled:
        policy._emit_notes(outcome, len(outcome.attempts))
    policy.feedback(wordline, hint, outcome)
    return outcome


def read_rows(
    policy: ReadPolicy,
    cols,
    pages: Sequence[Union[int, str]],
    hints: Optional[Sequence[Optional[float]]] = None,
) -> List[List[ReadOutcome]]:
    """What ``policy.read_batch(cols, pages, hints)`` must return: each
    row's pages read in turn through :func:`read`, rows in order."""
    hints = hints if hints is not None else [None] * cols.n_wordlines
    return [
        [read(policy, wl, p, hint=h) for p in pages]
        for wl, h in zip(cols.iter_views(), hints)
    ]
