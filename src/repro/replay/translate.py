"""Block-address translation: ``TraceRequest`` -> logical page extents.

MSR-style traces speak byte offsets on a volume; the serving layer speaks
logical pages (and its FTL maps those to physical (die, block, page)
slots).  :class:`LbaTranslator` does the first hop — LBA bytes to a
``(first_lpn, n_pages)`` extent, time-scaled virtual arrival included —
and is deliberately a pure per-request function so the preprocessing
stage shards across worker processes with byte-identical results at any
worker count (the :mod:`repro.engine` contract).

Oversized requests are capped at ``MAX_PAGES_PER_REQUEST`` pages (the
broker's per-die queue limits make a 256-page chain unadmittable anyway);
the cut is *counted* in ``truncated_pages``, never silent, mirroring how
the MSR parser surfaces its sector clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineReport, run_sharded
from repro.engine.shards import SHARDS_PER_WORKER, split_contiguous
from repro.service.workload import ServiceRequest
from repro.traces.trace import Trace, TraceRequest

#: pages one translated request covers at most
MAX_PAGES_PER_REQUEST = 8


@dataclass(frozen=True)
class TranslatedRequest:
    """One trace request in the serving layer's units."""

    is_read: bool
    lpn: int  # first logical page
    n_pages: int
    arrival_us: float  # scaled virtual arrival


class LbaTranslator:
    """Pure LBA-bytes -> logical-page-extent translation.

    ``scale`` compresses trace time: arrivals land at
    ``time_s * 1e6 / scale`` virtual microseconds, so ``scale=20`` replays
    a lightly-loaded volume trace at 20x its recorded rate (the usual
    accelerated-replay methodology of trace-driven SSD studies).
    """

    def __init__(self, page_bytes: int, scale: float = 1.0) -> None:
        if page_bytes < 512:
            raise ValueError("page_bytes must be at least one sector")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.page_bytes = page_bytes
        self.scale = scale

    def translate(self, req: TraceRequest) -> Tuple[TranslatedRequest, int]:
        """One request -> (translated extent, pages cut by the cap)."""
        first = req.lba_bytes // self.page_bytes
        last = (req.lba_bytes + req.size_bytes - 1) // self.page_bytes
        n_pages = int(last - first + 1)
        truncated = max(0, n_pages - MAX_PAGES_PER_REQUEST)
        return (
            TranslatedRequest(
                is_read=req.is_read,
                lpn=int(first),
                n_pages=n_pages - truncated,
                arrival_us=req.time_s * 1e6 / self.scale,
            ),
            truncated,
        )


class _TranslateShardFn:
    """Picklable shard worker: translate one contiguous request run.

    A class (not a closure) so it ships into
    :class:`repro.engine.ParallelMap` worker processes.
    """

    def __init__(self, translator: LbaTranslator) -> None:
        self.translator = translator

    def __call__(
        self, chunk: Tuple[TraceRequest, ...]
    ) -> Dict[str, object]:
        requests: List[TranslatedRequest] = []
        stats = {
            "reads": 0, "writes": 0,
            "read_pages": 0, "write_pages": 0,
            "truncated_pages": 0,
        }
        for req in chunk:
            translated, truncated = self.translator.translate(req)
            requests.append(translated)
            stats["truncated_pages"] += truncated
            if translated.is_read:
                stats["reads"] += 1
                stats["read_pages"] += translated.n_pages
            else:
                stats["writes"] += 1
                stats["write_pages"] += translated.n_pages
        return {"requests": requests, "stats": stats}


def plan_request_shards(
    requests: Sequence[TraceRequest], workers: int
) -> List[Tuple[TraceRequest, ...]]:
    """Contiguous near-equal request runs in canonical (trace) order.

    Concatenating the shards in list order reproduces the input order
    exactly — the merge contract that keeps sharded preprocessing
    byte-identical to serial.
    """
    n_shards = 1 if workers <= 1 else workers * SHARDS_PER_WORKER
    return split_contiguous(requests, n_shards)


def translate_trace(
    trace: Trace,
    translator: LbaTranslator,
    workers: int = 1,
) -> Tuple[List[TranslatedRequest], Dict[str, int], Optional[EngineReport]]:
    """Translate a whole trace, sharded over ``workers`` processes.

    Returns ``(requests in trace order, summed stats, engine report)`` —
    the request list and stats are byte-identical at any worker count;
    only the engine report (wall-clock accounting) varies, and it never
    feeds the replay report's JSON.
    """
    stats = {
        "reads": 0, "writes": 0,
        "read_pages": 0, "write_pages": 0,
        "truncated_pages": 0,
    }
    shards = plan_request_shards(trace.requests, workers)
    if not shards:
        return [], stats, None
    results, engine_report = run_sharded(
        _TranslateShardFn(translator), shards, workers=workers,
        label="replay-translate",
    )
    requests: List[TranslatedRequest] = []
    for result in results:
        requests.extend(result["requests"])
        for key in stats:
            stats[key] += result["stats"][key]
    return requests, stats, engine_report


def service_requests(
    translated: Sequence[TranslatedRequest],
    client: str,
    start_us: float = 0.0,
) -> List[ServiceRequest]:
    """One open-loop client's :class:`ServiceRequest` stream from a
    translated trace, every arrival shifted by ``start_us``."""
    return [
        ServiceRequest(
            client=client,
            index=i,
            is_read=t.is_read,
            lpn=t.lpn,
            n_pages=t.n_pages,
            arrival_us=start_us + t.arrival_us,
        )
        for i, t in enumerate(translated)
    ]
