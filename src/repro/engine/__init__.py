"""Deterministic parallel simulation engine (``repro.engine``).

The cell-accurate chip model is embarrassingly parallel across
(block, wordline): every wordline derives all of its randomness from the
:mod:`repro.util.rng` seed tree keyed by ``(chip_seed, stream, block,
index)``, so shards of wordlines can be evaluated in any order — or in
separate processes — and still produce exactly the cells and noise the
serial loop would.  :class:`ParallelMap` exploits that: it fans shards out
over a ``ProcessPoolExecutor`` and merges results **in canonical shard
order**, making parallel output byte-identical to serial.  Inside one
process, :func:`run_lanes` splits a batched flash kernel's rows across
:func:`lane_count` threads, under the same byte-identity rule.

See ``docs/PERFORMANCE.md`` for the determinism contract and the
sharding scheme.
"""

from repro.engine.parallel import (
    EngineReport,
    ParallelMap,
    available_workers,
    close_lanes,
    lane_count,
    merge_in_order,
    run_lanes,
    run_sharded,
)
from repro.engine.shards import (
    WordlineShard,
    plan_wordline_shards,
    split_contiguous,
)

__all__ = [
    "EngineReport",
    "ParallelMap",
    "available_workers",
    "close_lanes",
    "lane_count",
    "merge_in_order",
    "run_lanes",
    "WordlineShard",
    "plan_wordline_shards",
    "split_contiguous",
]
