"""Shard planning: how a sweep splits across workers.

A *shard* is a contiguous run of a canonical-order work list — wordline
indices of one block, trace requests, fleet devices.  Contiguity matters
for cache behaviour, but the determinism contract only needs two
properties:

* every item appears in exactly one shard, and the concatenation of the
  shards in list order reproduces the input order (the *canonical shard
  order* the engine merges by);
* all randomness consumed inside a shard derives from the seed tree keyed
  by the item identity (``(chip_seed, stream, block, index)`` for a
  wordline), never from a stream shared across shards.

The chip model already satisfies the second property — every
:class:`~repro.flash.wordline.Wordline` owns its streams — so shard
workers simply rebuild their wordlines from the chip seed
(:meth:`repro.flash.chip.FlashChip.map_wordlines`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple, TypeVar

#: Shards planned per worker: small enough to keep per-shard pickling
#: overhead negligible, large enough that an unlucky slow shard (a
#: wordline needing many retries) does not serialize the whole pool.
SHARDS_PER_WORKER = 4

T = TypeVar("T")


def split_contiguous(items: Iterable[T], n_shards: int) -> List[Tuple[T, ...]]:
    """Cut ``items`` into ``n_shards`` near-equal contiguous runs.

    The count is clamped to ``[1, len(items)]``; the first ``len % n``
    runs take one extra item.  Concatenating the runs in list order
    reproduces the input exactly; no items give no runs.
    """
    items = list(items)
    if not items:
        return []
    n_shards = max(1, min(len(items), n_shards))
    base, rem = divmod(len(items), n_shards)
    runs: List[Tuple[T, ...]] = []
    start = 0
    for k in range(n_shards):
        size = base + (1 if k < rem else 0)
        runs.append(tuple(items[start:start + size]))
        start += size
    return runs


@dataclass(frozen=True)
class WordlineShard:
    """A contiguous run of wordline indices of one block."""

    block: int
    wordlines: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.wordlines)


def plan_wordline_shards(
    block: int,
    wordlines: Iterable[int],
    workers: int,
) -> List[WordlineShard]:
    """Split a wordline sweep into canonical-order shards.

    With ``workers <= 1`` the plan is a single shard (the serial path);
    otherwise up to ``workers * SHARDS_PER_WORKER`` near-equal contiguous
    chunks.  Concatenating ``shard.wordlines`` in list order always
    reproduces the input order exactly.
    """
    n_shards = 1 if workers <= 1 else workers * SHARDS_PER_WORKER
    return [
        WordlineShard(block=block, wordlines=run)
        for run in split_contiguous(wordlines, n_shards)
    ]
