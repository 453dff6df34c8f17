"""Chip-level API: blocks, stress bookkeeping, and wordline access.

:class:`FlashChip` is a lazy factory — wordlines are materialized on demand
(deterministically from the chip seed) and a small LRU cache keeps the hot
ones.  Block-level state is limited to the stress condition (P/E cycles,
retention, temperature, read count), which is exactly what the experiments
sweep.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.engine import ParallelMap, plan_wordline_shards
from repro.flash.mechanisms import StressState
from repro.flash.spec import FlashSpec
from repro.flash.variation import BlockVariation
from repro.flash.wordline import OffsetsLike, ReadResult, Wordline

# re-exported for convenience: most callers import StressState from here
__all__ = ["FlashChip", "StressState", "SWEEP_BATCH_CELLS"]

#: Cells per columnar sub-batch of a block sweep: bounds peak memory on
#: whole-block sweeps at paper scale (~150 MB of column arrays per batch).
SWEEP_BATCH_CELLS = 1 << 23


class FlashChip:
    """A simulated 3D NAND chip.

    Parameters
    ----------
    spec:
        Chip specification (usually a :meth:`FlashSpec.scaled` copy).
    seed:
        Chip identity; two chips with the same seed are identical, two chips
        with different seeds are distinct dies of the same production batch
        (same reliability parameters, different realizations) — which is how
        the paper justifies programming one chip's fitted models into all
        chips of a batch.
    sentinel_ratio:
        Fraction of each wordline reserved as sentinel cells (0 disables).
    """

    def __init__(
        self,
        spec: FlashSpec,
        seed: int = 0,
        sentinel_ratio: float = 0.002,
        cache_wordlines: int = 16,
    ) -> None:
        if sentinel_ratio and not spec.sentinel_fits_in_free_oob(sentinel_ratio):
            # Allowed, but flagged: Section IV-C evaluates exactly this case
            # (sentinels stealing ECC parity space).
            self.sentinels_fit_oob = False
        else:
            self.sentinels_fit_oob = True
        self.spec = spec
        self.seed = seed
        self.sentinel_ratio = sentinel_ratio
        self._stress: Dict[int, StressState] = {}
        self._variation: Dict[int, BlockVariation] = {}
        self._cache: "OrderedDict[tuple, Wordline]" = OrderedDict()
        self._cache_size = cache_wordlines
        self._erase_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # stress bookkeeping
    # ------------------------------------------------------------------
    def set_block_stress(self, block: int, stress: StressState) -> None:
        """Set the stress condition of a block; cached wordlines follow."""
        self._stress[block] = stress
        for (b, _), wl in self._cache.items():
            if b == block:
                wl.set_stress(stress)

    def block_stress(self, block: int) -> StressState:
        return self._stress.get(block, StressState())

    def erase_block(self, block: int) -> None:
        """Erase bookkeeping: bumps the wear counter, resets retention."""
        count = self._erase_counts.get(block, 0) + 1
        self._erase_counts[block] = count
        prior = self.block_stress(block)
        self.set_block_stress(
            block,
            StressState(pe_cycles=max(prior.pe_cycles, count), retention_hours=0.0),
        )

    def erase_count(self, block: int) -> int:
        return self._erase_counts.get(block, 0)

    # ------------------------------------------------------------------
    # wordline access
    # ------------------------------------------------------------------
    def block_variation(self, block: int) -> BlockVariation:
        if block not in self._variation:
            self._variation[block] = BlockVariation(self.spec, self.seed, block)
        return self._variation[block]

    def wordline(self, block: int, index: int) -> Wordline:
        """Materialize (or fetch from cache) one wordline."""
        key = (block, index)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            stress = self.block_stress(block)
            if cached.stress != stress:
                cached.set_stress(stress)
            return cached
        wl = Wordline(
            self.spec,
            self.seed,
            block,
            index,
            stress=self.block_stress(block),
            sentinel_ratio=self.sentinel_ratio,
            variation=self.block_variation(block),
        )
        self._cache[key] = wl
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return wl

    def block_columns(
        self, block: int, indices: Optional[Sequence[int]] = None
    ) -> "BlockColumns":
        """Materialize wordlines of a block as one columnar store.

        Returns a :class:`repro.flash.block.BlockColumns` — wordlines as
        rows of dense (W, N) arrays, synthesized by one batched kernel.
        Bit-identical to materializing the same wordlines one by one;
        :meth:`BlockColumns.wordline_view` recovers the per-wordline API.
        """
        from repro.flash.block import BlockColumns

        return BlockColumns(
            self.spec,
            self.seed,
            block,
            indices,
            self.sentinel_ratio,
            stress=self.block_stress(block),
            variation=self.block_variation(block),
        )

    def iter_wordline_batches(
        self,
        block: int,
        indices: Optional[Sequence[int]] = None,
        batch: Optional[int] = None,
    ) -> Iterator["BlockColumns"]:
        """Yield columnar sub-batches of a block in wordline order.

        Each batch is one :class:`BlockColumns` of up to ``batch``
        wordlines (default: :data:`SWEEP_BATCH_CELLS` cells' worth),
        materialized, yielded, and garbage-collected as the caller
        advances — bounding peak memory on paper-scale blocks.
        """
        if indices is None:
            indices = range(self.spec.wordlines_per_block)
        indices = list(indices)
        if batch is None:
            batch = SWEEP_BATCH_CELLS // max(self.spec.cells_per_wordline, 1)
        batch = max(1, batch)
        for b0 in range(0, len(indices), batch):
            yield self.block_columns(block, indices[b0 : b0 + batch])

    def map_wordlines(
        self,
        fn: Callable[["BlockColumns"], List[Any]],
        wordlines: Optional[Sequence[int]] = None,
        blocks: Sequence[int] = (0,),
        stresses: Optional[Sequence[StressState]] = None,
        workers: int = 1,
        label: str = "block-sweep",
    ) -> List[Any]:
        """Run ``fn`` over every listed wordline of ``blocks``; one list out.

        The one block-sweep path.  The sweep runs in canonical (stress,
        block, wordline) order — ``stresses=None`` sweeps each block once
        at its current stress.  ``fn(cols)`` gets each columnar sub-batch
        (:meth:`iter_wordline_batches`) and returns a list; the lists are
        concatenated in sweep order.

        With ``workers > 1`` the (stress, block) runs split into
        :func:`~repro.engine.plan_wordline_shards` shards fanned out over
        :class:`~repro.engine.ParallelMap` (``fn`` must pickle).  Every
        shard, serial ones included, rebuilds the chip from ``(spec,
        seed, sentinel_ratio)`` and sets its block's stress: the seed tree
        keys all randomness by wordline identity, so the result is
        byte-identical at any worker count and any sub-batch size.
        """
        if wordlines is None:
            wordlines = range(self.spec.wordlines_per_block)
        wordlines = tuple(wordlines)
        units = [
            (self.block_stress(block) if stress is None else stress, shard)
            for stress in (stresses if stresses is not None else (None,))
            for block in blocks
            for shard in plan_wordline_shards(block, wordlines, workers)
        ]
        per_unit = ParallelMap(workers=workers).run(
            partial(
                _sweep_shard, self.spec, self.seed, self.sentinel_ratio, fn
            ),
            units,
            label=label,
        )
        return [item for rows in per_unit for item in rows]

    # ------------------------------------------------------------------
    # convenience reads
    # ------------------------------------------------------------------
    def read_page(
        self,
        block: int,
        wordline: int,
        page: "int | str",
        offsets: OffsetsLike = None,
    ) -> ReadResult:
        return self.wordline(block, wordline).read_page(page, offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashChip({self.spec.name}, seed={self.seed}, "
            f"sentinel_ratio={self.sentinel_ratio})"
        )


def _sweep_shard(spec, seed, sentinel_ratio, fn, unit) -> List[Any]:
    """Worker side of :meth:`FlashChip.map_wordlines`: one shard's rows."""
    stress, shard = unit
    chip = FlashChip(spec, seed, sentinel_ratio)
    chip.set_block_stress(shard.block, stress)
    rows: List[Any] = []
    for cols in chip.iter_wordline_batches(shard.block, shard.wordlines):
        rows.extend(fn(cols))
    return rows
