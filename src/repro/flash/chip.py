"""Chip-level API: blocks, stress bookkeeping, and wordline access.

:class:`FlashChip` is a lazy factory — wordlines are materialized on demand,
deterministically from the chip seed, and a wordline's content depends
only on its identity and its block's current stress.  The chip keeps no
cells: each store it builds draws its own, except inside a
:func:`repro.flash.block.shared_cells` scope, where stores of one
identity share the cells the first one drew.
Block-level state is limited to the stress condition (P/E cycles,
retention, temperature, read count), which is exactly what the experiments
sweep; :meth:`FlashChip.map_wordlines` is the one block-sweep path.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.engine import ParallelMap, plan_wordline_shards
from repro.flash.mechanisms import StressState
from repro.flash.spec import FlashSpec
from repro.flash.wordline import Wordline

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
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.sentinel_ratio = sentinel_ratio
        self._stress: Dict[int, StressState] = {}

    # ------------------------------------------------------------------
    # stress bookkeeping
    # ------------------------------------------------------------------
    def set_block_stress(self, block: int, stress: StressState) -> None:
        """Set the stress at which later :meth:`wordline` and
        :meth:`block_columns` calls build the block.

        Handles and stores fetched before keep their stress: move a
        wordline with :meth:`Wordline.set_stress`, a store with
        :meth:`BlockColumns.restart`.
        """
        self._stress[block] = stress

    def block_stress(self, block: int) -> StressState:
        return self._stress.get(block, StressState())

    # ------------------------------------------------------------------
    # wordline access
    # ------------------------------------------------------------------
    def wordline(self, block: int, index: int) -> Wordline:
        """A fresh one-row handle at the block's current stress: the seed
        cells and a read-noise stream from its start."""
        return Wordline(
            self.spec,
            self.seed,
            block,
            index,
            stress=self.block_stress(block),
            sentinel_ratio=self.sentinel_ratio,
        )

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

        Each sub-batch is built once, at the first stress, and
        :meth:`BlockColumns.restart` re-stresses it for every further one,
        so a multi-stress sweep draws each wordline's cells once.  The
        calls of ``fn`` on one sub-batch then run back to back, stress
        after stress: ``fn`` must be a pure function of its batch (no
        state carried from one call to the next).

        With ``workers > 1`` each block's wordlines split into
        :func:`~repro.engine.plan_wordline_shards` shards fanned out over
        :class:`~repro.engine.ParallelMap` (``fn`` must pickle).  Every
        shard, serial ones included, rebuilds the chip from ``(spec,
        seed, sentinel_ratio)``: the seed tree keys all randomness by
        wordline identity, so the result is byte-identical at any worker
        count and any sub-batch size.
        """
        if wordlines is None:
            wordlines = range(self.spec.wordlines_per_block)
        wordlines = tuple(wordlines)
        runs = (
            [(self.block_stress(block),) for block in blocks]
            if stresses is None else [tuple(stresses)] * len(blocks)
        )
        units = [
            (run, shard)
            for block, run in zip(blocks, runs) if run
            for shard in plan_wordline_shards(block, wordlines, workers)
        ]
        per_unit = ParallelMap(workers=workers).run(
            partial(
                _sweep_shard, self.spec, self.seed, self.sentinel_ratio, fn
            ),
            units,
            label=label,
        )
        # stress-major merge: the canonical (stress, block, wordline) order
        return [
            item
            for per_stress in zip(*per_unit)
            for rows in per_stress
            for item in rows
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashChip({self.spec.name}, seed={self.seed}, "
            f"sentinel_ratio={self.sentinel_ratio})"
        )


def _sweep_shard(spec, seed, sentinel_ratio, fn, unit) -> List[List[Any]]:
    """Worker side of :meth:`FlashChip.map_wordlines`: one shard's rows,
    one list per stress; each sub-batch is built once and restarted."""
    stresses, shard = unit
    chip = FlashChip(spec, seed, sentinel_ratio)
    chip.set_block_stress(shard.block, stresses[0])
    per_stress: List[List[Any]] = [[] for _ in stresses]
    for cols in chip.iter_wordline_batches(shard.block, shard.wordlines):
        for k, stress in enumerate(stresses):
            if k:
                cols.restart(stress)
            per_stress[k].extend(fn(cols))
    return per_stress
