"""Page-mapping FTL with greedy garbage collection.

Logical pages map to physical (die, block, page) slots; writes append to a
per-die active block (dies are filled round-robin for parallelism, as in
SSDSim's dynamic allocation).  When a die runs low on free blocks, greedy GC
picks the block with the fewest valid pages, migrates them, and erases.

The FTL emits :class:`PhysicalOp` lists; the :class:`repro.ssd.ssd.Ssd`
device model prices and schedules them.  GC migration reads are real reads —
they go through the same read-retry machinery as host reads, which is one of
the reasons slow reads hurt write tails too.

All state is plain Python lists and ints: every host write and every GC
migration runs through here one page at a time, where numpy scalars cost
more than they save.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.obs import OBS
from repro.ssd.config import (
    GC_FREE_BLOCK_THRESHOLD, GC_STOP_FREE_BLOCKS, SsdConfig,
)

INVALID = -1


class PhysicalOp(NamedTuple):
    """One NAND operation the device must execute."""

    kind: str  # "read" | "program" | "erase"
    die: int
    block: int
    page: int  # page within block (unused for erase)
    gc: bool = False  # internal (GC) operation


class _DieState:
    """Bookkeeping of one die's blocks."""

    __slots__ = (
        "free_blocks",
        "active_block",
        "write_page",
        "valid_count",
        "erase_count",
        "page_lpn",
        "sealed",
    )

    def __init__(self, blocks: int, pages_per_block: int) -> None:
        self.free_blocks: List[int] = list(range(blocks))
        self.active_block: int = self.free_blocks.pop()
        self.write_page: int = 0
        self.valid_count: List[int] = [0] * blocks
        self.erase_count: List[int] = [0] * blocks
        # reverse map: lpn stored in each physical slot, one list per block
        self.page_lpn: List[List[int]] = [
            [INVALID] * pages_per_block for _ in range(blocks)
        ]
        self.sealed: List[int] = []  # fully-written blocks eligible for GC

    def take_free_block(self) -> int:
        """Allocate a free block; dynamic wear leveling takes the least
        erased one so wear spreads instead of ping-ponging on a few blocks."""
        if not self.free_blocks:
            raise RuntimeError("no free blocks")
        best = min(self.free_blocks, key=self.erase_count.__getitem__)
        self.free_blocks.remove(best)
        return best


class PageMappingFtl:
    """Page-level mapping across all dies of the SSD."""

    def __init__(self, config: SsdConfig) -> None:
        self.config = config
        self.mapping: List[int] = [INVALID] * config.logical_pages
        self._dies = [
            _DieState(config.blocks_per_die, config.pages_per_block)
            for _ in range(config.n_dies)
        ]
        self._next_die = 0
        self.host_writes = 0
        self.gc_writes = 0
        self.gc_erases = 0

    # ------------------------------------------------------------------
    # physical address packing
    # ------------------------------------------------------------------
    def _pack(self, die: int, block: int, page: int) -> int:
        c = self.config
        return (die * c.blocks_per_die + block) * c.pages_per_block + page

    def _unpack(self, ppn: int) -> Tuple[int, int, int]:
        c = self.config
        blk_global, page = divmod(ppn, c.pages_per_block)
        die, block = divmod(blk_global, c.blocks_per_die)
        return die, block, page

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def translate(self, lpn: int) -> Optional[Tuple[int, int, int]]:
        """Physical (die, block, page) of a logical page, if mapped."""
        if not 0 <= lpn < len(self.mapping):
            raise IndexError(f"lpn {lpn} out of range")
        ppn = self.mapping[lpn]
        if ppn == INVALID:
            return None
        return self._unpack(ppn)

    def read_ops(self, lpn: int) -> List[PhysicalOp]:
        """Ops to serve a host read (reads of unmapped pages auto-map first,
        modelling a preconditioned drive)."""
        loc = self.translate(lpn)
        if loc is None:
            # lazily precondition; timing of this write is not charged
            self.write_ops(lpn, count_host=False)
            loc = self.translate(lpn)
            assert loc is not None
        return [PhysicalOp("read", *loc)]

    # ------------------------------------------------------------------
    # writes + GC
    # ------------------------------------------------------------------
    def _invalidate(self, lpn: int) -> None:
        ppn = self.mapping[lpn]
        if ppn == INVALID:
            return
        die, block, page = self._unpack(ppn)
        state = self._dies[die]
        state.valid_count[block] -= 1
        state.page_lpn[block][page] = INVALID
        self.mapping[lpn] = INVALID

    def _append(self, die_index: int, lpn: int) -> PhysicalOp:
        """Place ``lpn`` at the die's write point (block roll-over included)."""
        c = self.config
        state = self._dies[die_index]
        if state.write_page >= c.pages_per_block:
            state.sealed.append(state.active_block)
            if not state.free_blocks:
                raise RuntimeError(
                    f"die {die_index} out of free blocks; GC failed to keep up"
                )
            state.active_block = state.take_free_block()
            state.write_page = 0
        block, page = state.active_block, state.write_page
        state.write_page += 1
        state.valid_count[block] += 1
        state.page_lpn[block][page] = lpn
        self.mapping[lpn] = self._pack(die_index, block, page)
        return PhysicalOp("program", die_index, block, page)

    def peek_write_die(self, k: int = 0) -> int:
        """Die the ``k``-th upcoming write will land on (round-robin
        pointer); lets the serving layer's broker predict target dies for
        backpressure checks without mutating FTL state."""
        return (self._next_die + k) % self.config.n_dies

    def write_ops(self, lpn: int, count_host: bool = True) -> List[PhysicalOp]:
        """Ops to serve a host write: the program plus any GC it triggers."""
        if not 0 <= lpn < len(self.mapping):
            raise IndexError(f"lpn {lpn} out of range")
        c = self.config
        die_index = self._next_die
        self._next_die = (die_index + 1) % c.n_dies
        self._invalidate(lpn)
        ops = [self._append(die_index, lpn)]
        if count_host:
            self.host_writes += 1
        if len(self._dies[die_index].free_blocks) < GC_FREE_BLOCK_THRESHOLD:
            self._collect(die_index, ops)
        return ops

    def _collect(self, die_index: int, ops: List[PhysicalOp]) -> None:
        """Greedy GC on one die, appending its ops to ``ops``."""
        c = self.config
        ppb = c.pages_per_block
        state = self._dies[die_index]
        mapping, valid = self.mapping, state.valid_count
        first_block = die_index * c.blocks_per_die
        new_op, append = tuple.__new__, ops.append
        while len(state.free_blocks) < GC_STOP_FREE_BLOCKS and state.sealed:
            victim = self._pick_victim(state)
            if valid[victim] >= ppb:
                break  # nothing reclaimable: migrating a full block gains nothing
            state.sealed.remove(victim)
            migrated = 0
            for page, lpn in enumerate(state.page_lpn[victim]):
                if lpn == INVALID:
                    continue
                append(new_op(
                    PhysicalOp, ("read", die_index, victim, page, True)
                ))
                migrated += 1
                # remap the lpn with a program on the active block: in
                # place while it has room, through _append at roll-over
                page_to = state.write_page
                if page_to >= ppb:
                    append(self._append(die_index, lpn))
                    continue
                block = state.active_block
                state.write_page = page_to + 1
                valid[block] += 1
                state.page_lpn[block][page_to] = lpn
                mapping[lpn] = (first_block + block) * ppb + page_to
                append(new_op(
                    PhysicalOp, ("program", die_index, block, page_to, False)
                ))
            self.gc_writes += migrated
            ops.append(PhysicalOp("erase", die_index, victim, 0, True))
            state.free_blocks.append(victim)
            state.page_lpn[victim] = [INVALID] * ppb
            valid[victim] = 0
            state.erase_count[victim] += 1
            self.gc_erases += 1
            if OBS.enabled:
                if OBS.metrics.enabled:
                    OBS.metrics.counter(
                        "repro_gc_migrated_pages_total",
                        help="valid pages moved by garbage collection",
                    ).inc(migrated)
                    OBS.metrics.counter(
                        "repro_gc_erases_total",
                        help="blocks erased by garbage collection",
                    ).inc()
                if OBS.tracer.enabled:
                    OBS.tracer.emit(
                        "gc_migrate",
                        die=die_index,
                        block=victim,
                        migrated=migrated,
                    )

    def _pick_victim(self, state: _DieState) -> int:
        """Greedy GC victim, wear-aware: prefer few valid pages, and among
        similar candidates prefer the less-worn block (static leveling)."""
        valid = state.valid_count
        erases = state.erase_count
        floor = min(erases)
        return min(
            state.sealed,
            key=lambda b: float(valid[b]) + 0.5 * float(erases[b] - floor),
        )

    # ------------------------------------------------------------------
    def precondition(self, lpns: Iterable[int]) -> None:
        """Map a set of logical pages without emitting timed operations."""
        for lpn in lpns:
            if self.mapping[lpn] == INVALID:
                self.write_ops(int(lpn), count_host=False)

    @property
    def write_amplification(self) -> float:
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_writes) / self.host_writes
