"""Voltage-offset cache: remembered sentinel inferences per (die, block, layer).

The paper's sentinel mechanism infers a near-optimal sentinel-voltage offset
*during* a failed read; wordlines of one layer share process characteristics
(the layer-similarity observation), so that inference is worth remembering at
(die, block, layer) granularity and reusing as the ``hint`` of the next read
— which then starts at the inferred voltages instead of the defaults and
usually decodes with zero retries.

Cached offsets go stale two ways, and the cache invalidates on both:

* **age in virtual time** — retention drift moves the optimum; an entry
  older than ``ttl_us`` is dropped on lookup;
* **P/E delta** — once the block is erased and reprogrammed the old offsets
  describe dead data; an entry whose stored erase count trails the block's
  current one by more than ``max_pe_delta`` is dropped.

Capacity is bounded with LRU eviction so a large drive cannot grow the
cache without bound.  All bookkeeping is deterministic (insertion-ordered
dict, no wall-clock anywhere) — the serving layer's reports must be
bit-identical across runs of the same seed.

Beside the LRU order, each die keeps an *age index*: a list of
``(stored_us, key)`` pairs sorted with :mod:`bisect`, so the idle-gap
scrubber reads the stalest entries of one die off the front instead of
scanning the whole cache.  Only this class moves ``stored_us``, and every
change to the entry map updates the index through :meth:`_index` /
:meth:`_unindex` — via :meth:`_insert` / :meth:`_remove`, LRU eviction,
or directly for a refresh in place.  The broker's virtual clock only
moves forward, so nearly every insert appends at the end.

Caches also travel between devices: drives of the same (layer-count,
P/E-age) cohort share process characteristics the way wordlines of one
layer do, so a new device can start from a sibling's learned offsets
instead of rediscovering them read by read — the fleet-scale form of the
paper's Section III-D batch-transfer claim.  :meth:`export_state` snapshots
the fresh entries with *relative* ages and P/E lags (quarantined keys are
never exported), and :meth:`warm_start` re-bases such a snapshot onto the
importing device's own virtual clock and erase counts, so TTL and
P/E-drift invalidation keep working across the transfer.  Warm-started
entries are tracked separately (``warm_started``/``warm_hits``/
``warm_expired``) so the fleet report can prove the transfer win.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Cache key: (die, block-within-die, layer-within-block).
CacheKey = Tuple[int, int, int]


@dataclass(frozen=True)
class VoltageCacheConfig:
    """Sizing and drift-invalidation knobs."""

    capacity: int = 4096
    #: age bound in virtual microseconds (retention-drift invalidation)
    ttl_us: float = 2_000_000.0
    #: entries whose block gained more than this many erases are stale
    max_pe_delta: int = 0
    #: the scrubber refreshes entries older than this fraction of the TTL
    refresh_age_fraction: float = 0.5
    #: how long a quarantined key refuses re-insertion after detected
    #: corruption (the resilience path of the hardened broker)
    quarantine_us: float = 500_000.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.ttl_us <= 0:
            raise ValueError("ttl_us must be positive")
        if self.max_pe_delta < 0:
            raise ValueError("max_pe_delta must be non-negative")
        if not 0.0 < self.refresh_age_fraction <= 1.0:
            raise ValueError("refresh_age_fraction must be in (0, 1]")
        if self.quarantine_us <= 0:
            raise ValueError("quarantine_us must be positive")

    @property
    def refresh_age_us(self) -> float:
        return self.refresh_age_fraction * self.ttl_us


@dataclass
class CacheEntry:
    """One remembered sentinel inference."""

    offset: float  # sentinel-voltage offset in voltage steps
    stored_us: float  # virtual time of the inference / last refresh
    pe_cycles: int  # block erase count when stored
    hits: int = 0
    #: entry arrived via warm_start() rather than local inference
    warm: bool = False

    def age_us(self, now_us: float) -> float:
        return now_us - self.stored_us


class VoltageOffsetCache:
    """Bounded LRU map ``(die, block, layer) -> CacheEntry``."""

    def __init__(self, config: Optional[VoltageCacheConfig] = None) -> None:
        self.config = config or VoltageCacheConfig()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        #: die -> (stored_us, key) of that die's entries, sorted
        self._by_age: Dict[int, List[Tuple[float, CacheKey]]] = {}
        self.hits = 0
        self.misses = 0
        self.expired = 0  # lookups that found a drift-stale entry
        self.evicted = 0  # LRU evictions
        self.refreshed = 0  # scrubber refreshes
        self.quarantined = 0  # corruption quarantines
        self.warm_started = 0  # entries imported via warm_start()
        self.warm_hits = 0  # hits served by imported entries
        self.warm_expired = 0  # imported entries that went stale
        self.flushed = 0  # entries dropped by power-loss flushes
        #: key -> quarantine expiry (virtual us); blocks lookups and puts
        self._quarantine: Dict[CacheKey, float] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def _index(self, key: CacheKey, stored_us: float) -> None:
        insort(self._by_age.setdefault(key[0], []), (stored_us, key))

    def _unindex(self, key: CacheKey, stored_us: float) -> None:
        index = self._by_age[key[0]]
        del index[bisect_left(index, (stored_us, key))]

    def _insert(self, key: CacheKey, entry: CacheEntry) -> None:
        """Add ``key`` (absent) at the MRU end and to its die's age index."""
        self._entries[key] = entry
        self._index(key, entry.stored_us)

    def _remove(self, key: CacheKey) -> Optional[CacheEntry]:
        """Drop ``key`` from the map and the age index; the entry or None."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._unindex(key, entry.stored_us)
        return entry

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.config.capacity:
            key, entry = self._entries.popitem(last=False)
            self._unindex(key, entry.stored_us)
            self.evicted += 1

    def _fresh(self, entry: CacheEntry, now_us: float, pe_cycles: int) -> bool:
        c = self.config
        if entry.age_us(now_us) > c.ttl_us:
            return False
        return (pe_cycles - entry.pe_cycles) <= c.max_pe_delta

    # ------------------------------------------------------------------
    def lookup(
        self, key: CacheKey, now_us: float, pe_cycles: int
    ) -> Optional[CacheEntry]:
        """The entry for ``key`` if present and still valid, else None.

        A stale entry (too old, or the block was erased since) is removed
        and counted in ``expired``; both absence and staleness count as a
        miss."""
        if self._quarantine and self._quarantined_now(key, now_us):
            self.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not self._fresh(entry, now_us, pe_cycles):
            self._remove(key)
            self.expired += 1
            if entry.warm:
                self.warm_expired += 1
            self.misses += 1
            return None
        entry.hits += 1
        self.hits += 1
        if entry.warm:
            self.warm_hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(
        self, key: CacheKey, offset: float, now_us: float, pe_cycles: int
    ) -> None:
        """Store a freshly inferred offset (replacing any prior entry).

        A key under active quarantine refuses the insert — a corrupted
        location must be re-observed clean for ``quarantine_us`` before
        its inferences are trusted again."""
        if self._quarantine and self._quarantined_now(key, now_us):
            return
        self._remove(key)
        self._insert(
            key,
            CacheEntry(offset=float(offset), stored_us=now_us, pe_cycles=pe_cycles),
        )
        self._evict_over_capacity()

    def refresh(
        self, key: CacheKey, offset: float, now_us: float, pe_cycles: int
    ) -> None:
        """Scrubber path: re-inferred offset revalidates the entry in place
        (hit count survives so hotness keeps informing scrub order)."""
        entry = self._entries.get(key)
        if entry is None:
            self.put(key, offset, now_us, pe_cycles)
        else:
            # in place: the LRU position stays, the age index moves
            self._unindex(key, entry.stored_us)
            self._index(key, now_us)
            entry.offset = float(offset)
            entry.stored_us = now_us
            entry.pe_cycles = pe_cycles
        self.refreshed += 1

    # ------------------------------------------------------------------
    # corruption quarantine (resilience path)
    # ------------------------------------------------------------------
    def _quarantined_now(self, key: CacheKey, now_us: float) -> bool:
        until = self._quarantine.get(key)
        if until is None:
            return False
        if now_us >= until:
            del self._quarantine[key]
            return False
        return True

    def quarantine(self, key: CacheKey, now_us: float) -> None:
        """Drop ``key`` and block it for ``quarantine_us`` of virtual time.

        Called by the broker when a cached offset is detected corrupt; the
        read that detected it proceeds cold and its (fresh) inference is
        *not* re-cached until the quarantine lapses."""
        self._remove(key)
        self._quarantine[key] = now_us + self.config.quarantine_us
        self.quarantined += 1

    def is_quarantined(self, key: CacheKey, now_us: float) -> bool:
        return self._quarantined_now(key, now_us)

    def invalidate(self, key: CacheKey) -> None:
        """Drop one entry the read path detected stale (no quarantine)."""
        if self._remove(key) is not None:
            self.expired += 1

    def flush(self) -> int:
        """Drop every entry at once; returns how many were dropped.

        The power-loss path of the lifetime campaigns: cached offsets are
        volatile controller state, so a power cycle loses all of them and
        the next reads go cold until re-inference refills the cache.
        Quarantine bookkeeping survives — a corrupted location stays
        distrusted across the power cycle.  Counted in ``flushed`` (and in
        :meth:`stats` only once nonzero, so flush-free reports keep their
        historical bytes)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_age.clear()
        self.flushed += dropped
        return dropped

    # ------------------------------------------------------------------
    def scrub_candidates(
        self, die: int, now_us: float, limit: int
    ) -> List[CacheKey]:
        """Up to ``limit`` entries of one die worth refreshing, stalest
        first (ties broken by hotness, then key, for determinism).

        Only entries older than ``refresh_age_us`` qualify — refreshing a
        young entry buys nothing; entries past the TTL still qualify, since
        a refresh re-infers from the block's *current* state and
        revalidates them.

        Walks only the due prefix of the die's age index: it stops at the
        first entry younger than ``refresh_age_us`` (``now_us - stored_us``
        is monotone in ``stored_us``, so the cut is exact), or once
        ``limit`` entries are held and the next ``stored_us`` differs from
        the last one taken, so hotness ties across the limit still sort
        exactly."""
        min_age = self.config.refresh_age_us
        due = []
        last = None
        for stored_us, key in self._by_age.get(die, ()):
            if not now_us - stored_us >= min_age:
                break
            if len(due) >= limit and stored_us != last:
                break
            due.append((stored_us, -self._entries[key].hits, key))
            last = stored_us
        due.sort()
        return [key for _, _, key in due[:limit]]

    def peek_offset(self, key: CacheKey, default: float = 0.0) -> float:
        """The stored offset of ``key`` without freshness checks or stats
        (used by the scrubber, which revalidates regardless of staleness)."""
        entry = self._entries.get(key)
        return entry.offset if entry is not None else default

    # ------------------------------------------------------------------
    # cross-device transfer (fleet warm-start)
    # ------------------------------------------------------------------
    def export_state(
        self,
        now_us: float,
        pe_of: Optional[Callable[[CacheKey], int]] = None,
    ) -> Dict[str, Any]:
        """JSON-portable snapshot of the fresh entries for cohort sharing.

        Ages and erase counts are exported *relative* to this device —
        ``age_us`` instead of ``stored_us``, and ``pe_lag`` (how many
        erases the block has seen since the inference) instead of the raw
        erase count — so the importer can re-base them onto its own
        virtual clock and erase counters and the TTL / P/E-drift
        invalidation rules keep their meaning across the transfer.

        Keys under active quarantine and entries already past the TTL or
        P/E bound are never exported; shipping a corrupted or stale offset
        to a sibling would poison its fast path."""
        entries = []
        for key, entry in self._entries.items():
            if self._quarantine and self._quarantined_now(key, now_us):
                continue
            pe_now = pe_of(key) if pe_of is not None else entry.pe_cycles
            if not self._fresh(entry, now_us, pe_now):
                continue
            entries.append(
                {
                    "die": key[0],
                    "block": key[1],
                    "layer": key[2],
                    "offset": entry.offset,
                    "age_us": entry.age_us(now_us),
                    "pe_lag": pe_now - entry.pe_cycles,
                }
            )
        return {"ttl_us": self.config.ttl_us, "entries": entries}

    def warm_start(
        self,
        state: Dict[str, Any],
        now_us: float = 0.0,
        pe_of: Optional[Callable[[CacheKey], int]] = None,
    ) -> int:
        """Seed this cache from a sibling's :meth:`export_state` snapshot.

        Each imported entry is re-based: ``stored_us = now_us - age_us``
        (so retention-drift TTL expiry still fires at the right virtual
        age) and ``pe_cycles = local_pe - pe_lag`` (so the P/E-drift bound
        still measures total erases since the original inference).  Local
        entries and quarantined keys win over fleet history; entries that
        would be born stale are skipped.  Returns the number imported."""
        imported = 0
        for item in state.get("entries", []):
            key = (int(item["die"]), int(item["block"]), int(item["layer"]))
            if self._quarantine and self._quarantined_now(key, now_us):
                continue
            if key in self._entries:
                continue
            pe_now = pe_of(key) if pe_of is not None else 0
            entry = CacheEntry(
                offset=float(item["offset"]),
                stored_us=now_us - float(item["age_us"]),
                pe_cycles=pe_now - int(item.get("pe_lag", 0)),
                warm=True,
            )
            if not self._fresh(entry, now_us, pe_now):
                continue
            self._insert(key, entry)
            imported += 1
            self._evict_over_capacity()
        self.warm_started += imported
        return imported

    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> Dict[str, float]:
        """JSON-ready counters for the service report.

        The ``quarantined`` key only appears once a quarantine happened,
        and the ``warm_*`` keys only once a warm-start imported entries,
        so fault-free single-device reports stay byte-identical to
        pre-resilience / pre-fleet ones."""
        out = {
            "entries": len(self._entries),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "expired": self.expired,
            "evicted": self.evicted,
            "refreshed": self.refreshed,
        }
        if self.quarantined:
            out["quarantined"] = self.quarantined
        if self.warm_started:
            out["warm_started"] = self.warm_started
            out["warm_hits"] = self.warm_hits
            out["warm_expired"] = self.warm_expired
        if self.flushed:
            out["flushed"] = self.flushed
        return out
