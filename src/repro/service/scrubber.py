"""Background sentinel scrubber: keep the voltage cache warm in idle gaps.

RARO-style reliability work in device idle time: when a die's queue drains
and stays empty for ``IDLE_DELAY_US``, the scrubber refreshes the stalest
voltage-cache entries of that die — one single-voltage sentinel readout
plus transfer per entry, the cheapest operation the chip offers.  Passes
are bounded to ``SCRUB_BATCH`` entries, so a foreground read arriving
mid-pass waits at most ``preemption_bound_us`` (the explicit contract the
broker's scheduler enforces by never starting a pass longer than that).

The scrubber itself is pure policy + accounting; the broker owns the event
queue and die state and calls in:

* :meth:`candidates` — which entries a pass should refresh (stalest first,
  hotness as tie-break, deterministic order);
* :meth:`pass_duration_us` — how long the die is occupied;
* :meth:`complete_pass` — apply the refreshes and emit ``scrub_pass``.
"""

from __future__ import annotations

from typing import List

from repro.obs import OBS
from repro.service.voltage_cache import CacheKey, VoltageOffsetCache
from repro.ssd.timing import NandTiming

#: how long a die must sit idle before a pass starts
IDLE_DELAY_US = 500.0
#: entries refreshed per pass (bounds foreground preemption)
SCRUB_BATCH = 4


class SentinelScrubber:
    """Refreshes cache entries with cheap single-voltage sentinel reads."""

    def __init__(self, cache: VoltageOffsetCache, timing: NandTiming) -> None:
        self.cache = cache
        #: one refresh = a single-voltage read (sense plus transfer)
        self.entry_cost_us = timing.read_us(1)
        self.passes = 0
        self.entries_refreshed = 0
        self.busy_us = 0.0

    @property
    def preemption_bound_us(self) -> float:
        """The longest a foreground op can wait behind a scrub pass."""
        return SCRUB_BATCH * self.entry_cost_us

    # ------------------------------------------------------------------
    def candidates(self, die: int, now_us: float) -> List[CacheKey]:
        """Entries of one die due for refresh this pass (may be empty)."""
        return self.cache.scrub_candidates(die, now_us, SCRUB_BATCH)

    def pass_duration_us(self, n_entries: int) -> float:
        return n_entries * self.entry_cost_us

    def complete_pass(
        self,
        die: int,
        keys: List[CacheKey],
        end_us: float,
        pe_of,
    ) -> None:
        """Apply one finished pass: revalidate entries, account, emit.

        ``pe_of(key)`` supplies the block's current erase count, provided
        by the broker, which owns device state."""
        duration = self.pass_duration_us(len(keys))
        for key in keys:
            self.cache.refresh(key, end_us, pe_of(key))
        self.passes += 1
        self.entries_refreshed += len(keys)
        self.busy_us += duration
        if OBS.enabled:
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_service_scrub_refreshes_total",
                    help="voltage-cache entries refreshed by the scrubber",
                ).inc(len(keys))
            if OBS.tracer.enabled:
                OBS.tracer.emit(
                    "scrub_pass",
                    die=die,
                    refreshed=len(keys),
                    start=end_us - duration,
                    end=end_us,
                )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "passes": self.passes,
            "entries_refreshed": self.entries_refreshed,
            "busy_us": self.busy_us,
            "preemption_bound_us": self.preemption_bound_us,
        }
