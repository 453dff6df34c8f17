"""A small discrete-event engine.

The SSD model mostly uses resource-availability scheduling (dies and
channels carry ``busy_until`` clocks), but trace arrival and completion
callbacks run through this queue so the simulation stays strictly ordered in
virtual time.

Heap entries are plain ``(time, seq, callback)`` tuples, so ``heapq``
compares them in C. ``seq`` is unique per queue: equal-time events fire in
insertion order and the callbacks themselves are never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventQueue:
    """Min-heap of timestamped callbacks."""

    def __init__(self) -> None:
        # (time, seq, callback): seq breaks time ties FIFO before the
        # tuple comparison could reach the callback
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past ({time} < now {self.now})"
            )
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.schedule(self.now + delay, callback)

    def __len__(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Run the earliest event; returns False when the queue is empty."""
        if not self._heap:
            return False
        self.now, _, callback = heapq.heappop(self._heap)
        callback()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue (optionally only up to virtual time ``until``)."""
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
        return self.now


class Resource:
    """A serially-occupied resource with a ``busy_until`` clock."""

    __slots__ = ("name", "busy_until", "busy_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0  # cumulative occupancy for utilization stats

    def acquire(self, earliest: float, duration: float) -> Tuple[float, float]:
        """Occupy the resource for ``duration`` starting no earlier than
        ``earliest``; returns ``(start, end)``."""
        start = max(earliest, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.busy_time += duration
        return start, end

    def utilization(self, horizon: float) -> float:
        return self.busy_time / horizon if horizon > 0 else 0.0
