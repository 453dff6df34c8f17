"""Event queue and resource scheduling."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ssd.events import EventQueue, Resource


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        log = []
        q.schedule(3.0, lambda: log.append("c"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(2.0, lambda: log.append("b"))
        q.run()
        assert log == ["a", "b", "c"]
        assert q.now == 3.0

    def test_fifo_for_simultaneous_events(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append(1))
        q.schedule(1.0, lambda: log.append(2))
        q.run()
        assert log == [1, 2]

    def test_schedule_after(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: q.schedule_after(0.5, lambda: fired.append(q.now)))
        q.run()
        assert fired == [1.5]

    def test_cannot_schedule_into_past(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(1.0, lambda: None)

    def test_run_until(self):
        q = EventQueue()
        log = []
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, lambda t=t: log.append(t))
        q.run(until=2.0)
        assert log == [1.0, 2.0]
        assert len(q) == 1

    def test_step_on_empty(self):
        assert EventQueue().step() is False


times = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestEventQueueProperties:
    @given(schedule=st.lists(times, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_fires_in_time_order_stable_at_ties(self, schedule):
        """Events fire sorted by time; equal timestamps keep FIFO order —
        i.e. the firing order is exactly the stable sort of the schedule."""
        q = EventQueue()
        log = []
        for i, t in enumerate(schedule):
            q.schedule(t, lambda i=i, t=t: log.append((t, i)))
        q.run()
        assert log == sorted(
            ((t, i) for i, t in enumerate(schedule)),
            key=lambda pair: pair[0],  # stable: ties stay in insertion order
        )
        assert q.now == max(schedule)

    @given(
        first=times,
        offset=st.floats(min_value=1e-6, max_value=1e6,
                         allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_scheduling_into_the_past_raises(self, first, offset):
        assume(first + offset > first)  # offset must survive float rounding
        q = EventQueue()
        q.schedule(first + offset, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(first, lambda: None)
        # the failed schedule must not have corrupted the queue
        assert len(q) == 0
        q.schedule(q.now, lambda: None)  # now itself is always legal
        q.run()

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=50,
    ))
    @settings(max_examples=60, deadline=None)
    def test_schedule_after_is_monotone(self, delays):
        """Chained ``schedule_after`` calls observe a non-decreasing clock
        equal to the running sum of the delays."""
        q = EventQueue()
        observed = []
        it = iter(delays)

        def chain():
            observed.append(q.now)
            delay = next(it, None)
            if delay is not None:
                q.schedule_after(delay, chain)

        q.schedule_after(next(it), chain)
        q.run()
        assert observed == sorted(observed)
        totals = []
        acc = 0.0
        for d in delays:
            acc += d
            totals.append(acc)
        assert observed == pytest.approx(totals)


# a few integer instants, so ties between events are common
instants = st.integers(min_value=0, max_value=6).map(float)
# what a firing event schedules: an event at ``q.now`` (as the broker's
# ``_request_done`` does), one at an already-queued timestamp, or one later
child_specs = st.one_of(
    st.just(("now", 0)),
    st.tuples(st.just("queued"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("after"), st.integers(min_value=1, max_value=3)),
)
spawn_plans = st.lists(st.lists(child_specs, max_size=3), max_size=40)


def _drive(q, initial, spawns, stops=()):
    """Schedule ``initial``; event ``i`` (global insertion index) schedules
    the children ``spawns[i]``. Runs ``q.run(until=t)`` for each of
    ``stops`` and then ``q.run()``. Returns every scheduled
    ``(time, index)`` and the fired indices in firing order."""
    scheduled = []
    pending = []
    fired = []

    def add(t):
        i = len(scheduled)
        scheduled.append((t, i))
        pending.append(t)
        q.schedule(t, lambda: fire(i))

    def fire(i):
        t = scheduled[i][0]
        assert q.now == t
        pending.remove(t)
        fired.append(i)
        for kind, k in spawns[i] if i < len(spawns) else ():
            if kind == "now":
                add(q.now)
            elif kind == "queued":
                queued = sorted(pending)
                add(queued[k % len(queued)] if queued else q.now)
            else:
                add(q.now + k)

    for t in initial:
        add(t)
    for stop in stops:
        q.run(until=stop)
        assert all(scheduled[i][0] <= stop for i in fired)
        assert all(t > stop for t in pending)
    q.run()
    return scheduled, fired


class _Incomparable:
    """A callback that raises on any comparison with anything."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self):
        self.log.append(self.tag)

    def _refuse(self, other):
        raise TypeError("callbacks must never be compared")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __hash__ = object.__hash__


class TestBrokerEventPatterns:
    """The patterns the serving broker drives the queue with."""

    @given(initial=st.lists(instants, min_size=1, max_size=20),
           spawns=spawn_plans)
    @settings(max_examples=100, deadline=None)
    def test_callbacks_scheduling_at_now_and_queued_times(
        self, initial, spawns
    ):
        """Events scheduled from callbacks, at ``q.now`` or at a timestamp
        already in the queue, fire in (time, global insertion index)
        order, exactly as if every event had been known up front."""
        scheduled, fired = _drive(EventQueue(), initial, spawns)
        assert fired == [i for _, i in sorted(scheduled)]

    @given(initial=st.lists(instants, min_size=1, max_size=20),
           spawns=spawn_plans,
           stops=st.lists(instants, max_size=4).map(sorted))
    @settings(max_examples=100, deadline=None)
    def test_run_until_then_run_matches_one_run(self, initial, spawns, stops):
        whole = _drive(EventQueue(), initial, spawns)
        assert _drive(EventQueue(), initial, spawns, stops) == whole

    def test_callbacks_are_never_compared(self):
        q = EventQueue()
        log = []
        for tag in range(32):
            q.schedule(float(tag % 3), _Incomparable(log, tag))
        q.schedule(0.0, lambda: q.schedule(q.now, _Incomparable(log, "late")))
        q.run()
        assert log == (
            [t for t in range(32) if t % 3 == 0] + ["late"]
            + [t for t in range(32) if t % 3 == 1]
            + [t for t in range(32) if t % 3 == 2]
        )


class TestResource:
    def test_idle_resource_starts_immediately(self):
        r = Resource("die")
        start, end = r.acquire(10.0, 5.0)
        assert (start, end) == (10.0, 15.0)

    def test_busy_resource_queues(self):
        r = Resource("die")
        r.acquire(0.0, 10.0)
        start, end = r.acquire(2.0, 5.0)
        assert (start, end) == (10.0, 15.0)

    def test_gap_respected(self):
        r = Resource("die")
        r.acquire(0.0, 2.0)
        start, _ = r.acquire(100.0, 1.0)
        assert start == 100.0

    def test_utilization(self):
        r = Resource("die")
        r.acquire(0.0, 25.0)
        r.acquire(50.0, 25.0)
        assert r.utilization(100.0) == pytest.approx(0.5)
        assert r.utilization(0.0) == 0.0
