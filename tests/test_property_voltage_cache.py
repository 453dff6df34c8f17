"""The voltage cache's per-die age index stays exact under every mutation.

``scrub_candidates`` walks only the due prefix of one die's
``(stored_us, key)`` index.  These tests drive random mutation sequences
— non-monotone timestamps, many equal ``stored_us`` values, differing hit
counts, a capacity small enough that LRU eviction fires — and after every
step compare it with the full-cache scan it replaced, and the index with
the entry map.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.voltage_cache import (
    REFRESH_AGE_US,
    TTL_US,
    VoltageOffsetCache,
)

#: small enough that LRU eviction fires among the 12 keys drawn below
CAPACITY = 5
#: the time grid's step: times span two TTLs, the quarantine a few steps
STEP = TTL_US / 10
DIES = (0, 1, 2)
LIMITS = (1, 4, 64)
CHECK_NOWS = (
    0.0, REFRESH_AGE_US, REFRESH_AGE_US + STEP, TTL_US + STEP, 2.5 * TTL_US
)


def reference_scrub(cache, die, now_us, limit):
    """The full-cache scan: every entry of every die, filtered and sorted."""
    due = [
        (entry.stored_us, -entry.hits, key)
        for key, entry in cache._entries.items()
        if key[0] == die and now_us - entry.stored_us >= REFRESH_AGE_US
    ]
    due.sort()
    return [key for _, _, key in due[:limit]]


def assert_index_exact(cache, now_us):
    expected = {}
    for key, entry in cache._entries.items():
        expected.setdefault(key[0], []).append((entry.stored_us, key))
    index = {die: pairs for die, pairs in cache._by_age.items() if pairs}
    assert index == {die: sorted(pairs) for die, pairs in expected.items()}
    for die in DIES:
        for now in CHECK_NOWS + (now_us,):
            for limit in LIMITS:
                assert cache.scrub_candidates(die, now, limit) == (
                    reference_scrub(cache, die, now, limit)
                )


keys = st.tuples(
    st.sampled_from(DIES), st.integers(0, 1), st.integers(0, 1)
)
#: a coarse grid of times so equal stored_us values are common
times = st.integers(0, 20).map(lambda t: t * STEP)
pes = st.integers(0, 2)
warm_items = st.lists(
    st.fixed_dictionaries({
        "die": st.sampled_from(DIES),
        "block": st.integers(0, 1),
        "layer": st.integers(0, 1),
        "age_us": st.integers(0, 12).map(lambda a: a * STEP),
    }),
    max_size=8,
)
#: put and lookup, the broker's hot path, are drawn twice as often
ops = st.one_of(
    st.tuples(st.just("put"), keys, times, pes),
    st.tuples(st.just("put"), keys, times, pes),
    st.tuples(st.just("lookup"), keys, times, pes),
    st.tuples(st.just("lookup"), keys, times, pes),
    st.tuples(st.just("refresh"), keys, times, pes),
    st.tuples(st.just("invalidate"), keys),
    st.tuples(st.just("quarantine"), keys, times),
    st.tuples(st.just("flush")),
    st.tuples(st.just("warm_start"), warm_items, times, pes),
    st.tuples(st.just("export_state"), times),
)


@settings(max_examples=250, deadline=None)
@given(st.lists(ops, min_size=1, max_size=40))
def test_scrub_index_matches_full_scan(steps):
    cache = VoltageOffsetCache(capacity=CAPACITY)
    for step in steps:
        name, now = step[0], 0.0
        if name == "put":
            _, key, now, pe = step
            cache.put(key, now, pe)
        elif name == "lookup":
            _, key, now, pe = step
            cache.lookup(key, now, pe)
        elif name == "refresh":
            _, key, now, pe = step
            cache.refresh(key, now, pe)
        elif name == "invalidate":
            cache.invalidate(step[1])
        elif name == "quarantine":
            _, key, now = step
            cache.quarantine(key, now)
        elif name == "flush":
            cache.flush()
        elif name == "warm_start":
            _, items, now, pe = step
            cache.warm_start({"entries": items}, now, pe_of=lambda key: pe)
        else:
            now = step[1]
            cache.export_state(now)
        assert len(cache) <= CAPACITY
        assert_index_exact(cache, now)


def test_hotness_tie_break_across_the_limit_boundary():
    cache = VoltageOffsetCache(capacity=CAPACITY)
    for layer in range(3):
        cache.put((0, 0, layer), 0.0, 0)
    cache.put((0, 1, 0), STEP, 0)  # due later, never ahead of the tie
    for _ in range(2):
        cache.lookup((0, 0, 2), 1.0, 0)
    cache.lookup((0, 0, 1), 1.0, 0)
    # all three share stored_us=0; the hottest has the largest key, so the
    # walk must take the whole tie group before cutting at the limit
    assert cache.scrub_candidates(0, TTL_US, 1) == [(0, 0, 2)]
    assert cache.scrub_candidates(0, TTL_US, 2) == [(0, 0, 2), (0, 0, 1)]
    assert cache.scrub_candidates(0, TTL_US, 4) == [
        (0, 0, 2), (0, 0, 1), (0, 0, 0), (0, 1, 0)
    ]
    for limit in LIMITS:
        assert cache.scrub_candidates(0, TTL_US, limit) == (
            reference_scrub(cache, 0, TTL_US, limit)
        )


def test_warm_start_inserts_entries_older_than_existing_ones():
    unit = REFRESH_AGE_US / 100  # the refresh age is 100 units
    cache = VoltageOffsetCache()
    cache.put((0, 0, 0), 100 * unit, 0)
    state = {"entries": [{"die": 0, "block": 1, "layer": 0,
                          "age_us": 90 * unit}]}
    assert cache.warm_start(state, now_us=100 * unit) == 1
    assert cache._by_age[0] == [
        (10 * unit, (0, 1, 0)), (100 * unit, (0, 0, 0))
    ]
    assert cache.scrub_candidates(0, 150 * unit, 4) == [(0, 1, 0)]
    assert cache.scrub_candidates(0, 200 * unit, 4) == [
        (0, 1, 0), (0, 0, 0)
    ]
    assert cache.scrub_candidates(0, 200 * unit, 1) == [(0, 1, 0)]
