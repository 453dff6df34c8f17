"""``RetryDraws.below`` is numpy's scalar bounded draw, term for term.

Every simulated read picks its retry sample with ``RetryDraws.below``,
which fetches the generator's 32-bit words in chunks and applies numpy's
multiply-and-reject rule itself.  Each report, golden and digest rests on
that stream equalling ``Generator.integers(n)`` call for call, on the
numpy this runs on, so the equality is asserted here on bound sequences
that hit the rule's edges: ``n == 1`` (no word drawn), bounds just above
``2**31`` (about every second word rejected), ``2**32`` (no rejection)
and sequences long enough to cross chunk refills.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd import retry_model
from repro.ssd.retry_model import DRAW_CHUNK, RetryDraws
from repro.util.rng import derive_rng

EDGES = (1, 2, 3, 2**31 - 1, 2**31 + 1, 2**32)
bounds = st.sampled_from(EDGES) | st.integers(1, 10**6)


def scalar_draws(seed, seq):
    rng = derive_rng(seed)
    return [int(rng.integers(n)) for n in seq]


@given(
    seed=st.integers(0, 2**63),
    pattern=st.lists(bounds, min_size=1, max_size=12),
    length=st.integers(1, 3 * DRAW_CHUNK),
)
@settings(max_examples=60, deadline=None)
def test_below_equals_scalar_integers(seed, pattern, length):
    """Sequences of up to three chunks, built by repeating a pattern."""
    seq = (pattern * (length // len(pattern) + 1))[:length]
    draws = RetryDraws(derive_rng(seed))
    assert [draws.below(n) for n in seq] == scalar_draws(seed, seq)


@given(
    seed=st.integers(0, 2**63),
    chunk=st.integers(1, 5),
    seq=st.lists(bounds, min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_below_equals_scalar_integers_on_tiny_chunks(seed, chunk, seq):
    """A refill every few words puts chunk boundaries inside rejection
    runs and right after ``n == 1`` terms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retry_model, "DRAW_CHUNK", chunk)
        draws = RetryDraws(derive_rng(seed))
        got = [draws.below(n) for n in seq]
    assert got == scalar_draws(seed, seq)


@pytest.mark.parametrize("n", [2**32 + 1, 2**40, 0, -3])
def test_bound_outside_32_bits_raises(n):
    with pytest.raises(ValueError):
        RetryDraws(derive_rng(0)).below(n)
