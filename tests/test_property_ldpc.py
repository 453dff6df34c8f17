"""Property-based tests of the LDPC code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.ldpc import LdpcCode


@pytest.fixture(scope="module")
def code():
    return LdpcCode.random_regular(256, rate=0.8, seed=2)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_encode_always_codeword(code, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=code.k).astype(np.uint8)
    assert code.is_codeword(code.encode(data))


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_syndrome_detects_single_flip(code, seed):
    rng = np.random.default_rng(seed)
    cw = code.encode(rng.integers(0, 2, size=code.k).astype(np.uint8))
    pos = int(rng.integers(code.n))
    cw[pos] ^= 1
    assert not code.is_codeword(cw)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_err=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=20, deadline=None)
def test_single_errors_always_corrected(code, seed, n_err):
    """Min-sum guarantees nothing in general, but 0-1 errors must decode."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(code.n, dtype=bool)
    if n_err:
        mask[rng.choice(code.n, n_err, replace=False)] = True
    result = code.decode_error_pattern(mask, np.ones(code.n))
    assert result.success


def test_light_error_patterns_mostly_corrected(code):
    """2-4 errors: rare trapping sets allowed, but >=90% must decode."""
    rng = np.random.default_rng(99)
    ok = total = 0
    for n_err in (2, 3, 4):
        for _ in range(20):
            mask = np.zeros(code.n, dtype=bool)
            mask[rng.choice(code.n, n_err, replace=False)] = True
            ok += code.decode_error_pattern(mask, np.ones(code.n)).success
            total += 1
    assert ok / total >= 0.90


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_decode_is_deterministic(code, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(code.n) < 0.01
    a = code.decode_error_pattern(mask, np.ones(code.n))
    b = code.decode_error_pattern(mask, np.ones(code.n))
    assert a.success == b.success
    np.testing.assert_array_equal(a.bits, b.bits)


@given(
    n=st.integers(min_value=1, max_value=60),
    m=st.integers(min_value=1, max_value=20),
    density=st.floats(min_value=0.0, max_value=0.5),
    empty_row=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_syndrome_equals_dense_product(n, m, density, empty_row, seed):
    """The edge-wise syndrome equals ``H @ bits mod 2`` on random codes and
    words, including codes with checks that have no edges."""
    rng = np.random.default_rng(seed)
    h = (rng.random((m, n)) < density).astype(np.uint8)
    if empty_row:
        h[rng.integers(m)] = 0
    code = LdpcCode(h)
    for _ in range(3):
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        got = code.syndrome(bits)
        assert got.dtype == np.uint8
        assert np.array_equal(got, (h @ bits) % 2)
