"""Property-based tests of the calibration loop (Section III-C).

The claims under test: the state-change verdict is always one of the two
cases and is exactly the normalized-count comparison, and the controller's
expanding probe schedule terminates within its bound without ever
revisiting an offset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import BACK, FURTHER, state_change_verdict
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import TLC_SPEC

_WORDLINE = None


def _wordline():
    """One aged wordline shared across examples (construction dominates)."""
    global _WORDLINE
    if _WORDLINE is None:
        spec = TLC_SPEC.scaled(
            cells_per_wordline=8192, wordlines_per_layer=1, layers=8,
            name_suffix="-calprop",
        )
        chip = FlashChip(spec, seed=13, sentinel_ratio=0.002)
        chip.set_block_stress(
            0, StressState(pe_cycles=3000, retention_hours=8760.0)
        )
        _WORDLINE = chip.wordline(0, 3)
    return _WORDLINE


@given(
    offset=st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
)
@settings(max_examples=20, deadline=None)
def test_verdict_is_always_one_of_the_two_cases(offset):
    verdict, nca_norm, ncs_norm = state_change_verdict(_wordline(), offset)
    assert verdict in (FURTHER, BACK)
    assert np.isfinite(nca_norm) and np.isfinite(ncs_norm)
    assert nca_norm >= 0.0 and ncs_norm >= 0.0
    # the verdict is the comparison, nothing else
    assert verdict == (FURTHER if nca_norm > ncs_norm else BACK)


@given(
    inferred=st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
    delta=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    max_steps=st.integers(min_value=1, max_value=12),
    first=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=50, deadline=None)
def test_probe_schedule_expands_alternating_within_bound(
    inferred, delta, max_steps, first
):
    """The controller's probe sequence (side * (k+1)//2 * Delta around the
    inferred offset) must alternate sides, never repeat an offset, and stay
    within (max_steps+1)//2 steps of Delta — so a wrong first verdict costs
    one retry, not a divergent walk."""
    probes = []
    for k in range(1, max_steps + 1):
        magnitude = (k + 1) // 2 * delta
        side = first if k % 2 == 1 else -first
        probes.append(inferred + side * magnitude)
    bound = (max_steps + 1) // 2 * delta
    assert all(abs(p - inferred) <= bound + 1e-9 for p in probes)
    assert len(set(np.round(probes, 9))) == len(probes)  # terminates: no revisit
    sides = [np.sign(p - inferred) for p in probes]
    assert all(a == -b for a, b in zip(sides, sides[1:]))  # alternates
