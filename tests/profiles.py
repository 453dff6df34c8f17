"""Retry-profile fixtures shared by tests."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.ssd.retry_model import RetryProfile


def ideal_profile(
    page_types: Sequence[int], voltages: Dict[int, int]
) -> RetryProfile:
    """A zero-retry profile (fresh chip / perfect knowledge)."""
    return RetryProfile(
        policy_name="ideal",
        page_voltages=dict(voltages),
        samples={p: np.zeros((1, 2), dtype=np.int64) for p in page_types},
    )
