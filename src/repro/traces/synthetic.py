"""Synthetic stand-ins for the eight MSR-Cambridge workloads.

The real volume traces (hm_0, mds_0, prn_0, proj_0, rsrch_0, src2_0, stg_0,
usr_0) are not redistributable.  Each generator below reproduces the
published summary characteristics of its namesake — read/write mix by
request count, footprint, request-size profile, access skew, and bursty
arrivals — which is what the Figure 14 latency experiment is sensitive to.
The mixes follow the per-volume totals reported with the trace release
(Narayanan et al., "Migrating Server Storage to SSDs", EuroSys'09).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.traces.trace import Trace, TraceRequest
from repro.util.rng import derive_rng

_SECTOR = 512
_LARGE_PRIME = 2654435761  # Knuth multiplicative hash, spreads hot ranks


@dataclass(frozen=True)
class WorkloadParams:
    """Shape parameters of one synthetic workload."""

    name: str
    read_fraction: float  # by request count
    mean_iops: float
    footprint_bytes: int
    zipf_theta: float  # 0 = uniform, ->1 = highly skewed
    size_choices_kb: Tuple[int, ...]  # request-size mixture
    size_weights: Tuple[float, ...]
    burstiness: float  # 0 = Poisson; >0 adds on/off bursts

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if abs(sum(self.size_weights) - 1.0) > 1e-6:
            raise ValueError("size_weights must sum to 1")
        if not 0.0 <= self.zipf_theta < 1.0:
            raise ValueError("zipf_theta must be in [0, 1)")


def _gib(n: float) -> int:
    return int(n * 2**30)


#: The eight workloads of the paper's Figure 14.
MSR_WORKLOADS: Dict[str, WorkloadParams] = {
    "hm_0": WorkloadParams(
        "hm_0", 0.33, 80.0, _gib(2.0), 0.70,
        (4, 8, 16, 64), (0.45, 0.30, 0.15, 0.10), 0.5,
    ),
    "mds_0": WorkloadParams(
        "mds_0", 0.30, 40.0, _gib(3.0), 0.75,
        (4, 16, 32, 64), (0.50, 0.25, 0.15, 0.10), 0.6,
    ),
    "prn_0": WorkloadParams(
        "prn_0", 0.22, 100.0, _gib(4.0), 0.65,
        (4, 8, 16, 64), (0.40, 0.25, 0.20, 0.15), 0.7,
    ),
    "proj_0": WorkloadParams(
        "proj_0", 0.12, 140.0, _gib(4.0), 0.60,
        (4, 16, 64, 128), (0.35, 0.25, 0.25, 0.15), 0.8,
    ),
    "rsrch_0": WorkloadParams(
        "rsrch_0", 0.05, 50.0, _gib(1.0), 0.80,
        (4, 8, 16, 32), (0.60, 0.20, 0.15, 0.05), 0.4,
    ),
    "src2_0": WorkloadParams(
        "src2_0", 0.05, 60.0, _gib(2.0), 0.70,
        (4, 8, 32, 64), (0.55, 0.20, 0.15, 0.10), 0.6,
    ),
    "stg_0": WorkloadParams(
        "stg_0", 0.30, 70.0, _gib(3.0), 0.65,
        (4, 16, 32, 128), (0.45, 0.25, 0.20, 0.10), 0.5,
    ),
    "usr_0": WorkloadParams(
        "usr_0", 0.60, 90.0, _gib(2.5), 0.75,
        (4, 8, 16, 64), (0.50, 0.25, 0.15, 0.10), 0.5,
    ),
}


def bounded_zipf_pages(
    rng: np.random.Generator, n_pages: int, theta: float, count: int
) -> np.ndarray:
    """Skewed page ranks via the bounded-Zipf inverse-CDF approximation.

    For theta in [0, 1) the CDF of a bounded Zipf(theta) distribution is
    approximately ``(x / N) ** (1 - theta)``; inverting a uniform draw gives
    the rank.  Ranks are then scattered across the address space with a
    multiplicative hash so hot pages are not physically clustered.
    """
    u = rng.random(count)
    ranks = np.floor(n_pages * u ** (1.0 / (1.0 - theta))).astype(np.int64)
    ranks = np.minimum(ranks, n_pages - 1)
    return (ranks * _LARGE_PRIME) % n_pages


def generate_workload(
    params: WorkloadParams,
    n_requests: int = 20000,
    seed: int = 0,
    page_bytes: int = 4096,
    rate_scale: float = 1.0,
) -> Trace:
    """Generate one synthetic trace.

    ``rate_scale`` multiplies the arrival rate; the MSR volumes were traced
    on lightly-loaded servers, and the latency experiments replay them
    accelerated (as trace-driven SSD studies commonly do) so the device
    operates at realistic utilization.
    """
    rng = derive_rng(seed, "trace", params.name)
    n_pages = max(params.footprint_bytes // page_bytes, 1)

    # --- arrivals: exponential gaps with an on/off burst modulation -------
    base_gap = 1.0 / (params.mean_iops * rate_scale)
    gaps = rng.exponential(base_gap, size=n_requests)
    if params.burstiness > 0:
        # Markov-modulated rate: bursts run ~50 requests at 5x the rate,
        # idle stretches compensate to keep the mean IOPS
        phase = rng.random(n_requests) < 0.3
        burst_speedup = 1.0 / (1.0 + 4.0 * params.burstiness)
        idle_slowdown = (1.0 - 0.3 * burst_speedup) / 0.7
        gaps = gaps * np.where(phase, burst_speedup, idle_slowdown)
    times = np.cumsum(gaps)

    # --- ops, addresses, sizes -------------------------------------------
    is_read = rng.random(n_requests) < params.read_fraction
    pages = bounded_zipf_pages(rng, n_pages, params.zipf_theta, n_requests)
    sizes_kb = rng.choice(
        params.size_choices_kb, size=n_requests, p=params.size_weights
    )

    requests: List[TraceRequest] = [
        TraceRequest(
            time_s=float(times[i]),
            op="R" if is_read[i] else "W",
            lba_bytes=int(pages[i]) * page_bytes,
            size_bytes=int(sizes_kb[i]) * 1024,
        )
        for i in range(n_requests)
    ]
    return Trace(params.name, requests)

