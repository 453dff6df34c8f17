"""Latency and throughput summaries of one trace simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np


def p99_us(samples: "List[float] | np.ndarray") -> float:
    """The 99th percentile of the finite ``samples``; 0.0 if there are
    none (an empty sample never reaches numpy)."""
    if len(samples) == 0:
        return 0.0
    arr = np.asarray(samples, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    return float(np.percentile(arr, 99)) if len(arr) else 0.0


@dataclass
class LatencyStats:
    """Summary statistics of a latency sample (microseconds)."""

    count: int
    mean_us: float
    median_us: float
    p95_us: float
    p99_us: float
    max_us: float
    p999_us: float = 0.0

    @classmethod
    def from_samples(cls, samples: "List[float] | np.ndarray") -> "LatencyStats":
        """Summarize finite samples; NaN/inf entries are rejected (dropped)
        rather than silently poisoning the mean and percentiles.  ``count``
        reports the finite samples actually summarized."""
        arr = np.asarray(samples, dtype=np.float64)
        arr = arr[np.isfinite(arr)]
        if len(arr) == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(arr),
            mean_us=float(arr.mean()),
            median_us=float(np.median(arr)),
            p95_us=float(np.percentile(arr, 95)),
            p99_us=p99_us(arr),
            max_us=float(arr.max()),
            p999_us=float(np.percentile(arr, 99.9)),
        )

    def row(self) -> str:
        return (
            f"n={self.count:7d}  mean={self.mean_us:9.1f}us  "
            f"p50={self.median_us:9.1f}us  p95={self.p95_us:9.1f}us  "
            f"p99={self.p99_us:9.1f}us"
        )


@dataclass
class SimulationReport:
    """Everything a trace run produced."""

    trace_name: str
    policy_name: str
    read_latencies_us: np.ndarray
    write_latencies_us: np.ndarray
    simulated_seconds: float
    host_reads: int
    host_writes: int
    gc_writes: int
    gc_erases: int
    write_amplification: float
    #: retries -> number of page reads that needed exactly that many
    retry_histogram: Dict[int, int] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def retries_sampled(self) -> int:
        """Total retries across all reads (derived from the histogram)."""
        return int(sum(k * v for k, v in self.retry_histogram.items()))

    @property
    def read_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.read_latencies_us)

    @property
    def write_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.write_latencies_us)

    def summary(self) -> str:
        lines = [
            f"trace={self.trace_name} policy={self.policy_name} "
            f"({self.simulated_seconds:.1f}s simulated)",
            f"  reads : {self.read_stats.row()}",
            f"  writes: {self.write_stats.row()}",
            f"  GC: {self.gc_writes} migrations, {self.gc_erases} erases, "
            f"WAF={self.write_amplification:.2f}",
        ]
        if self.retry_histogram:
            dist = "  ".join(
                f"{k}:{v}" for k, v in sorted(self.retry_histogram.items())
            )
            lines.append(
                f"  retries: {self.retries_sampled} total "
                f"(per-read histogram {dist})"
            )
        return "\n".join(lines)


def read_latency_reduction(
    baseline: SimulationReport, improved: SimulationReport
) -> float:
    """Fractional mean read-latency reduction (the Figure 14 metric)."""
    base = baseline.read_stats.mean_us
    if base <= 0:
        return 0.0
    return 1.0 - improved.read_stats.mean_us / base
