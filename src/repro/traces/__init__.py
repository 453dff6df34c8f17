"""Block I/O traces: MSR-Cambridge and blkparse parsing, synthetic equivalents.

The paper evaluates on eight MSR-Cambridge volume traces.  Those CSVs are
not redistributable, so :mod:`repro.traces.synthetic` generates stand-ins
with the published per-volume read/write mixes, footprints, request-size
profiles and bursty arrivals; :func:`load_trace` reads the real CSVs (or
blkparse text dumps) byte-for-byte when the user has them.
"""

from repro.traces.trace import Trace, TraceRequest
from repro.traces.msr import parse_msr_csv
from repro.traces.adapters import (
    FORMATS,
    load_trace,
    parse_blkparse,
    sniff_format,
)
from repro.traces.synthetic import (
    MSR_WORKLOADS,
    WorkloadParams,
    generate_workload,
)

__all__ = [
    "Trace",
    "TraceRequest",
    "parse_msr_csv",
    "FORMATS",
    "load_trace",
    "parse_blkparse",
    "sniff_format",
    "MSR_WORKLOADS",
    "WorkloadParams",
    "generate_workload",
]
