"""MSR-Cambridge trace parsing.

Format (SNIA IOTTA release): CSV lines of

``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime``

where ``Timestamp`` is a Windows filetime (100 ns ticks since 1601-01-01),
``Type`` is ``Read``/``Write``, ``Offset``/``Size`` are bytes and
``ResponseTime`` is in ticks.

Timestamps are rebased to the **minimum** tick of the parsed records, not
the first one: the published volumes contain slightly out-of-order lines
(completion-ordered logging), and rebasing to the first record would give
those earlier-but-later-logged requests negative arrival times.

Requests smaller than one 512-byte sector are clamped up to a sector; the
clamp is counted in ``Trace.meta["clamped_records"]`` so consumers (the
replay frontend, reports) can surface how much of the trace was touched
up instead of the data being mutated invisibly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.traces.trace import Trace, TraceRequest

_TICKS_PER_SECOND = 1e7
_SECTOR_BYTES = 512


def parse_msr_csv(
    lines: Iterable[str],
    name: str = "msr",
    max_requests: Optional[int] = None,
) -> Trace:
    """Parse MSR CSV lines into a :class:`Trace`.

    The returned trace carries ``meta["clamped_records"]`` — the number of
    records whose size was below one sector and got clamped to 512 bytes.
    """
    records: List[Tuple[int, str, int, int]] = []
    clamped = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 6:
            raise ValueError(f"malformed MSR record: {line!r}")
        ticks = int(fields[0])
        op_name = fields[3].strip().lower()
        if op_name not in ("read", "write"):
            raise ValueError(f"unknown op {fields[3]!r} in record {line!r}")
        size = int(fields[5])
        if size < _SECTOR_BYTES:
            clamped += 1
            size = _SECTOR_BYTES
        records.append(
            (ticks, "R" if op_name == "read" else "W", int(fields[4]), size)
        )
        if max_requests is not None and len(records) >= max_requests:
            break
    t0 = min(r[0] for r in records) if records else 0
    requests = [
        TraceRequest(
            time_s=(ticks - t0) / _TICKS_PER_SECOND,
            op=op,
            lba_bytes=lba,
            size_bytes=size,
        )
        for ticks, op, lba, size in records
    ]
    return Trace(name, requests, meta={"clamped_records": clamped})

