"""Block-trace formats and the one trace loader, :func:`load_trace`.

Each format is a parse function plus a sniffer, listed in ``FORMATS``.
Every parser returns the same :class:`~repro.traces.trace.Trace` contract:

* request order is the **logged order** of the source (never re-sorted);
* ``time_s`` is rebased so the earliest request sits at 0.0;
* sizes are clamped up to one 512-byte sector, counted in
  ``meta["clamped_records"]``.

Formats:

``msr``
    MSR-Cambridge CSV (:mod:`repro.traces.msr`):
    ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`` with
    100 ns-tick timestamps.
``blkparse``
    Linux blktrace text output as printed by ``blkparse`` with the default
    format: ``maj,min cpu seq timestamp pid action rwbs sector + blocks
    [process]``.  Only *queue* (``Q``) actions become requests — they mark
    host submission, the event replay cares about — and only read/write
    rwbs flags are kept (discards, flushes and barriers are skipped and
    counted in ``meta["skipped_records"]``).

``load_trace`` picks the format from an explicit name or by sniffing the
first non-blank lines, so its callers (``repro replay``, ``repro
simulate``) stay format-agnostic.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.traces.msr import _SECTOR_BYTES, parse_msr_csv
from repro.traces.trace import Trace, TraceRequest

#: parse(lines, name, max_requests) -> Trace
ParseFn = Callable[[Iterable[str], str, Optional[int]], Trace]
#: sniff(sample_lines) -> bool; sample is the first few non-blank lines
SniffFn = Callable[[List[str]], bool]

#: how many non-blank lines the sniffers see
_SNIFF_LINES = 8


def sniff_format(lines: Iterable[str]) -> Optional[str]:
    """The first format in ``FORMATS`` whose sniffer accepts ``lines``."""
    sample = list(islice((ln for ln in lines if ln.strip()), _SNIFF_LINES))
    if not sample:
        return None
    return next((name for name, (_, sniff) in FORMATS.items()
                 if sniff(sample)), None)


def load_trace(
    path: Union[str, Path],
    fmt: Optional[str] = None,
    max_requests: Optional[int] = None,
) -> Trace:
    """Load a block trace in format ``fmt``, or in the one sniffed.

    The file is streamed: the sniffer sees its first non-blank lines and
    the parser reads on from there, stopping at ``max_requests``.  Raises
    ``ValueError`` for an unknown ``fmt`` or a file no sniffer claims."""
    path = Path(path)
    with path.open() as handle:
        sample = list(
            islice((ln for ln in handle if ln.strip()), _SNIFF_LINES))
        if fmt is None:
            fmt = sniff_format(sample)
            if fmt is None:
                raise ValueError(
                    f"could not sniff the trace format of {path}; pass one "
                    f"of {', '.join(FORMATS)} explicitly"
                )
        if fmt.lower() not in FORMATS:
            raise ValueError(
                f"unknown trace format {fmt!r}; known: {', '.join(FORMATS)}"
            )
        parse, _ = FORMATS[fmt.lower()]
        return parse(chain(sample, handle), path.stem, max_requests)


# ---------------------------------------------------------------------------
# msr
# ---------------------------------------------------------------------------
def _sniff_msr(sample: List[str]) -> bool:
    line = next(
        (ln for ln in sample if ln.strip() and not ln.startswith("#")), ""
    )
    fields = line.split(",")
    if len(fields) < 6:
        return False
    try:
        int(fields[0])
        int(fields[4])
        int(fields[5])
    except ValueError:
        return False
    return fields[3].strip().lower() in ("read", "write")


# ---------------------------------------------------------------------------
# blkparse
# ---------------------------------------------------------------------------
def parse_blkparse(
    lines: Iterable[str],
    name: str = "blkparse",
    max_requests: Optional[int] = None,
) -> Trace:
    """Parse ``blkparse`` default text output into a :class:`Trace`.

    Fields: ``maj,min cpu seq timestamp pid action rwbs sector + blocks
    [process]``.  ``Q`` (queue) actions with an ``R``/``W`` rwbs flag
    become requests; other actions (issue, complete, merges) and
    non-data rwbs (discard, flush, barrier) are skipped and counted in
    ``meta["skipped_records"]``.  Sector/blocks are 512-byte units.
    Timestamps (seconds, ns precision) are rebased to the minimum seen —
    multi-CPU logs interleave slightly out of order and that order is
    preserved, exactly like the MSR parser.
    """
    records: List[Tuple[float, str, int, int]] = []
    clamped = 0
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        # trailer summary sections ("Total (8,0): ..." etc.) follow a
        # blank line in real dumps; tolerate anything that does not look
        # like an event record by requiring the canonical field shape
        if len(fields) < 10 or "," not in fields[0] or fields[8] != "+":
            skipped += 1
            continue
        action = fields[5]
        rwbs = fields[6]
        try:
            time_s = float(fields[3])
            sector = int(fields[7])
            nblocks = int(fields[9])
        except ValueError:
            raise ValueError(f"malformed blkparse record: {line!r}")
        if action != "Q":
            skipped += 1
            continue
        op = next((c for c in rwbs if c in ("R", "W")), None)
        if op is None or "D" in rwbs or nblocks <= 0:
            # discard, barrier, or a data-less flush record
            skipped += 1
            continue
        size = nblocks * _SECTOR_BYTES
        if size < _SECTOR_BYTES:
            clamped += 1
            size = _SECTOR_BYTES
        records.append((time_s, op, sector * _SECTOR_BYTES, size))
        if max_requests is not None and len(records) >= max_requests:
            break
    t0 = min(r[0] for r in records) if records else 0.0
    requests = [
        TraceRequest(
            time_s=time_s - t0, op=op, lba_bytes=lba, size_bytes=size
        )
        for time_s, op, lba, size in records
    ]
    meta = {"clamped_records": clamped, "skipped_records": skipped}
    return Trace(name, requests, meta=meta)


def _sniff_blkparse(sample: List[str]) -> bool:
    line = next(
        (ln for ln in sample if ln.strip() and not ln.startswith("#")), ""
    )
    fields = line.split()
    if len(fields) < 10 or "," not in fields[0] or fields[8] != "+":
        return False
    try:
        float(fields[3])
        int(fields[7])
        int(fields[9])
    except ValueError:
        return False
    return True


#: format name -> (parse, sniff); sniffing tries them in this order.
#: A new format is one more entry here.
FORMATS: Dict[str, Tuple[ParseFn, SniffFn]] = {
    "blkparse": (parse_blkparse, _sniff_blkparse),
    "msr": (parse_msr_csv, _sniff_msr),
}
