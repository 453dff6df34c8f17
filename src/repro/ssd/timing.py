"""NAND operation timing.

The key property (paper, Section III-B): *read latency is proportional to the
number of read voltages applied*.  A TLC MSB read senses 4 voltages, a QLC
MSB read 8, so a retry of those pages is expensive — while the sentinel
machinery's auxiliary reads sense a single voltage.

Default numbers follow published 64-layer 3D TLC/QLC datasheets (tens of
microseconds per sensing level, ~700 us program, ~3.5 ms erase, ONFI-4-class
transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.retry.policy import ReadOutcome


@dataclass(frozen=True)
class NandTiming:
    """Latency model of one NAND die + channel (microseconds)."""

    t_sense_base_us: float = 12.0  # fixed sensing setup per read command
    t_sense_per_voltage_us: float = 16.0  # per applied read voltage
    t_transfer_us: float = 25.0  # page transfer over the channel
    t_program_us: float = 660.0
    t_erase_us: float = 3500.0

    def sense_us(self, n_voltages: int) -> float:
        """Array sensing time of one read applying ``n_voltages``."""
        if n_voltages < 1:
            raise ValueError("a read applies at least one voltage")
        return self.t_sense_base_us + n_voltages * self.t_sense_per_voltage_us

    def read_us(self, page_voltages: int, retries: int = 0,
                extra_single_reads: int = 0, pipelined: bool = False) -> float:
        """Total on-die time of a complete page-read operation.

        Every full read (the initial attempt plus each retry) senses
        ``page_voltages`` levels and transfers the page for ECC; every
        auxiliary read senses one level and also transfers (the controller
        compares readouts host-side).

        ``pipelined`` models Park et al.'s pipelined read-retry (arXiv
        2104.09611): each retry's array sensing is issued speculatively
        while the previous attempt's data is still on the channel, so a
        retry round costs ``max(sense, transfer)`` instead of their sum —
        the overlap (``min(sense, transfer)``) is shaved off every retry.
        """
        full_reads = 1 + retries
        full = full_reads * (self.sense_us(page_voltages) + self.t_transfer_us)
        if pipelined and retries > 0:
            full -= retries * self.pipeline_overlap_us(page_voltages)
        extra = extra_single_reads * (self.sense_us(1) + self.t_transfer_us)
        return full + extra

    def read_phases(
        self, page_voltages: int, retries: int = 0, extra_single_reads: int = 0
    ) -> List[Tuple[str, float, Dict[str, int]]]:
        """Split one read into its span phases, ``(name, us, attrs)``.

        Mirrors :meth:`read_us` (unpipelined): the initial full read is the
        ``sense`` (where the sentinel inference happens) plus ``xfer_ecc``
        (transfer + host ECC decode); the sentinel machinery's auxiliary
        single-voltage reads follow as one ``aux_reads`` phase, then each
        ``retry_round`` re-senses and re-transfers.  Span emitters clamp
        the last phase to the read's end, so the phases tile it."""
        sense = self.sense_us(page_voltages)
        full = sense + self.t_transfer_us
        phases: List[Tuple[str, float, Dict[str, int]]] = [
            ("sense", sense, {}),
            ("xfer_ecc", self.t_transfer_us, {}),
        ]
        if extra_single_reads:
            phases.append((
                "aux_reads",
                extra_single_reads * (self.sense_us(1) + self.t_transfer_us),
                {"count": extra_single_reads},
            ))
        for r in range(1, retries + 1):
            phases.append(("retry_round", full, {"round": r}))
        return phases

    def pipeline_overlap_us(self, page_voltages: int) -> float:
        """Latency hidden per pipelined retry round (sense/transfer overlap)."""
        return min(self.sense_us(page_voltages), self.t_transfer_us)

    def read_outcome_us(self, outcome: ReadOutcome) -> float:
        """Price a chip-level :class:`ReadOutcome`.

        ``outcome.pipelined_senses`` retry rounds had their sensing issued
        speculatively during the previous round's transfer + ECC; the
        overlap is subtracted like the ``pipelined`` flag of
        :meth:`read_us` does, but per-outcome.
        """
        base = self.read_us(
            outcome.page_voltages, outcome.retries, outcome.extra_single_reads
        )
        overlapped = min(outcome.pipelined_senses, outcome.retries)
        if overlapped > 0:
            base -= overlapped * self.pipeline_overlap_us(outcome.page_voltages)
        return base
