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
from typing import ClassVar, List, Optional, Tuple

from repro.retry.policy import ReadOutcome


@dataclass(frozen=True)
class NandTiming:
    """Latency model of one NAND die + channel (microseconds).

    The latencies are class constants: every ``NandTiming()`` is the one
    device, and all of them compare equal."""

    t_sense_base_us: ClassVar[float] = 12.0  # sensing setup per read command
    t_sense_per_voltage_us: ClassVar[float] = 16.0  # per applied read voltage
    t_transfer_us: ClassVar[float] = 25.0  # page transfer over the channel
    t_program_us: ClassVar[float] = 660.0
    t_erase_us: ClassVar[float] = 3500.0

    def sense_us(self, n_voltages: int) -> float:
        """Array sensing time of one read applying ``n_voltages``."""
        if n_voltages < 1:
            raise ValueError("a read applies at least one voltage")
        return self.t_sense_base_us + n_voltages * self.t_sense_per_voltage_us

    def read_cost(
        self,
        page_voltages: int,
        retries: int = 0,
        extra_single_reads: int = 0,
        pipelined_rounds: int = 0,
        stall_us: float = 0.0,
        factor: float = 1.0,
        phases: Optional[List[tuple]] = None,
    ) -> Tuple[float, float, float]:
        """Price one page read: ``(die_us, channel_us, overlap_us)``.

        The read costs ``die_us + channel_us - overlap_us``.  Each full
        read (the first and every retry) senses ``page_voltages`` levels,
        each auxiliary read one; every read transfers the page.  ``die_us``
        is the senses plus ``stall_us``, ``channel_us`` the transfers
        times the congestion ``factor``.  The first ``pipelined_rounds``
        retries sense while the previous data is on the channel (Park et
        al., arXiv 2104.09611), each hiding ``min(sense, transfer)``.
        Given ``phases``, appends the span phases ``(name, us, attrs)``,
        built from the same terms so they sum to the cost."""
        sense, aux_sense = self.sense_us(page_voltages), self.sense_us(1)
        xfer = self.t_transfer_us
        transfers = (1 + retries + extra_single_reads) * xfer
        die = (1 + retries) * sense + extra_single_reads * aux_sense + stall_us
        channel = transfers * factor
        rounds = min(pipelined_rounds, retries)
        shaved = min(sense, xfer)
        if phases is not None:
            phases += [("sense", sense, {}), ("xfer_ecc", xfer, {})]
            if extra_single_reads:
                phases.append((
                    "aux_reads", extra_single_reads * (aux_sense + xfer),
                    {"count": extra_single_reads},
                ))
            phases += [
                ("retry_round", sense + xfer - (shaved if r <= rounds else 0.0),
                 {"round": r})
                for r in range(1, retries + 1)
            ]
            if stall_us:
                phases.append(("die_stall", stall_us, {}))
            if factor != 1.0:
                phases.append(
                    ("congestion", channel - transfers, {"factor": factor})
                )
        return die, channel, rounds * shaved

    def read_us(self, page_voltages: int, retries: int = 0,
                extra_single_reads: int = 0, pipelined: bool = False) -> float:
        """Cost of one fault-free read; ``pipelined`` overlaps every retry."""
        die, channel, overlap = self.read_cost(
            page_voltages, retries, extra_single_reads,
            retries if pipelined else 0,
        )
        return die + channel - overlap

    def read_outcome_us(self, outcome: ReadOutcome) -> float:
        """Price a chip-level :class:`ReadOutcome`; its
        ``pipelined_senses`` retry rounds are overlapped."""
        die, channel, overlap = self.read_cost(
            outcome.page_voltages, outcome.retries,
            outcome.extra_single_reads, outcome.pipelined_senses,
        )
        return die + channel - overlap
