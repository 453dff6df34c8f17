"""Trace-driven SSD simulator (the SSDSim role in the paper's Section IV-A).

The simulator models the datapath that turns per-page read-retry counts into
system-level read latency:

* ``timing``   — NAND operation latencies; sensing time is proportional to
  the number of read voltages applied, which is what makes retries (full
  re-senses) expensive and the sentinel's single-voltage reads cheap.
* ``events``   — a generic discrete-event queue.
* ``config``   — SSD geometry (channels, dies, blocks) and the FTL's
  over-provisioning and GC constants.
* ``ftl``      — page-mapping FTL with greedy garbage collection.
* ``retry_model`` — empirical per-page-type retry distributions measured on
  the chip-level simulation, replayed per I/O (this is how the chip-level
  results feed the system-level experiment).
* ``ssd``      — the device: request scheduling over dies and channels.
* ``metrics``  — latency/throughput summaries.
"""

from repro.ssd.config import SsdConfig
from repro.ssd.timing import NandTiming
from repro.ssd.retry_model import RetryProfile
from repro.ssd.ssd import Ssd, SimulationReport
from repro.ssd.ftl import PageMappingFtl

__all__ = [
    "SsdConfig",
    "NandTiming",
    "RetryProfile",
    "Ssd",
    "SimulationReport",
    "PageMappingFtl",
]
