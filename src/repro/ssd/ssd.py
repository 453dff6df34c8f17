"""The SSD device model: schedules FTL operations over dies and channels.

Scheduling model (standard SSDSim-style decomposition):

* a **read** senses on its die (time proportional to the page's read
  voltages, retries and auxiliary reads — priced by the retry profile), then
  transfers over the die's channel, starting early by the pipelined-retry
  overlap (:meth:`~repro.ssd.timing.NandTiming.read_cost` prices all
  three);
* a **write** transfers host data over the channel, then programs on the die;
* an **erase** occupies the die;
* operations of one request run in parallel across dies; the request
  completes when its last operation does.

Dies and channels are serially-occupied resources with availability clocks;
requests are admitted in arrival order (open-loop replay of the trace).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.faults import FAULTS
from repro.flash.spec import FlashSpec
from repro.obs import OBS
from repro.ssd.config import SsdConfig
from repro.ssd.events import EventQueue, Resource
from repro.ssd.ftl import PageMappingFtl, PhysicalOp
from repro.ssd.metrics import SimulationReport
from repro.ssd.retry_model import RetryDraws, RetryProfile
from repro.ssd.timing import NandTiming
from repro.traces.trace import Trace, TraceRequest
from repro.util.rng import derive_rng

# re-export for the package namespace
__all__ = ["Ssd", "SimulationReport"]

#: program/erase suspend turnaround a read pays on a die that is writing
SUSPEND_US = 8.0


class Ssd:
    """One simulated SSD bound to a retry profile (i.e., to a read policy)."""

    def __init__(
        self,
        spec: FlashSpec,
        config: SsdConfig,
        timing: NandTiming,
        retry_profile: RetryProfile,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.config = config
        self.timing = timing
        self.profile = retry_profile
        self.ftl = PageMappingFtl(config)
        self.draws = RetryDraws(
            derive_rng(seed, "ssd", retry_profile.policy_name)
        )
        # Reads preempt programs/erases (program-suspend, standard in modern
        # controllers): each die keeps one clock for reads and one for
        # writes/erases; a read arriving during a program pays only the
        # suspend turnaround, not the remaining program time.
        self._die_reads = [Resource(f"die{d}:r") for d in range(config.n_dies)]
        self._die_writes = [Resource(f"die{d}:w") for d in range(config.n_dies)]
        self._channels = [Resource(f"ch{c}") for c in range(config.channels)]
        # retries -> number of page reads that needed exactly that many
        # (the report derives ``retries_sampled`` from it)
        self.retry_histogram: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # per-op scheduling
    # ------------------------------------------------------------------
    def _schedule_op(self, op: PhysicalOp, earliest_us: float) -> float:
        """Place one op on its die/channel; returns its completion time."""
        channel = self._channels[self.config.channel_of_die(op.die)]
        t = self.timing
        if op.kind == "read":
            read_lane = self._die_reads[op.die]
            ptype = op.page % self.spec.pages_per_wordline
            retries, extra = self.profile.sample(ptype, self.draws)
            self.retry_histogram[retries] = (
                self.retry_histogram.get(retries, 0) + 1
            )
            stall = FAULTS.die_stall_us(op.die, earliest_us)
            if self._die_writes[op.die].busy_until > max(
                earliest_us, read_lane.busy_until
            ):
                stall += SUSPEND_US  # suspend an in-flight program/erase
            die_us, channel_us, overlap_us = t.read_cost(
                self.profile.page_voltages[ptype], retries, extra,
                retries if self.profile.pipelined else 0,
                stall, FAULTS.congestion_factor(earliest_us),
            )
            sense_start, sense_end = read_lane.acquire(earliest_us, die_us)
            # a pipelined read's transfers start before its last sense ends
            xfer_start, end = channel.acquire(
                sense_end - overlap_us, channel_us
            )
            if OBS.enabled:
                self._observe_read(op, ptype, retries, extra, read_lane,
                                   channel, sense_start, sense_end,
                                   xfer_start, end)
            return end
        write_lane = self._die_writes[op.die]
        if op.kind == "program":
            xfer_start, xfer_end = channel.acquire(
                earliest_us,
                t.t_transfer_us * FAULTS.congestion_factor(earliest_us),
            )
            # the program cannot start while a read is sensing
            start = max(xfer_end, self._die_reads[op.die].busy_until)
            prog_start, end = write_lane.acquire(start, t.t_program_us)
            if OBS.enabled:
                self._observe_write(op, write_lane, prog_start, end,
                                    channel, xfer_start, xfer_end)
            return end
        if op.kind == "erase":
            start = max(earliest_us, self._die_reads[op.die].busy_until)
            erase_start, end = write_lane.acquire(start, t.t_erase_us)
            if OBS.enabled:
                self._observe_write(op, write_lane, erase_start, end)
            return end
        raise ValueError(f"unknown op kind {op.kind!r}")

    # ------------------------------------------------------------------
    # observability (only reached when ``OBS.enabled``)
    # ------------------------------------------------------------------
    def _observe_read(self, op, ptype, retries, extra, read_lane, channel,
                      sense_start, sense_end, xfer_start, end) -> None:
        policy = self.profile.policy_name
        if OBS.metrics.enabled:
            m = OBS.metrics
            m.counter(
                "repro_ssd_reads_total",
                help="scheduled NAND read operations",
                policy=policy, gc=str(op.gc).lower(),
            ).inc()
            m.histogram(
                "repro_ssd_read_service_us",
                help="read service time: sense start to transfer end",
                policy=policy,
            ).observe(end - sense_start)
        if OBS.tracer.enabled:
            tr = OBS.tracer
            tr.emit(
                "read_attempt",
                level="ssd",
                policy=policy,
                die=op.die,
                page_type=ptype,
                gc=op.gc,
                retries=retries,
                extra=extra,
                ts=sense_start,
                service_us=end - sense_start,
            )
            tr.emit("die_busy", resource=read_lane.name,
                    start=sense_start, end=sense_end)
            tr.emit("channel_busy", resource=channel.name,
                    start=xfer_start, end=end)

    def _observe_write(self, op, lane, start, end,
                       channel=None, xfer_start=None, xfer_end=None) -> None:
        policy = self.profile.policy_name
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_ssd_ops_total",
                help="scheduled NAND program/erase operations",
                policy=policy, kind=op.kind, gc=str(op.gc).lower(),
            ).inc()
        if OBS.tracer.enabled:
            tr = OBS.tracer
            tr.emit("die_busy", resource=lane.name, start=start, end=end)
            if channel is not None:
                tr.emit("channel_busy", resource=channel.name,
                        start=xfer_start, end=xfer_end)

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def _lpns_of(self, req: TraceRequest) -> List[int]:
        """The logical pages a request touches, wrapped onto the device."""
        page = self.config.page_user_bytes
        lba, size = int(req.lba_bytes), int(req.size_bytes)
        first, last = lba // page, (lba + max(size, 1) - 1) // page
        span = len(self.ftl.mapping)
        return [(first + k) % span for k in range(last - first + 1)]

    def _requests(
        self, trace: Trace, max_requests: Optional[int] = None
    ) -> List[TraceRequest]:
        """The replayed prefix of the trace, its footprint preconditioned."""
        requests = trace.requests[: max_requests or len(trace.requests)]
        self.ftl.precondition(sorted({
            lpn for req in requests for lpn in self._lpns_of(req)
        }))
        return requests

    def _serve(self, req: TraceRequest, issue_us: float) -> float:
        """Schedule one request's ops; returns its completion time."""
        completion = issue_us
        for lpn in self._lpns_of(req):
            ops = self.ftl.read_ops(lpn) if req.is_read else self.ftl.write_ops(lpn)
            op_time = issue_us
            for op in ops:
                # ops of one lpn are dependent (GC before reuse);
                # different lpns of the request run in parallel
                op_time = self._schedule_op(op, op_time)
            completion = max(completion, op_time)
        return completion

    def run_trace(
        self, trace: Trace, max_requests: Optional[int] = None
    ) -> SimulationReport:
        """Replay a trace open-loop; returns the latency report."""
        # traces keep completion-log order; open-loop replay issues in
        # arrival order (stable sort keeps equal-time ties in file order)
        requests = sorted(
            self._requests(trace, max_requests),
            key=lambda r: r.time_s,
        )
        read_lat: List[float] = []
        write_lat: List[float] = []
        for req in requests:
            arrival_us = req.time_s * 1e6
            latency = self._serve(req, arrival_us) - arrival_us
            (read_lat if req.is_read else write_lat).append(latency)
        sim_seconds = requests[-1].time_s - requests[0].time_s if requests else 0.0
        return self._report(trace, read_lat, write_lat, sim_seconds)

    def run_closed_loop(
        self, trace: Trace, queue_depth: int = 8
    ) -> SimulationReport:
        """Closed-loop replay: keep ``queue_depth`` requests outstanding.

        Trace arrival times are ignored; a new request is admitted whenever
        one of the outstanding requests completes.  This measures the
        device's *throughput* limit (reported in ``extras['iops']``) and the
        latency under saturation — where read retries hurt the most.
        At ``queue_depth`` outstanding requests, admission steps an
        :class:`~repro.ssd.events.EventQueue` to the earliest completion.
        """
        requests = self._requests(trace)
        read_lat: List[float] = []
        write_lat: List[float] = []
        queue = EventQueue()
        outstanding = 0

        def _request_completed() -> None:
            nonlocal outstanding
            outstanding -= 1

        for req in requests:
            while outstanding >= queue_depth and queue.step():
                pass  # advance to the earliest completion to free a slot
            issue_us = queue.now
            completion = self._serve(req, issue_us)
            outstanding += 1
            queue.schedule(completion, _request_completed)
            (read_lat if req.is_read else write_lat).append(completion - issue_us)
        last_completion = queue.run()  # drain the tail of in-flight requests
        report = self._report(trace, read_lat, write_lat, last_completion / 1e6)
        if last_completion > 0:
            report.extras["iops"] = len(requests) / (last_completion / 1e6)
        report.extras["queue_depth"] = float(queue_depth)
        return report

    def _report(
        self,
        trace: Trace,
        read_lat: List[float],
        write_lat: List[float],
        sim_seconds: float,
    ) -> SimulationReport:
        lanes = {
            "die_read": self._die_reads,
            "die_write": self._die_writes,
            "channel": self._channels,
        }
        horizon = max(
            [r.busy_until for rs in lanes.values() for r in rs] + [1.0]
        )
        extras = {
            f"{name}_utilization": float(
                np.mean([r.utilization(horizon) for r in rs])
            )
            for name, rs in lanes.items()
        }
        if OBS.enabled and OBS.metrics.enabled:
            extras["obs"] = OBS.metrics.snapshot()
        return SimulationReport(
            trace_name=trace.name,
            policy_name=self.profile.policy_name,
            read_latencies_us=np.asarray(read_lat),
            write_latencies_us=np.asarray(write_lat),
            simulated_seconds=max(sim_seconds, 0.0),
            host_reads=len(read_lat),
            host_writes=len(write_lat),
            gc_writes=self.ftl.gc_writes,
            gc_erases=self.ftl.gc_erases,
            write_amplification=self.ftl.write_amplification,
            retry_histogram=dict(self.retry_histogram),
            extras=extras,
        )
