"""The request broker and die scheduler: the online serving engine.

``FlashReadService`` turns the one-shot batch simulator into a long-lived
device under load, on the same deterministic virtual clock
(:class:`repro.ssd.events.EventQueue`):

* **admission** — client requests enter through one broker; a global
  outstanding-request limit plus per-die queue limits give explicit
  backpressure, and requests over either limit are *shed* (counted per
  client, emitted as ``shed`` events);
* **per-die queues** — each die serves one operation chain at a time from
  a FIFO; chains of one request run in parallel across dies and the
  request completes when its last chain does;
* **voltage cache** — every read consults the
  :class:`~repro.service.voltage_cache.VoltageOffsetCache`; a hit samples
  the *warm* retry profile (the read starts at the cached offsets), a miss
  samples the *cold* one and stores the inference the sentinel flow
  produced during the read;
* **scrubber** — dies that stay idle past a threshold refresh their
  stalest cache entries in bounded passes
  (:class:`~repro.service.scrubber.SentinelScrubber`);
* **SLO monitor** — every lifecycle transition lands in the
  :class:`~repro.service.slo.SloMonitor`.

Timing follows :class:`repro.ssd.timing.NandTiming`; a die's chain holds
the die for sense+transfer of each op (channel contention is folded into
the die occupancy — the serving layer trades the two-resource model of
``Ssd`` for queue-level control, see ``docs/SERVICE.md``).  A die slot
is priced in one pass over its chain: programs and erases in place, each
read through ``_read_us``, whose retry row is one draw of the broker's
:class:`~repro.ssd.retry_model.RetryDraws` stream in pricing order.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.faults import FAULTS
from repro.flash.spec import FlashSpec
from repro.obs import OBS
from repro.service.breaker import CLOSED, OPEN, CircuitBreaker
from repro.service.profiles import COLD, WARM
from repro.service.report import ServiceReport
from repro.service.scrubber import IDLE_DELAY_US, SentinelScrubber
from repro.service.slo import SloMonitor
from repro.service.voltage_cache import CacheKey, VoltageOffsetCache
from repro.service.workload import ClientSpec, ServiceRequest, generate_requests
from repro.ssd.config import SsdConfig
from repro.ssd.events import EventQueue
from repro.ssd.ftl import PageMappingFtl, PhysicalOp
from repro.ssd.retry_model import RetryDraws, RetryProfile
from repro.ssd.timing import NandTiming
from repro.util.rng import derive_rng


#: SLO-monitor window length (virtual microseconds)
SLO_WINDOW_US = 250_000.0
#: one read attempt is aborted (and counted a failure) past this budget.
#: Only fault hazards get near it: the slowest fault-free read (a QLC MSB
#: page with 12 retries and 20 auxiliary reads) costs ~3.2 ms
OP_TIMEOUT_US = 20_000.0
#: a request whose read attempts overrun this budget goes degraded outright
REQUEST_TIMEOUT_US = 100_000.0
#: attempts per read before the degraded fallback
READ_ATTEMPTS = 3
#: bounded exponential backoff between failed attempts
BACKOFF_BASE_US = 200.0
BACKOFF_CAP_US = 5_000.0
#: per-die circuit breaker: consecutive timeouts to trip, cool-down
BREAKER_THRESHOLD = 4
BREAKER_OPEN_US = 50_000.0
#: fallback-table retries charged to one degraded read — also the
#: vendor-walk baseline a read span's ``saved_us`` is measured against
DEGRADED_RETRIES = 4
#: reads coalesced into one batch at most, leader included
BATCH_LIMIT = 8


@dataclass(frozen=True)
class ServiceConfig:
    """Broker admission and feature switches.

    The resilience parameters are module constants (``OP_TIMEOUT_US``,
    ``READ_ATTEMPTS``, ...): they shape only reads that a fault hazard
    pushed into failure, and without an active fault plan no read
    fails."""

    admit_limit: int = 64  # outstanding requests across all clients
    die_queue_limit: int = 16  # pending chains per die
    cache_enabled: bool = True
    scrub_enabled: bool = True
    #: batched die scheduling: when a die starts a single-read chain, other
    #: queued single-read chains of the same (block, wordline) are served
    #: with it — one sentinel inference (the leader's retry discovery)
    #: covers the whole batch, followers pay sense-at-known-offsets or
    #: transfer only.  Off by default: the synthetic serving scenarios and
    #: their goldens predate batching; the trace-replay frontend turns it on.
    #: A batch holds at most ``BATCH_LIMIT`` reads.
    batch_enabled: bool = False

    def __post_init__(self) -> None:
        if self.admit_limit < 1:
            raise ValueError("admit_limit must be positive")
        if self.die_queue_limit < 1:
            raise ValueError("die_queue_limit must be positive")


class _InFlight:
    """One admitted request: issue time + unfinished chain count."""

    __slots__ = ("request", "issue_us", "remaining", "degraded", "span_seq")

    def __init__(self, request: ServiceRequest, issue_us: float, chains: int):
        self.request = request
        self.issue_us = issue_us
        self.remaining = chains
        self.degraded = False  # any read of the request went degraded
        self.span_seq = 1  # next span id (0 is the root "request" span)


class _DieLane:
    """FIFO of op chains plus the busy flag of one die."""

    __slots__ = ("index", "queue", "busy", "busy_us")

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: Deque[Tuple[_InFlight, List[PhysicalOp]]] = deque()
        self.busy = False
        self.busy_us = 0.0


class FlashReadService:
    """A deterministic online serving layer over the discrete-event SSD."""

    def __init__(
        self,
        spec: FlashSpec,
        ssd_config: SsdConfig,
        timing: NandTiming,
        profiles: Dict[str, RetryProfile],
        seed: int = 0,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if COLD not in profiles:
            raise ValueError(f"profiles must contain a {COLD!r} entry")
        self.spec = spec
        self.ssd_config = ssd_config
        self.timing = timing
        self.profiles = profiles
        self.seed = seed
        self.config = config or ServiceConfig()
        if self.config.cache_enabled and WARM not in profiles:
            raise ValueError(
                f"cache enabled but profiles lack a {WARM!r} entry"
            )
        self.ftl = PageMappingFtl(ssd_config)
        self.draws = RetryDraws(derive_rng(seed, "service", "retries"))
        self.queue = EventQueue()
        self.cache = VoltageOffsetCache()
        self.scrubber = SentinelScrubber(self.cache, timing)
        self.slo = SloMonitor(SLO_WINDOW_US)
        self._lanes = [_DieLane(d) for d in range(ssd_config.n_dies)]
        self._breakers = [
            CircuitBreaker(d, BREAKER_THRESHOLD, BREAKER_OPEN_US)
            for d in range(ssd_config.n_dies)
        ]
        #: recovery counters (timeouts, backoffs, ...); empty until faults fire
        self.resilience: Dict[str, float] = {}
        #: batched die-scheduling counters (only reported when enabled)
        self.batch_stats: Dict[str, int] = {
            "batches": 0, "coalesced_reads": 0, "max_batch": 0,
        }
        #: erase count per (die, block) — the P/E signal of drift invalidation
        self._erases: Dict[Tuple[int, int], int] = {}
        self.retry_histogram: Dict[int, int] = {}
        self._outstanding = 0
        self._remaining = 0
        self._closed_pending: Dict[str, Deque[ServiceRequest]] = {}
        self._client_mode: Dict[str, str] = {}
        #: a page's type is ``page % ppw`` and its cache layer
        #: ``page // (ppw * wordlines_per_layer)``
        self._pages_per_wordline = spec.pages_per_wordline
        self._pages_per_layer = (
            spec.pages_per_wordline * spec.wordlines_per_layer
        )
        #: one program op holds the die for its transfer and its program
        self._program_us = timing.t_transfer_us + timing.t_program_us
        #: read price ``die + channel - overlap`` per full argument tuple of
        #: :meth:`NandTiming.read_cost` (it is pure in those arguments)
        self._read_prices: Dict[tuple, float] = {}
        #: while a die slot is being priced with span tracing on, the op
        #: pricers append one ``(name, duration, phases, attrs)`` entry per
        #: op here; ``None`` otherwise (the zero-cost default)
        self._op_phase_log: Optional[List[tuple]] = None
        #: prepended to every span trace id (``{client}/{index}``): a
        #: driver that traces several brokers into one stream names each
        self.trace_prefix = ""

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _wrap(self, lpn: int) -> int:
        return lpn % len(self.ftl.mapping)

    def _pe_of(self, key: CacheKey) -> int:
        return self._erases.get((key[0], key[1]), 0)

    # ------------------------------------------------------------------
    # fleet integration (repro.fleet)
    # ------------------------------------------------------------------
    def age_blocks(self, pe_cycles: int) -> None:
        """Set every block's erase-count baseline — a device that has
        lived ``pe_cycles`` program/erase cycles before this run.  The
        voltage cache invalidates an entry once its block is erased past
        the count the entry was inferred (or imported) at."""
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        for die in range(self.ssd_config.n_dies):
            for block in range(self.ssd_config.blocks_per_die):
                self._erases[(die, block)] = pe_cycles

    def export_cache_state(self) -> Dict[str, object]:
        """Snapshot the voltage cache for cohort warm-start (ages relative
        to this device's clock)."""
        return self.cache.export_state(self.queue.now, pe_of=self._pe_of)

    def warm_start_cache(self, state: Dict[str, object]) -> int:
        """Seed the voltage cache from a cohort sibling's exported state;
        returns the number of entries imported."""
        return self.cache.warm_start(
            state, now_us=self.queue.now, pe_of=self._pe_of
        )

    # ------------------------------------------------------------------
    # span tracing (repro.obs.spans)
    # ------------------------------------------------------------------
    def _spans_on(self) -> bool:
        return OBS.enabled and OBS.tracer.enabled and OBS.spans_enabled

    def _trace_id(self, req: ServiceRequest) -> str:
        return f"{self.trace_prefix}{req.client}/{req.index}"

    @staticmethod
    def _next_span(inflight: _InFlight) -> int:
        sid = inflight.span_seq
        inflight.span_seq += 1
        return sid

    def _emit_span(
        self,
        trace: str,
        span_id: int,
        parent: Optional[int],
        name: str,
        t0: float,
        t1: float,
        **attrs,
    ) -> None:
        OBS.tracer.emit(
            "span", trace=trace, span=span_id, parent=parent, name=name,
            t0=t0, t1=t1, **attrs,
        )

    def _emit_chain_spans(
        self,
        inflight: _InFlight,
        op_log: List[tuple],
        followers: List[Tuple[_InFlight, List[PhysicalOp]]],
        start: float,
        leader_end: float,
        end: float,
        die: int,
    ) -> None:
        """Emit the span tree of one die service slot.

        Tiling invariant (what makes phase sums reconcile with end-to-end
        latencies): every parent's children partition its interval, with
        the last child clamped to the parent's end so float noise in the
        duration sums cannot open a gap.  The leader's chain runs
        ``queue_wait`` then each op (each op its phases); follower chains
        run ``queue_wait`` then ``batch_ride`` over the whole slot."""
        trace = self._trace_id(inflight.request)
        chain_id = self._next_span(inflight)
        self._emit_span(
            trace, chain_id, 0, "chain", inflight.issue_us, end,
            die=die, ops=len(op_log),
        )
        qw = self._next_span(inflight)
        self._emit_span(trace, qw, chain_id, "queue_wait",
                        inflight.issue_us, start)
        t = start
        ops_end = leader_end if followers else end
        for i, (name, duration, phases, attrs) in enumerate(op_log):
            op_t1 = ops_end if i == len(op_log) - 1 else t + duration
            op_id = self._next_span(inflight)
            self._emit_span(trace, op_id, chain_id, name, t, op_t1, **attrs)
            pt = t
            for j, (pname, pdur, pattrs) in enumerate(phases):
                p_t1 = op_t1 if j == len(phases) - 1 else pt + pdur
                pid = self._next_span(inflight)
                self._emit_span(trace, pid, op_id, pname, pt, p_t1, **pattrs)
                pt = p_t1
            t = op_t1
        if followers:
            bid = self._next_span(inflight)
            self._emit_span(
                trace, bid, chain_id, "batch_followers", leader_end, end,
                followers=len(followers),
            )
            for f_inflight, _ in followers:
                f_trace = self._trace_id(f_inflight.request)
                f_chain = self._next_span(f_inflight)
                self._emit_span(
                    f_trace, f_chain, 0, "chain",
                    f_inflight.issue_us, end, die=die, ops=1, batched=True,
                )
                f_qw = self._next_span(f_inflight)
                self._emit_span(f_trace, f_qw, f_chain, "queue_wait",
                                f_inflight.issue_us, start)
                f_ride = self._next_span(f_inflight)
                self._emit_span(
                    f_trace, f_ride, f_chain, "batch_ride", start, end,
                    leader=trace,
                )

    # ------------------------------------------------------------------
    # scenario entry point
    # ------------------------------------------------------------------
    def run(
        self, clients: Sequence[ClientSpec], scenario: str = "custom"
    ) -> ServiceReport:
        """Serve every client's request stream to completion."""
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise ValueError("client names must be unique")
        all_requests: Dict[str, List[ServiceRequest]] = {
            c.name: generate_requests(c, seed=self.seed) for c in clients
        }
        return self.run_prepared(
            all_requests,
            modes={c.name: c.mode for c in clients},
            queue_depths={c.name: c.queue_depth for c in clients},
            scenario=scenario,
        )

    def run_prepared(
        self,
        all_requests: Dict[str, List[ServiceRequest]],
        modes: Optional[Dict[str, str]] = None,
        queue_depths: Optional[Dict[str, int]] = None,
        scenario: str = "custom",
        tenants: Optional[Dict[str, str]] = None,
    ) -> ServiceReport:
        """Serve pre-built per-client request streams to completion.

        The entry point of the trace-replay frontend (:mod:`repro.replay`)
        and the fleet dispatcher (:mod:`repro.fleet`).  Clients default to
        open-loop (``"poisson"`` mode: every request must carry an absolute
        ``arrival_us``); closed clients additionally need a
        ``queue_depths`` entry.  Scheduling order is the dict's insertion
        order, so callers control tie-breaks deterministically.  A
        ``tenants`` client→tenant mapping adds the per-tenant SLO rollup
        to the report (omitted entirely when absent, so single-tenant
        reports keep their historical bytes)."""
        modes = modes or {}
        queue_depths = queue_depths or {}
        if tenants:
            self.slo.tenants = dict(tenants)
        self._client_mode = {
            name: modes.get(name, "poisson") for name in all_requests
        }
        # precondition the union footprint so reads hit mapped pages
        touched = set()
        for requests in all_requests.values():
            for req in requests:
                for k in range(req.n_pages):
                    touched.add(self._wrap(req.lpn + k))
        self.ftl.precondition(sorted(touched))

        self._remaining = sum(len(r) for r in all_requests.values())
        for name, requests in all_requests.items():
            if self._client_mode[name] == "poisson":
                for req in requests:
                    if req.arrival_us is None:
                        raise ValueError(
                            f"open-loop request of {name!r} lacks arrival_us"
                        )
                    self.queue.schedule(
                        req.arrival_us, lambda r=req: self._issue(r)
                    )
            else:
                pending = deque(requests)
                self._closed_pending[name] = pending
                for _ in range(min(queue_depths.get(name, 1), len(pending))):
                    self.queue.schedule(
                        0.0, lambda n=name: self._issue_next_closed(n)
                    )
        self.queue.run()
        return self._report(scenario)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _issue_next_closed(self, client: str) -> None:
        pending = self._closed_pending.get(client)
        if pending:
            self._issue(pending.popleft())

    def _resil(self, name: str, amount: float = 1) -> None:
        self.resilience[name] = self.resilience.get(name, 0) + amount

    def _issue(self, req: ServiceRequest) -> None:
        self.slo.record_issue(req.client)
        admit_limit = self.config.admit_limit
        if FAULTS.active:
            admit_limit = FAULTS.injector.admit_limit(
                admit_limit, self.queue.now
            )
        if self._outstanding >= admit_limit:
            if admit_limit < self.config.admit_limit:
                # would have been admitted at the configured limit
                self._resil("overload_sheds")
            self._shed(req)
            return
        # a read chain only looks its page up (the footprint is
        # preconditioned, so no read maps a page), so reads translate once
        # and take their dies from their chains; writes mutate the FTL, so
        # their dies are predicted and their chains built only once admitted
        lpns = [self._wrap(req.lpn + k) for k in range(req.n_pages)]
        if req.is_read:
            chains = [self.ftl.read_ops(lpn) for lpn in lpns]
            dies = [ops[0].die for ops in chains]
        else:
            dies = [self.ftl.peek_write_die(k) for k in range(req.n_pages)]
        for die, count in Counter(dies).items():
            if len(self._lanes[die].queue) + count > self.config.die_queue_limit:
                self._shed(req)
                return
        if not req.is_read:
            chains = [self.ftl.write_ops(lpn) for lpn in lpns]
        self._outstanding += 1
        inflight = _InFlight(req, issue_us=self.queue.now, chains=len(chains))
        for ops in chains:
            lane = self._lanes[ops[0].die]
            lane.queue.append((inflight, ops))
            if not lane.busy:
                self._start_next(lane)

    def _shed(self, req: ServiceRequest) -> None:
        self.slo.record_shed(req.client, self.queue.now, req.is_read)
        if self._spans_on():
            self._emit_span(
                self._trace_id(req), 0, None, "request",
                self.queue.now, self.queue.now,
                client=req.client, index=req.index, read=req.is_read,
                outcome="shed",
            )
        self._request_done(req)

    def _request_done(self, req: ServiceRequest) -> None:
        """Common tail of completion and shed: refill closed-loop clients."""
        self._remaining -= 1
        if self._client_mode.get(req.client) == "closed":
            # scheduled (not called) so deep shed chains cannot recurse
            self.queue.schedule(
                self.queue.now,
                lambda n=req.client: self._issue_next_closed(n),
            )

    # ------------------------------------------------------------------
    # die service
    # ------------------------------------------------------------------
    def _start_next(self, lane: _DieLane) -> None:
        if lane.busy:
            return
        if not lane.queue:
            if (
                self.config.scrub_enabled
                and self.config.cache_enabled
                and self._remaining > 0
            ):
                self.queue.schedule_after(
                    IDLE_DELAY_US, lambda: self._scrub_check(lane)
                )
            return
        inflight, ops = lane.queue.popleft()
        lane.busy = True
        followers = (
            self._coalesce(lane, ops) if self.config.batch_enabled else []
        )
        # one pass prices the slot: programs and erases in place, reads
        # through ``_read_us``; with spans on, each op logs its phases
        op_log = [] if self._spans_on() else None
        self._op_phase_log = op_log
        erases = self._erases
        duration = 0
        for op in ops:  # summed as ``sum()`` would: 0 + d1 + d2 ...
            kind = op.kind
            if kind == "read":
                duration += self._read_us(op, inflight)
            elif kind == "program":
                duration += self._program_us
                if op_log is not None:
                    op_log.append((
                        "program", self._program_us, [],
                        {"die": op.die, "block": op.block, "gc": op.gc},
                    ))
            elif kind == "erase":
                where = (op.die, op.block)
                erases[where] = erases.get(where, 0) + 1
                duration += self.timing.t_erase_us
                if op_log is not None:
                    op_log.append((
                        "erase", self.timing.t_erase_us, [],
                        {"die": op.die, "block": op.block, "gc": op.gc},
                    ))
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        self._op_phase_log = None
        leader_duration = duration
        for _, f_ops in followers:
            duration += self._follower_read_us(f_ops[0], ops[0])
        members = [inflight] + [f_inflight for f_inflight, _ in followers]
        lane.busy_us += duration
        if op_log is not None:
            start = self.queue.now
            self._emit_chain_spans(
                inflight, op_log, followers,
                start, start + leader_duration, start + duration,
                lane.index,
            )
        self.queue.schedule_after(
            duration, lambda: self._chains_done(lane, members)
        )

    # ------------------------------------------------------------------
    # batched die scheduling (trace replay)
    # ------------------------------------------------------------------
    @staticmethod
    def _batchable(ops: List[PhysicalOp]) -> bool:
        """Only plain single-read chains coalesce — writes and GC chains
        mutate FTL/die state and keep their own service slots."""
        return len(ops) == 1 and ops[0].kind == "read"

    def _coalesce(
        self, lane: _DieLane, leader_ops: List[PhysicalOp]
    ) -> List[Tuple[_InFlight, List[PhysicalOp]]]:
        """Pull co-queued same-(block, wordline) reads behind the leader.

        Everything already waiting in the lane when the leader starts is
        "co-arriving" at die granularity: the sense hasn't begun, so the
        controller is free to serve those reads off the same wordline
        activation and sentinel inference.  Queue order of the remaining
        chains is preserved, so coalescing is deterministic."""
        if not self._batchable(leader_ops):
            return []
        leader = leader_ops[0]
        ppw = self._pages_per_wordline
        key = (leader.block, leader.page // ppw)
        picked: List[Tuple[_InFlight, List[PhysicalOp]]] = []
        rest: Deque[Tuple[_InFlight, List[PhysicalOp]]] = deque()
        budget = BATCH_LIMIT - 1
        for item in lane.queue:
            ops = item[1]
            if (
                len(picked) < budget
                and self._batchable(ops)
                and (ops[0].block, ops[0].page // ppw) == key
            ):
                picked.append(item)
            else:
                rest.append(item)
        if picked:
            lane.queue = rest
            size = 1 + len(picked)
            self.batch_stats["batches"] += 1
            self.batch_stats["coalesced_reads"] += len(picked)
            if size > self.batch_stats["max_batch"]:
                self.batch_stats["max_batch"] = size
            if OBS.enabled and OBS.tracer.enabled:
                OBS.tracer.emit(
                    "batch_coalesce",
                    die=lane.index, block=key[0], wordline=key[1],
                    size=size, ts=self.queue.now,
                )
        return picked

    def _follower_read_us(
        self, op: PhysicalOp, leader: PhysicalOp
    ) -> float:
        """Price one coalesced read riding the leader's wordline activation.

        The leader's flow already discovered the working voltage offsets
        (its sentinel inference covers the wordline), so a follower never
        retries: the leader's own page type re-transfers the sensed data,
        any other page type of the wordline senses its voltages once at the
        known offsets."""
        self.retry_histogram[0] = self.retry_histogram.get(0, 0) + 1
        ptype = op.page % self._pages_per_wordline
        if ptype == leader.page % self._pages_per_wordline:
            return self.timing.t_transfer_us
        n_voltages = self.profiles[COLD].page_voltages[ptype]
        return self.timing.read_us(n_voltages, 0, 0)

    def _observe_lookup(self, key: CacheKey, hit: bool, gc: bool) -> None:
        """Metrics and trace of one voltage-cache lookup (obs on only)."""
        if OBS.metrics.enabled:
            OBS.metrics.counter(
                "repro_service_cache_lookups_total",
                help="voltage-cache lookups by outcome",
                result="hit" if hit else "miss",
            ).inc()
        if OBS.tracer.enabled:
            OBS.tracer.emit(
                "cache_hit" if hit else "cache_miss",
                die=key[0], block=key[1], layer=key[2],
                ts=self.queue.now, gc=gc,
            )

    def _read_us(self, op: PhysicalOp, inflight: _InFlight) -> float:
        """Price one read: the attempt loop every read runs.

        An attempt looks the read's (die, block, layer) up in the voltage
        cache, samples the warm (hit) or cold (miss) retry profile and
        prices that read with :meth:`NandTiming.read_cost`, memoised per
        argument tuple (with spans on, ``read_cost`` runs every time to
        build the phases).  Fault hazards are terms of the attempt, and
        their hooks run only under an active fault plan: a die stall adds
        to its sensing and channel congestion scales its transfers —
        either can push it past ``OP_TIMEOUT_US``, a failure counted
        against the die's circuit breaker; a stale cache hit fails it
        silently (retried cold after backoff, no die-health signal); a
        corrupt hit is quarantined and the attempt proceeds cold.  An open
        breaker, exhausted attempts or an overrun request budget end in
        the degraded fallback-table read.  Without faults the first
        attempt always succeeds and returns straight away, so the
        timeout, backoff and breaker code below it runs only for failed
        attempts."""
        now = self.queue.now
        die, block = op.die, op.block
        ptype = op.page % self._pages_per_wordline
        breaker = self._breakers[die]
        # span phases, only while a die slot is priced with spans on
        phases = [] if self._op_phase_log is not None else None
        total = 0.0
        if breaker.state != CLOSED and not breaker.allow(now):
            reason = "breaker_open"
        else:
            faults = FAULTS.injector  # None while no fault plan is active
            cache = self.cache if self.config.cache_enabled else None
            key = (die, block, op.page // self._pages_per_layer)
            pe_cycles = self._erases.get((die, block), 0)
            histogram = self.retry_histogram
            attempt = 0
            while True:
                attempt += 1
                hit = False
                event = None
                if cache is not None:
                    hit = cache.lookup(key, now, pe_cycles) is not None
                    if OBS.enabled:
                        self._observe_lookup(key, hit, op.gc)
                    if hit and faults is not None:
                        event = faults.cache_event(key, now)
                        if event == "corrupt":
                            # detected corruption: drop + quarantine, go cold
                            cache.quarantine(key, now)
                            self._resil("cache_quarantines")
                            hit = False
                profile = self.profiles[WARM if hit else COLD]
                retries, extra = profile.sample(ptype, self.draws)
                histogram[retries] = histogram.get(retries, 0) + 1
                if cache is not None and not hit:
                    # the cold read's sentinel flow inferred the offset
                    cache.put(key, now, pe_cycles)
                n_voltages = profile.page_voltages[ptype]
                if faults is None:
                    stall, factor = 0.0, 1.0
                else:
                    stall = FAULTS.die_stall_us(die, now)
                    factor = FAULTS.congestion_factor(now)
                cost_args = (
                    n_voltages, retries, extra,
                    retries if profile.pipelined else 0, stall, factor,
                )
                if phases is None:
                    read_phases = None
                    duration = self._read_prices.get(cost_args)
                    if duration is None:
                        d_us, c_us, overlap = self.timing.read_cost(*cost_args)
                        duration = d_us + c_us - overlap
                        self._read_prices[cost_args] = duration
                else:
                    read_phases = []
                    d_us, c_us, overlap = self.timing.read_cost(
                        *cost_args, read_phases
                    )
                    duration = d_us + c_us - overlap
                if duration > OP_TIMEOUT_US:
                    duration = OP_TIMEOUT_US  # attempt aborted at the budget
                    failure = "timeout"
                elif event == "stale":
                    failure = "stale"
                else:
                    total += duration
                    if breaker.failures or breaker.state != CLOSED:
                        breaker.record_success()
                    if read_phases is not None:
                        phases += read_phases
                        self._log_read(
                            op, ptype, n_voltages, retries, extra,
                            "hit" if hit else (
                                "miss" if cache is not None else "off"
                            ),
                            phases, total,
                        )
                    return total
                # a failed attempt: account it, back off, maybe retry
                total += duration
                if phases is not None:
                    phases.append((
                        "failed_attempt", duration,
                        {
                            "attempt": attempt, "outcome": failure,
                            "retries": retries, "extra": extra,
                        },
                    ))
                if failure == "timeout":
                    self._resil("op_timeouts")
                    trip = breaker.record_failure(now + total)
                    if trip:
                        self._observe_breaker_trip(breaker, now + total, trip)
                    if breaker.state == OPEN:
                        reason = "retries_exhausted"
                        break
                else:
                    # the hinted read silently missed: forget the bad entry
                    # so the retry goes cold
                    self._resil("stale_retries")
                    cache.invalidate(key)
                if total > REQUEST_TIMEOUT_US - (now - inflight.issue_us):
                    self._resil("request_timeouts")
                    reason = "request_timeout"
                    break
                if attempt == READ_ATTEMPTS:
                    reason = "retries_exhausted"
                    break
                backoff = min(
                    BACKOFF_BASE_US * (2 ** (attempt - 1)), BACKOFF_CAP_US
                )
                total += backoff
                self._resil("backoffs")
                self._resil("backoff_us", backoff)
                if phases is not None:
                    phases.append(("backoff", backoff, {"attempt": attempt}))
        degraded_us = self._degraded_read_us(op, ptype, inflight, now, reason)
        total += degraded_us
        if phases is not None:
            phases.append(("degraded_fallback", degraded_us, {"reason": reason}))
            self._log_read(
                op, ptype, self.profiles[COLD].page_voltages[ptype],
                DEGRADED_RETRIES, 0, "bypass", phases, total,
            )
        return total

    def _log_read(
        self,
        op: PhysicalOp,
        ptype: int,
        n_voltages: int,
        retries: int,
        extra: int,
        cache: str,
        phases: List[tuple],
        duration: float,
    ) -> None:
        """Record one read's span: its phases, the retries and auxiliary
        reads of the read that returned the data, the cache outcome, and
        ``saved_us`` — the fallback-table estimate (``DEGRADED_RETRIES``
        full-read rounds, the vendor-walk baseline) minus the read's
        duration, the per-read form of the paper's headline saving."""
        fallback = self.timing.read_us(n_voltages, DEGRADED_RETRIES, 0)
        self._op_phase_log.append((
            "read", duration, phases,
            {
                "die": op.die, "block": op.block, "page_type": ptype,
                "retries": retries, "extra": extra, "cache": cache,
                "saved_us": fallback - duration,
            },
        ))

    def _degraded_read_us(
        self, op: PhysicalOp, ptype: int, inflight: _InFlight, now: float,
        reason: str,
    ) -> float:
        """Last-resort read straight off the vendor fallback table.

        No cache, no profile sampling: a fixed ``DEGRADED_RETRIES`` walk of
        the table always lands on decodable voltages (the vendor guarantee
        the paper's baseline relies on).  Slow but certain — and still
        subject to an ongoing die stall, which is bounded, so the request
        completes."""
        profile = self.profiles[COLD]
        retries = DEGRADED_RETRIES
        self.retry_histogram[retries] = (
            self.retry_histogram.get(retries, 0) + 1
        )
        die, channel, _ = self.timing.read_cost(
            profile.page_voltages[ptype], retries,
            stall_us=FAULTS.die_stall_us(op.die, now),
        )
        duration = die + channel
        inflight.degraded = True
        self._resil("degraded_reads")
        if OBS.enabled:
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_faults_degraded_reads_total",
                    help="reads routed to the degraded fallback-table path",
                    reason=reason,
                ).inc()
            if OBS.tracer.enabled:
                OBS.tracer.emit(
                    "degraded_read",
                    die=op.die, block=op.block, ts=now, reason=reason,
                )
        return duration

    def _observe_breaker_trip(
        self, breaker: CircuitBreaker, ts: float, trip: str
    ) -> None:
        self._resil("breaker_trips")
        if OBS.enabled:
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_faults_breaker_trips_total",
                    help="per-die circuit-breaker open transitions",
                    die=str(breaker.die),
                ).inc()
            if OBS.tracer.enabled:
                OBS.tracer.emit(
                    "breaker_trip",
                    die=breaker.die,
                    ts=ts,
                    failures=(
                        breaker.threshold if trip == "open" else 1
                    ),
                    state=trip,
                )

    def _chains_done(self, lane: _DieLane, members: List[_InFlight]) -> None:
        """One die service slot finished: the chain it popped plus any
        reads coalesced into the batch complete together."""
        lane.busy = False
        for inflight in members:
            inflight.remaining -= 1
            if inflight.remaining == 0:
                req = inflight.request
                latency = self.queue.now - inflight.issue_us
                self._outstanding -= 1
                self.slo.record_completion(
                    req.client, self.queue.now, latency, req.is_read,
                    degraded=inflight.degraded,
                )
                if self._spans_on():
                    self._emit_span(
                        self._trace_id(req), 0, None, "request",
                        inflight.issue_us, self.queue.now,
                        client=req.client, index=req.index,
                        read=req.is_read,
                        outcome="degraded" if inflight.degraded else "ok",
                    )
                self._request_done(req)
        self._start_next(lane)

    # ------------------------------------------------------------------
    # background scrubbing
    # ------------------------------------------------------------------
    def _scrub_check(self, lane: _DieLane) -> None:
        """Idle-gap hook: start a bounded scrub pass if the die is still
        idle.  Not re-armed here on an empty candidate list — the next
        busy->idle transition re-arms, so a drained simulation terminates."""
        if lane.busy or lane.queue or self._remaining == 0:
            return
        if FAULTS.active and FAULTS.injector.scrub_starved(self.queue.now):
            self._resil("scrub_starved_passes")
            return
        keys = self.scrubber.candidates(lane.index, self.queue.now)
        if not keys:
            return
        lane.busy = True
        duration = self.scrubber.pass_duration_us(len(keys))
        lane.busy_us += duration
        self.queue.schedule_after(
            duration, lambda: self._scrub_done(lane, keys)
        )

    def _scrub_done(self, lane: _DieLane, keys: List[CacheKey]) -> None:
        self.scrubber.complete_pass(
            lane.index,
            keys,
            end_us=self.queue.now,
            pe_of=self._pe_of,
        )
        lane.busy = False
        self._start_next(lane)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, scenario: str) -> ServiceReport:
        horizon = self.queue.now
        # end of run: the watermark catches up to the horizon so every
        # fully elapsed window closes (and emits its slo_window event)
        self.slo.advance_watermark(horizon)
        utilization = (
            sum(lane.busy_us for lane in self._lanes)
            / (horizon * len(self._lanes))
            if horizon > 0 else 0.0
        )
        extras = {
            "gc_writes": float(self.ftl.gc_writes),
            "gc_erases": float(self.ftl.gc_erases),
            "write_amplification": float(self.ftl.write_amplification),
            "outstanding_at_end": float(self._outstanding),
        }
        if OBS.enabled and OBS.metrics.enabled:
            OBS.metrics.gauge(
                "repro_service_cache_hit_rate",
                help="voltage-cache hit rate over the run",
            ).set(self.cache.hit_rate)
        return ServiceReport(
            scenario=scenario,
            seed=self.seed,
            horizon_us=horizon,
            cache_enabled=self.config.cache_enabled,
            scrub_enabled=self.config.scrub_enabled,
            clients=self.slo.summary(horizon),
            windows={
                name: self.slo.window_series(name, horizon_us=horizon)
                for name in sorted(self.slo.clients)
            },
            cache=self.cache.stats() if self.config.cache_enabled else {},
            scrub=self.scrubber.stats() if self.config.scrub_enabled else {},
            retry_histogram=dict(self.retry_histogram),
            batch=(
                {k: float(self.batch_stats[k]) for k in sorted(self.batch_stats)}
                if self.config.batch_enabled else {}
            ),
            die_utilization=utilization,
            extras=extras,
            faults=(
                FAULTS.injector.counts_snapshot() if FAULTS.active else {}
            ),
            resilience={
                k: self.resilience[k] for k in sorted(self.resilience)
            },
            tenants=self.slo.tenant_summary(horizon),
        )
