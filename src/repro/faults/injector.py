"""The runtime half of fault injection: deterministic per-decision draws.

One :class:`FaultInjector` holds an immutable :class:`~repro.faults.plan.FaultPlan`
plus the campaign seed and answers the hook sites' questions ("does this
read flip bits?", "is this die stalled right now?").  Every decision draws
from a **fresh** seed-tree stream keyed by

``(seed, "faults", seed_salt, kind, *target identity, ordinal)``

where the ordinal is a per-``(kind, target)`` call counter.  Because the
ordinal is scoped to the finest target identity (a wordline, a die, a
cache key) and every target's calls happen in one deterministic order —
a wordline lives wholly inside one engine shard; the broker's event queue
is serial — the decision sequence is independent of worker count and of
unrelated call sites.  That is the determinism contract chaos runs rely
on (``docs/RELIABILITY.md``).

Injection counters (``counts``) live in the injector instance; worker
processes therefore lose them on fork.  The campaign runner accounts for
that by returning per-shard count deltas and merging them in canonical
shard order (:mod:`repro.faults.chaos`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.obs import OBS
from repro.util.rng import derive_rng

_MISSING = object()


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically at the hook sites."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._salt = plan.seed_salt
        self._by_kind: Dict[str, Tuple[FaultSpec, ...]] = {
            kind: plan.by_kind(kind) for kind in FAULT_KINDS
        }
        #: per-(kind, *target) decision counters
        self._ordinals: Dict[tuple, int] = {}
        #: injections performed, by kind
        self.counts: Dict[str, int] = {}
        #: memoized stuck-wordline verdicts (pure function of identity)
        self._stuck: Dict[Tuple[int, int], Optional[FaultSpec]] = {}

    # ------------------------------------------------------------------
    # decision core
    # ------------------------------------------------------------------
    def _decide(
        self,
        kind: str,
        ids: tuple,
        now_us: Optional[float] = None,
        die: Optional[int] = None,
        block: Optional[int] = None,
        wordline: Optional[int] = None,
    ) -> Optional[Tuple[FaultSpec, np.random.Generator]]:
        """First matching spec that fires, with the stream that fired it.

        Returns ``None`` — without advancing any ordinal or drawing any
        randomness — when no spec of the kind matches the target and
        window, so an inactive or zero-fault plan perturbs nothing."""
        specs = self._by_kind[kind]
        if not specs:
            return None
        matching = [
            s for s in specs
            if s.in_window(now_us) and s.targets(die, block, wordline)
        ]
        if not matching:
            return None
        ordinal = self._ordinals.get((kind,) + ids, 0)
        self._ordinals[(kind,) + ids] = ordinal + 1
        rng = derive_rng(self.seed, "faults", self._salt, kind, *ids, ordinal)
        for spec in matching:
            if rng.random() < spec.probability:
                self._record(kind, now_us, die=die, block=block,
                             wordline=wordline)
                return spec, rng
        return None

    def _record(
        self,
        kind: str,
        now_us: Optional[float] = None,
        die: Optional[int] = None,
        block: Optional[int] = None,
        wordline: Optional[int] = None,
    ) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if OBS.enabled:
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "repro_faults_injected_total",
                    help="faults injected by the chaos campaign, by kind",
                    kind=kind,
                ).inc()
            if OBS.tracer.enabled:
                fields: Dict[str, object] = {"fault": kind}
                if die is not None:
                    fields["die"] = die
                if block is not None:
                    fields["block"] = block
                if wordline is not None:
                    fields["wordline"] = wordline
                if now_us is not None:
                    fields["ts"] = now_us
                OBS.tracer.emit("fault_injected", **fields)

    def counts_snapshot(self) -> Dict[str, int]:
        return dict(sorted(self.counts.items()))

    # ------------------------------------------------------------------
    # flash layer (clockless; called from Wordline.read_page)
    # ------------------------------------------------------------------
    def _stuck_spec(self, block: int, wordline: int) -> Optional[FaultSpec]:
        """Ordinal-free verdict: stuck-ness is a property of the wordline,
        identical on every read and in every process."""
        key = (block, wordline)
        hit = self._stuck.get(key, _MISSING)
        if hit is not _MISSING:
            return hit  # type: ignore[return-value]
        verdict: Optional[FaultSpec] = None
        specs = self._by_kind["flash.stuck_wordline"]
        if specs:
            matching = [
                s for s in specs if s.targets(block=block, wordline=wordline)
            ]
            if matching:
                rng = derive_rng(
                    self.seed, "faults", self._salt,
                    "flash.stuck_wordline", block, wordline,
                )
                for spec in matching:
                    if rng.random() < spec.probability:
                        verdict = spec
                        break
        self._stuck[key] = verdict
        return verdict

    def flash_read(
        self, block: int, wordline: int, mismatch: np.ndarray, n_errors: int
    ) -> int:
        """Apply flash faults to one page read's error mask, in place.

        Returns the (possibly raised) error count.  A stuck wordline
        overwhelms ECC outright; a bitflip burst flips ``magnitude``
        currently-correct data cells on top of the noise model."""
        stuck = self._stuck_spec(block, wordline)
        if stuck is not None:
            self._record("flash.stuck_wordline", block=block,
                         wordline=wordline)
            target = max(int(stuck.strength * mismatch.shape[0]), 1)
            # spread the stuck errors evenly so every ECC frame is hit
            step = max(mismatch.shape[0] // target, 1)
            mismatch[::step] = True
            return int(mismatch.sum())
        hit = self._decide(
            "flash.bitflip", (block, wordline), block=block, wordline=wordline
        )
        if hit is not None:
            spec, rng = hit
            correct = np.flatnonzero(~mismatch)
            k = min(int(spec.strength), correct.size)
            if k > 0:
                flipped = rng.choice(correct, size=k, replace=False)
                mismatch[flipped] = True
                n_errors += k
        return n_errors

    # ------------------------------------------------------------------
    # ECC layer (clockless; called from ReadPolicy.attempt)
    # ------------------------------------------------------------------
    def ecc_verdict(self, block: int, wordline: int, decoded: bool) -> bool:
        """Possibly override one decode verdict.

        A *miscorrection* turns a failing decode into a reported success
        (silent corruption — the worst ECC failure mode); a *timeout*
        aborts a decode that would have converged, forcing a retry."""
        if decoded:
            hit = self._decide(
                "ecc.timeout", (block, wordline),
                block=block, wordline=wordline,
            )
            return hit is None
        hit = self._decide(
            "ecc.miscorrect", (block, wordline),
            block=block, wordline=wordline,
        )
        return hit is not None

    # ------------------------------------------------------------------
    # SSD layer (virtual-clocked; called from Ssd and the broker)
    # ------------------------------------------------------------------
    def die_stall_us(self, die: int, now_us: float) -> float:
        """Extra die occupancy (microseconds) for one read right now."""
        hit = self._decide("ssd.die_stall", (die,), now_us=now_us, die=die)
        if hit is None:
            return 0.0
        spec, _ = hit
        return float(spec.strength)

    def congestion_factor(self, now_us: float) -> float:
        """Multiplicative slowdown of channel transfers right now."""
        hit = self._decide("ssd.channel_congestion", (), now_us=now_us)
        if hit is None:
            return 1.0
        spec, _ = hit
        return max(float(spec.strength), 1.0)

    # ------------------------------------------------------------------
    # service layer (virtual-clocked; called from the broker)
    # ------------------------------------------------------------------
    def cache_event(
        self, key: Tuple[int, int, int], now_us: float
    ) -> Optional[str]:
        """What happens to one voltage-cache hit: ``"corrupt"`` (detected,
        entry must be quarantined), ``"stale"`` (silently wrong, the hinted
        read fails), or ``None``."""
        die, block, _layer = key
        if self._decide(
            "service.cache_corrupt", key, now_us=now_us, die=die, block=block
        ) is not None:
            return "corrupt"
        if self._decide(
            "service.cache_stale", key, now_us=now_us, die=die, block=block
        ) is not None:
            return "stale"
        return None

    def scrub_starved(self, now_us: float) -> bool:
        """Whether the scrubber's idle pass is suppressed right now."""
        return self._decide(
            "service.scrub_starve", (), now_us=now_us
        ) is not None

    def admit_limit(self, base: int, now_us: float) -> int:
        """The broker's effective admission limit right now."""
        hit = self._decide("service.overload_burst", (), now_us=now_us)
        if hit is None:
            return base
        spec, _ = hit
        return max(1, int(base * spec.strength))
