"""Declarative fault campaigns: what to break, where, when, how often.

A :class:`FaultPlan` is a named list of :class:`FaultSpec` entries.  Each
spec names one fault *kind* (a member of :data:`FAULT_KINDS`), an optional
target selector (dies / blocks / wordlines), an optional virtual-time
schedule window, a per-opportunity probability, and a kind-specific
magnitude.  Plans are pure data: JSON round-trippable, hashable into the
seed tree, and free of any runtime state — the runtime half lives in
:class:`repro.faults.injector.FaultInjector`.

Fault kinds by layer:

==========================  =================================================
kind                        effect (magnitude meaning)
==========================  =================================================
``flash.bitflip``           one read senses extra bit errors beyond the
                            noise model (magnitude = flipped data cells)
``flash.stuck_wordline``    every read of the wordline fails regardless of
                            voltages (magnitude = stuck RBER, default 0.2)
``ecc.miscorrect``          a failing decode is reported as success — silent
                            corruption (magnitude unused)
``ecc.timeout``             a decode that should succeed aborts without
                            converging, forcing a retry (magnitude unused)
``ssd.die_stall``           reads on the die take extra microseconds
                            (magnitude = stall in us)
``ssd.channel_congestion``  channel transfers slow down by a factor
                            (magnitude = factor, > 1)
``service.cache_corrupt``   a voltage-cache hit returns a corrupted entry;
                            detection quarantines the key (magnitude unused)
``service.cache_stale``     a voltage-cache hit serves a silently stale
                            offset; the hinted read fails and is retried
                            cold after backoff (magnitude unused)
``service.scrub_starve``    scrubber passes are suppressed (magnitude unused)
``service.overload_burst``  admission limit collapses to a fraction of its
                            configured value (magnitude = fraction in (0,1])
``env.temperature_step``    ambient temperature steps to a new value for the
                            window (magnitude = temperature in Celsius)
``env.power_loss``          the device loses power inside the window:
                            volatile state — the voltage-offset cache — is
                            gone at the next serving phase (magnitude unused)
==========================  =================================================

Schedule windows (``start_us``/``end_us``) apply to the kinds that see a
virtual clock — the SSD and service layers.  Chip-level kinds (``flash.*``,
``ecc.*``) are clockless; their specs ignore the window.

The ``env.*`` family is **environment dynamics**, not injected faults: the
:class:`~repro.faults.injector.FaultInjector` never draws on them (no hook
site queries the family), so they are inert in chaos runs.  The lifetime
campaign runner (:mod:`repro.campaign`) interprets them instead, on the
**device-lifetime clock**: their ``start_us``/``end_us`` window is read in
*hours* of device life, keeping the plan schema (and its JSON round-trip)
unchanged while the same declarative form drives months-long scenarios.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

#: The closed set of injectable fault kinds.
FAULT_KINDS = frozenset(
    {
        "flash.bitflip",
        "flash.stuck_wordline",
        "ecc.miscorrect",
        "ecc.timeout",
        "ssd.die_stall",
        "ssd.channel_congestion",
        "service.cache_corrupt",
        "service.cache_stale",
        "service.scrub_starve",
        "service.overload_burst",
        "env.temperature_step",
        "env.power_loss",
    }
)

#: Kind-specific default magnitudes (used when a spec leaves it at None).
DEFAULT_MAGNITUDE: Dict[str, float] = {
    "flash.bitflip": 64.0,
    "flash.stuck_wordline": 0.2,
    "ecc.miscorrect": 0.0,
    "ecc.timeout": 0.0,
    "ssd.die_stall": 30_000.0,
    "ssd.channel_congestion": 1.5,
    "service.cache_corrupt": 0.0,
    "service.cache_stale": 0.0,
    "service.scrub_starve": 0.0,
    "service.overload_burst": 0.1,
    "env.temperature_step": 25.0,
    "env.power_loss": 0.0,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: kind + target + schedule + probability."""

    kind: str
    probability: float = 1.0
    #: target selectors; None selects everything at that level
    dies: Optional[Tuple[int, ...]] = None
    blocks: Optional[Tuple[int, ...]] = None
    wordlines: Optional[Tuple[int, ...]] = None
    #: virtual-time window; end None = open-ended
    start_us: float = 0.0
    end_us: Optional[float] = None
    #: kind-specific strength; None = :data:`DEFAULT_MAGNITUDE`
    magnitude: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.start_us < 0:
            raise ValueError("start_us must be non-negative")
        if self.end_us is not None and self.end_us <= self.start_us:
            raise ValueError("end_us must exceed start_us")
        # tuples, not lists, so specs stay hashable seed-tree keys
        for name in ("dies", "blocks", "wordlines"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # ------------------------------------------------------------------
    @property
    def strength(self) -> float:
        """The effective magnitude (spec value or the kind default)."""
        if self.magnitude is not None:
            return self.magnitude
        return DEFAULT_MAGNITUDE[self.kind]

    def in_window(self, now_us: Optional[float]) -> bool:
        """Whether virtual time ``now_us`` falls inside the schedule.

        ``None`` (clockless chip-level call sites) always matches."""
        if now_us is None:
            return True
        if now_us < self.start_us:
            return False
        return self.end_us is None or now_us < self.end_us

    def targets(
        self,
        die: Optional[int] = None,
        block: Optional[int] = None,
        wordline: Optional[int] = None,
    ) -> bool:
        """Whether the selector matches the given identity coordinates."""
        if self.dies is not None and die is not None and die not in self.dies:
            return False
        if (
            self.blocks is not None
            and block is not None
            and block not in self.blocks
        ):
            return False
        return not (
            self.wordlines is not None
            and wordline is not None
            and wordline not in self.wordlines
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        for name in ("dies", "blocks", "wordlines"):
            if payload[name] is not None:
                payload[name] = list(payload[name])
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        known = {
            "kind", "probability", "dies", "blocks", "wordlines",
            "start_us", "end_us", "magnitude",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name in ("dies", "blocks", "wordlines"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(int(x) for x in kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A named, reproducible fault campaign."""

    name: str = "none"
    #: folded into every decision stream so two plans with identical specs
    #: but different salts draw independent faults
    seed_salt: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("plan name must be non-empty")
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({s.kind for s in self.specs}))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed_salt": self.seed_salt,
            "specs": [s.to_dict() for s in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        unknown = set(data) - {"name", "seed_salt", "specs"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(
            name=str(data.get("name", "unnamed")),
            seed_salt=int(data.get("seed_salt", 0)),
            specs=tuple(
                FaultSpec.from_dict(s) for s in data.get("specs", [])
            ),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The zero-fault campaign: the harness runs, nothing is injected.

        Running under this plan must leave every report byte-identical to a
        run with no fault machinery at all — the differential contract
        ``tests/test_faults.py`` enforces."""
        return cls(name="none", specs=())

    @classmethod
    def standard(cls) -> "FaultPlan":
        """The standard chaos campaign of ``repro chaos --smoke``.

        Windows are sized for the smoke serving scenario (~50-90 ms of
        virtual time): a die stall mid-run, channel congestion early, an
        admission-collapse burst overlapping the stall, scrubber starvation
        for the first half, plus chip-level flash/ECC faults for the read
        sweep."""
        return cls(
            name="standard",
            specs=(
                FaultSpec("ssd.die_stall", probability=1.0, dies=(1,),
                          start_us=15_000.0, end_us=35_000.0,
                          magnitude=30_000.0),
                FaultSpec("ssd.channel_congestion", probability=0.5,
                          start_us=5_000.0, end_us=25_000.0, magnitude=1.5),
                FaultSpec("service.cache_stale", probability=0.15),
                FaultSpec("service.cache_corrupt", probability=0.05),
                FaultSpec("service.scrub_starve", probability=1.0,
                          start_us=0.0, end_us=30_000.0),
                FaultSpec("service.overload_burst", probability=1.0,
                          start_us=20_000.0, end_us=40_000.0, magnitude=0.1),
                FaultSpec("flash.bitflip", probability=0.3, magnitude=96.0),
                FaultSpec("flash.stuck_wordline", probability=0.08),
                FaultSpec("ecc.timeout", probability=0.05),
                FaultSpec("ecc.miscorrect", probability=0.02),
            ),
        )
