"""SSD geometry and FTL configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.spec import FlashSpec


@dataclass(frozen=True)
class SsdConfig:
    """Geometry of the simulated SSD.

    The paper's system experiment simulates "the same settings as the real
    3D NAND flash chips"; the defaults here are a small multi-channel drive,
    scaled so trace simulations finish quickly while still exercising
    channel/die parallelism and garbage collection.
    """

    channels: int = 4
    dies_per_channel: int = 2
    blocks_per_die: int = 64
    pages_per_block: int = 768  # wordlines * pages per wordline, spec-derived
    page_user_bytes: int = 16384
    overprovisioning: float = 0.12
    gc_free_block_threshold: int = 2  # per-die GC trigger
    gc_stop_free_blocks: int = 4  # hysteresis: collect until this many free

    def __post_init__(self) -> None:
        if self.channels < 1 or self.dies_per_channel < 1:
            raise ValueError("need at least one channel and one die")
        if self.blocks_per_die < 4:
            raise ValueError("need at least 4 blocks per die")
        if not 0.0 < self.overprovisioning < 0.5:
            raise ValueError("overprovisioning must be in (0, 0.5)")
        if self.gc_stop_free_blocks <= self.gc_free_block_threshold:
            raise ValueError("gc_stop_free_blocks must exceed the trigger")

    @classmethod
    def for_spec(cls, spec: FlashSpec, **overrides) -> "SsdConfig":
        params = dict(
            pages_per_block=spec.wordlines_per_block * spec.pages_per_wordline,
            page_user_bytes=spec.user_bytes,
        )
        params.update(overrides)
        return cls(**params)

    # ------------------------------------------------------------------
    @property
    def n_dies(self) -> int:
        return self.channels * self.dies_per_channel

    @property
    def total_pages(self) -> int:
        return self.n_dies * self.blocks_per_die * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        """Pages exposed to the host after overprovisioning."""
        return int(self.total_pages * (1.0 - self.overprovisioning))

    def die_of(self, channel: int, die: int) -> int:
        return channel * self.dies_per_channel + die

    def channel_of_die(self, die_index: int) -> int:
        return die_index // self.dies_per_channel
