"""SSD geometry and FTL configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.spec import FlashSpec

#: share of the raw pages held back from the host
OVERPROVISIONING = 0.12
#: per-die GC trigger: collect once a die has fewer free blocks than this
GC_FREE_BLOCK_THRESHOLD = 2
#: hysteresis: a GC run collects until the die has this many free blocks
GC_STOP_FREE_BLOCKS = 4


@dataclass(frozen=True)
class SsdConfig:
    """Geometry of the simulated SSD (the FTL's over-provisioning and GC
    watermarks are the module constants above).

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

    def __post_init__(self) -> None:
        if self.channels < 1 or self.dies_per_channel < 1:
            raise ValueError("need at least one channel and one die")
        if self.blocks_per_die < 4:
            raise ValueError("need at least 4 blocks per die")

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
        return int(self.total_pages * (1.0 - OVERPROVISIONING))

    def channel_of_die(self, die_index: int) -> int:
        return die_index // self.dies_per_channel
