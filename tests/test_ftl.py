"""Page-mapping FTL and garbage collection."""

import numpy as np
import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.ftl import PageMappingFtl


def small_config(**kw):
    params = dict(
        channels=2,
        dies_per_channel=1,
        blocks_per_die=8,
        pages_per_block=32,
        page_user_bytes=4096,
        overprovisioning=0.25,
        gc_free_block_threshold=2,
        gc_stop_free_blocks=3,
    )
    params.update(kw)
    return SsdConfig(**params)


def die_totals(ftl):
    """Wear spread, free blocks and valid pages, read off the die state."""
    erases = [n for d in ftl._dies for n in d.erase_count]
    return {
        "erase_max": max(erases),
        "erase_mean": sum(erases) / len(erases),
        "erase_gap": max(erases) - min(erases),
        "min_free_blocks": min(len(d.free_blocks) for d in ftl._dies),
        "valid_pages": sum(sum(d.valid_count) for d in ftl._dies),
    }


class TestConfig:
    def test_geometry(self):
        c = small_config()
        assert c.n_dies == 2
        assert c.total_pages == 2 * 8 * 32
        assert c.logical_pages == int(c.total_pages * 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(channels=0)
        with pytest.raises(ValueError):
            small_config(overprovisioning=0.9)
        with pytest.raises(ValueError):
            small_config(gc_stop_free_blocks=1)
        with pytest.raises(ValueError):
            small_config(blocks_per_die=2)

    def test_die_channel_mapping(self):
        c = SsdConfig(channels=4, dies_per_channel=2)
        assert c.die_of(1, 0) == 2
        assert c.channel_of_die(5) == 2

    def test_for_spec(self, tiny_tlc):
        c = SsdConfig.for_spec(tiny_tlc)
        assert c.pages_per_block == tiny_tlc.wordlines_per_block * 3
        assert c.page_user_bytes == tiny_tlc.user_bytes


class TestMapping:
    def test_unmapped_initially(self):
        ftl = PageMappingFtl(small_config())
        assert ftl.translate(0) is None

    def test_write_then_read(self):
        ftl = PageMappingFtl(small_config())
        ops = ftl.write_ops(5)
        assert ops[0].kind == "program"
        loc = ftl.translate(5)
        assert loc == (ops[0].die, ops[0].block, ops[0].page)

    def test_read_ops_point_at_mapping(self):
        ftl = PageMappingFtl(small_config())
        ftl.write_ops(9)
        ops = ftl.read_ops(9)
        assert len(ops) == 1 and ops[0].kind == "read"

    def test_read_of_unmapped_preconditions(self):
        ftl = PageMappingFtl(small_config())
        ops = ftl.read_ops(3)
        assert ops[0].kind == "read"
        assert ftl.translate(3) is not None
        assert ftl.host_writes == 0  # preconditioning is not a host write

    def test_overwrite_invalidates_old(self):
        ftl = PageMappingFtl(small_config())
        ftl.write_ops(7)
        first = ftl.translate(7)
        ftl.write_ops(7)
        second = ftl.translate(7)
        assert first != second
        assert die_totals(ftl)["valid_pages"] == 1

    def test_out_of_range_lpn(self):
        ftl = PageMappingFtl(small_config())
        with pytest.raises(IndexError):
            ftl.write_ops(10**9)
        with pytest.raises(IndexError):
            ftl.translate(-1)

    def test_writes_stripe_across_dies(self):
        ftl = PageMappingFtl(small_config())
        dies = {ftl.write_ops(i)[0].die for i in range(4)}
        assert len(dies) == 2


class TestGarbageCollection:
    def test_gc_triggers_and_reclaims(self):
        ftl = PageMappingFtl(small_config())
        rng = np.random.default_rng(3)
        # hammer a small working set so plenty of invalid pages accumulate
        for _ in range(ftl.config.total_pages * 3):
            ftl.write_ops(int(rng.integers(0, 64)))
        assert ftl.gc_erases > 0
        assert die_totals(ftl)["min_free_blocks"] >= 1

    def test_write_amplification_reasonable(self):
        ftl = PageMappingFtl(small_config())
        rng = np.random.default_rng(4)
        for _ in range(ftl.config.total_pages * 3):
            ftl.write_ops(int(rng.integers(0, 64)))
        assert 1.0 <= ftl.write_amplification < 3.0

    def test_gc_preserves_every_mapping(self):
        ftl = PageMappingFtl(small_config())
        rng = np.random.default_rng(5)
        expected = {}
        for _ in range(ftl.config.total_pages * 3):
            lpn = int(rng.integers(0, 100))
            ftl.write_ops(lpn)
            expected[lpn] = True
        for lpn in expected:
            assert ftl.translate(lpn) is not None

    def test_gc_ops_marked_internal(self):
        ftl = PageMappingFtl(small_config())
        rng = np.random.default_rng(6)
        gc_ops = []
        for _ in range(ftl.config.total_pages * 3):
            ops = ftl.write_ops(int(rng.integers(0, 64)))
            gc_ops.extend(o for o in ops if o.gc)
        kinds = {o.kind for o in gc_ops}
        assert "erase" in kinds and "read" in kinds

    def test_no_mapping_collisions_after_gc(self):
        """Two LPNs never resolve to the same physical slot."""
        ftl = PageMappingFtl(small_config())
        rng = np.random.default_rng(7)
        for _ in range(ftl.config.total_pages * 3):
            ftl.write_ops(int(rng.integers(0, 96)))
        seen = set()
        for lpn in range(96):
            loc = ftl.translate(lpn)
            if loc is not None:
                assert loc not in seen
                seen.add(loc)

    def test_precondition_maps_everything(self):
        ftl = PageMappingFtl(small_config())
        ftl.precondition(range(50))
        assert all(ftl.translate(i) is not None for i in range(50))
        assert ftl.host_writes == 0


class TestWearLeveling:
    def _hammer(self, ftl, writes=None):
        rng = np.random.default_rng(11)
        for _ in range(writes or ftl.config.total_pages * 4):
            ftl.write_ops(int(rng.integers(0, 48)))

    def test_erase_counts_tracked(self):
        ftl = PageMappingFtl(small_config())
        self._hammer(ftl)
        stats = die_totals(ftl)
        assert stats["erase_max"] >= 1
        assert stats["erase_mean"] > 0

    def test_leveling_narrows_wear_gap(self):
        """Dynamic+static leveling keeps the erase-count spread tight."""
        leveled = PageMappingFtl(small_config(), wear_leveling=True)
        raw = PageMappingFtl(small_config(), wear_leveling=False)
        self._hammer(leveled)
        self._hammer(raw)
        assert (
            die_totals(leveled)["erase_gap"]
            <= die_totals(raw)["erase_gap"]
        )

    def test_leveling_preserves_correctness(self):
        ftl = PageMappingFtl(small_config(), wear_leveling=True)
        rng = np.random.default_rng(12)
        for _ in range(ftl.config.total_pages * 4):
            ftl.write_ops(int(rng.integers(0, 48)))
        slots = [ftl.translate(lpn) for lpn in range(48)]
        live = [s for s in slots if s is not None]
        assert len(live) == len(set(live))
