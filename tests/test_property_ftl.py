"""Property-based tests of FTL invariants under arbitrary write streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.config import SsdConfig
from repro.ssd.ftl import PageMappingFtl


def make_ftl():
    return PageMappingFtl(
        SsdConfig(
            channels=2,
            dies_per_channel=1,
            blocks_per_die=6,
            pages_per_block=16,
            page_user_bytes=4096,
            overprovisioning=0.3,
            gc_free_block_threshold=2,
            gc_stop_free_blocks=3,
        )
    )


def valid_page_total(ftl):
    """Valid pages summed over every block of every die."""
    return sum(sum(d.valid_count) for d in ftl._dies)


write_streams = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=400
)


@given(lpns=write_streams)
@settings(max_examples=40, deadline=None)
def test_last_write_always_mapped(lpns):
    ftl = make_ftl()
    for lpn in lpns:
        ftl.write_ops(lpn)
    for lpn in set(lpns):
        assert ftl.translate(lpn) is not None


@given(lpns=write_streams)
@settings(max_examples=40, deadline=None)
def test_no_two_lpns_share_a_slot(lpns):
    ftl = make_ftl()
    for lpn in lpns:
        ftl.write_ops(lpn)
    slots = [ftl.translate(lpn) for lpn in set(lpns)]
    assert len(slots) == len(set(slots))


@given(lpns=write_streams)
@settings(max_examples=40, deadline=None)
def test_valid_count_equals_live_lpns(lpns):
    ftl = make_ftl()
    for lpn in lpns:
        ftl.write_ops(lpn)
    assert valid_page_total(ftl) == len(set(lpns))


@given(lpns=write_streams)
@settings(max_examples=40, deadline=None)
def test_write_amplification_at_least_one(lpns):
    ftl = make_ftl()
    for lpn in lpns:
        ftl.write_ops(lpn)
    assert ftl.write_amplification >= 1.0


@given(lpns=write_streams)
@settings(max_examples=20, deadline=None)
def test_reverse_map_consistent(lpns):
    """Every mapped slot's reverse entry names the same LPN."""
    ftl = make_ftl()
    for lpn in lpns:
        ftl.write_ops(lpn)
    for lpn in set(lpns):
        die, block, page = ftl.translate(lpn)
        assert ftl._dies[die].page_lpn[block][page] == lpn
