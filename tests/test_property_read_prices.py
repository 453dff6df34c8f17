"""The broker's memoised read prices are ``NandTiming.read_cost``'s.

``FlashReadService`` keeps one read price per full argument tuple of
:meth:`NandTiming.read_cost`: page voltages, retries, auxiliary reads,
pipelined rounds, die stall and congestion factor.  A memo key that lost
any of them would hand a later read an earlier read's price."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exp.common import sim_spec
from repro.faults import FAULTS, FaultPlan
from repro.obs import OBS
from repro.service import (
    FlashReadService,
    ServiceConfig,
    mixed_scenario,
    synthetic_profiles,
)
from repro.service.broker import OP_TIMEOUT_US, _InFlight
from repro.service.profiles import COLD
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import PhysicalOp
from repro.ssd.retry_model import RetryProfile
from repro.ssd.timing import NandTiming

SPEC = sim_spec("tlc", cells_per_wordline=4096)
SSD_CONFIG = SsdConfig(
    channels=2, dies_per_channel=2, blocks_per_die=64, pages_per_block=64
)


@pytest.fixture(autouse=True)
def _clean_state():
    FAULTS.deactivate()
    OBS.disable()
    OBS.reset()
    yield
    FAULTS.deactivate()
    OBS.disable()
    OBS.reset()


def _broker(profiles, cache_enabled):
    return FlashReadService(
        SPEC, SSD_CONFIG, NandTiming(), profiles, seed=5,
        config=ServiceConfig(cache_enabled=cache_enabled),
    )


def _priced_read(service, voltages, retries, extra, pipelined, stall,
                 factor):
    """One read priced by the broker, its profile pinned to one
    ``(retries, extra)`` row and its fault hooks to ``stall``/``factor``.

    The broker consults the hooks only under an active fault plan, so a
    zero-fault plan is active while the read is priced."""
    pages = range(SPEC.pages_per_wordline)
    service.profiles = {COLD: RetryProfile(
        "fixed", {p: voltages for p in pages},
        {p: np.array([[retries, extra]], dtype=np.int64) for p in pages},
        pipelined=pipelined,
    )}
    FAULTS.activate(FaultPlan.none())
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FAULTS, "die_stall_us", lambda die, now: stall)
            mp.setattr(FAULTS, "congestion_factor", lambda now: factor)
            return service._read_us(
                PhysicalOp("read", 0, 0, 0), _InFlight(None, 0.0, 1)
            )
    finally:
        FAULTS.deactivate()


def _read_cost_us(voltages, retries, extra, pipelined, stall, factor):
    die, channel, overlap = NandTiming().read_cost(
        voltages, retries, extra, retries if pipelined else 0, stall, factor
    )
    return die + channel - overlap


# bounded so no read reaches OP_TIMEOUT_US (asserted below): a timed-out
# attempt is retried, and its price is no longer one read_cost
shapes = st.tuples(
    st.integers(1, 8), st.integers(0, 12), st.integers(0, 20), st.booleans()
)
hazards = st.tuples(
    st.just(0.0) | st.floats(0.0, 4000.0),
    st.just(1.0) | st.floats(1.0, 4.0),
)


@given(
    shape=shapes,
    shared=st.lists(hazards, min_size=2, max_size=5),
    others=st.lists(st.tuples(shapes, hazards), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_priced_read_equals_read_cost(shape, shared, others):
    """Bit for bit, on one broker whose memo outlives every read; the
    ``shared`` reads differ only in stall and congestion factor."""
    service = _broker({COLD: synthetic_profiles("tlc")[COLD]}, False)
    reads = [shape + h for h in shared] + [s + h for s, h in others]
    for args in reads:
        want = _read_cost_us(*args)
        assert want < OP_TIMEOUT_US
        assert _priced_read(service, *args).hex() == want.hex(), args


@pytest.mark.parametrize("plan", [FaultPlan.none(), FaultPlan.standard()],
                         ids=lambda p: p.name)
def test_spans_on_and_off_price_alike(plan):
    """With spans on every read is priced by ``read_cost`` with its phases,
    with spans off from the memo: under a fault plan that stalls a die and
    congests the channel, both give the same report bytes."""

    def serve(spans):
        if spans:
            obs.enable(capacity=500_000, spans=True)
        FAULTS.activate(plan, seed=3)
        try:
            service = _broker(synthetic_profiles("tlc"), True)
            clients = mixed_scenario(
                n_requests=200, read_iops=4000.0, footprint_pages=512
            )
            return service.run(list(clients), scenario="prices").to_json()
        finally:
            FAULTS.deactivate()
            OBS.disable()
            OBS.reset()

    plain = serve(spans=False)
    assert serve(spans=True) == plain
