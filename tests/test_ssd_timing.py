"""NAND timing model."""

import numpy as np
import pytest

from repro.retry.policy import ReadOutcome
from repro.ssd.timing import NandTiming


class TestSense:
    def test_proportional_to_voltages(self):
        t = NandTiming()
        assert (t.t_sense_base_us, t.t_sense_per_voltage_us) == (12.0, 16.0)
        assert t.sense_us(1) == 28
        assert t.sense_us(4) == 76
        assert t.sense_us(8) == 140

    def test_rejects_zero_voltages(self):
        with pytest.raises(ValueError):
            NandTiming().sense_us(0)

    def test_msb_read_slower_than_lsb(self):
        t = NandTiming()
        assert t.sense_us(8) > t.sense_us(4) > t.sense_us(1)


class TestReadPricing:
    def test_retries_cost_full_senses(self):
        t = NandTiming()
        clean = t.read_us(4, retries=0)
        retried = t.read_us(4, retries=3)
        assert retried == pytest.approx(clean * 4)

    def test_extra_single_reads_cheaper_than_retries(self):
        """The paper's core latency argument (Section III-B)."""
        t = NandTiming()
        one_retry = t.read_us(8, retries=1) - t.read_us(8)
        one_extra = t.read_us(8, extra_single_reads=1) - t.read_us(8)
        assert one_extra < 0.5 * one_retry

    def test_outcome_pricing_matches_manual(self):
        t = NandTiming()
        outcome = ReadOutcome(page=2, page_voltages=4)
        outcome.retries = 2
        outcome.extra_single_reads = 1
        assert t.read_outcome_us(outcome) == pytest.approx(
            t.read_us(4, retries=2, extra_single_reads=1)
        )

    def test_sentinel_flow_beats_ladder(self):
        """1 retry + 1 auxiliary read beats 6 retries at any page size."""
        t = NandTiming()
        for voltages in (1, 2, 4, 8):
            sentinel = t.read_us(voltages, retries=1, extra_single_reads=2)
            ladder = t.read_us(voltages, retries=6)
            assert sentinel < ladder


class TestReadCost:
    """``read_cost`` is the one read-pricing function; its phases, the
    ``read_us`` views and both device simulators agree with it."""

    @pytest.mark.parametrize("pipelined_rounds", [0, 1, 3])
    @pytest.mark.parametrize("stall, factor", [(0.0, 1.0), (30.5, 1.0),
                                               (0.0, 1.5), (7.0, 2.25)])
    def test_phases_sum_to_the_cost(self, pipelined_rounds, stall, factor):
        t = NandTiming()
        phases = []
        die, channel, overlap = t.read_cost(
            4, 3, 2, pipelined_rounds, stall, factor, phases
        )
        assert sum(us for _, us, _ in phases) == pytest.approx(
            die + channel - overlap, abs=1e-9
        )
        assert all(us >= 0 for _, us, _ in phases)
        names = [name for name, _, _ in phases]
        assert names[:3] == ["sense", "xfer_ecc", "aux_reads"]
        assert names.count("retry_round") == 3
        assert ("die_stall" in names) == bool(stall)
        assert ("congestion" in names) == (factor != 1.0)

    def test_congestion_scales_only_transfers(self):
        t = NandTiming()
        die, channel, _ = t.read_cost(4, 2, 1)
        c_die, c_channel, _ = t.read_cost(4, 2, 1, factor=2.0)
        assert c_die == die
        assert c_channel == 2.0 * channel == 2.0 * 4 * t.t_transfer_us

    def test_stall_adds_to_the_die_part_only(self):
        t = NandTiming()
        die, channel, _ = t.read_cost(8, 1)
        s_die, s_channel, _ = t.read_cost(8, 1, stall_us=100.0)
        assert (s_die, s_channel) == (die + 100.0, channel)

    def test_pipelined_rounds_capped_at_retries(self):
        t = NandTiming()
        shaved = min(t.sense_us(4), t.t_transfer_us)  # per pipelined round
        assert t.read_cost(4, 2, 0, 5)[2] == 2 * shaved

    def test_no_phases_without_a_list(self):
        t = NandTiming()
        assert t.read_cost(4, 2, 1, phases=None) == t.read_cost(4, 2, 1)


def _idle_read_us_ssd(profile) -> float:
    from repro.exp.common import sim_spec
    from repro.ssd.config import SsdConfig
    from repro.ssd.ssd import Ssd
    from repro.traces.trace import Trace, TraceRequest

    spec = sim_spec("tlc", cells_per_wordline=4096)
    config = SsdConfig.for_spec(
        spec, channels=2, dies_per_channel=1, blocks_per_die=8
    )
    ssd = Ssd(spec, config, NandTiming(), profile, seed=1)
    one_page = TraceRequest(0.0, "R", 0, config.page_user_bytes)
    report = ssd.run_trace(Trace("one", [one_page]))
    return float(report.read_latencies_us[0])


def _idle_read_us_broker(profile) -> float:
    from repro.exp.common import sim_spec
    from repro.service import FlashReadService, ServiceConfig
    from repro.service.profiles import COLD
    from repro.service.workload import ServiceRequest
    from repro.ssd.config import SsdConfig

    spec = sim_spec("tlc", cells_per_wordline=4096)
    service = FlashReadService(
        spec,
        SsdConfig(channels=2, dies_per_channel=2, blocks_per_die=8,
                  pages_per_block=64),
        NandTiming(),
        {COLD: profile},
        seed=1,
        config=ServiceConfig(cache_enabled=False, scrub_enabled=False),
    )
    request = ServiceRequest(client="c", index=0, is_read=True, lpn=0,
                             n_pages=1, arrival_us=0.0)
    report = service.run_prepared({"c": [request]})
    return report.clients["c"]["read_mean_us"]


class TestDeviceSimulatorsAgree:
    """One read on an idle ``Ssd`` costs exactly what the broker charges
    for a fault-free, cache-off read, and both equal ``read_us``: the two
    simulators price reads with the same function.  Every page type's
    voltage count is covered (a profile prices all page types alike, so
    the FTL's page placement does not matter)."""

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("n_voltages", [1, 2, 4, 8])
    def test_idle_read_costs_read_us(self, pipelined, n_voltages):
        from repro.ssd.retry_model import RetryProfile

        t = NandTiming()
        for retries in (0, 1, 6):
            for extra in (0, 3):
                profile = RetryProfile(
                    "fixed",
                    page_voltages={p: n_voltages for p in range(3)},
                    samples={
                        p: np.array([[retries, extra]], dtype=np.int64)
                        for p in range(3)
                    },
                    pipelined=pipelined,
                )
                expected = t.read_us(n_voltages, retries, extra, pipelined)
                assert _idle_read_us_ssd(profile) == expected
                assert _idle_read_us_broker(profile) == expected

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 11: Ssd suspends programs and clocks channels, "
        "the broker's die FIFO does neither, so reads under writes queue "
        "differently",
    )
    def test_write_mixed_trace_read_latencies_agree(self, monkeypatch):
        """A small write-mixed trace reads the same latencies on ``Ssd`` and
        on the bare broker (cache, scrubber and batching off, no admission
        or die-queue limit): equal sorted samples within 0.1 % + 1 us."""
        from repro.exp.common import sim_spec
        from repro.replay import frontend
        from repro.service import ServiceConfig
        from repro.service.profiles import COLD
        from repro.ssd.config import SsdConfig
        from repro.ssd.retry_model import RetryProfile
        from repro.ssd.ssd import Ssd
        from repro.traces.trace import Trace, TraceRequest

        spec = sim_spec("tlc")
        config = SsdConfig.for_spec(
            spec, channels=2, dies_per_channel=1, blocks_per_die=8
        )
        page = config.page_user_bytes
        rng = np.random.default_rng(11)
        n = 240
        times = np.cumsum(rng.exponential(300e-6, size=n))
        trace = Trace("mixed", [
            TraceRequest(
                float(times[i]),
                "W" if rng.random() < 0.3 else "R",
                int(rng.integers(0, 64)) * page,
                int(rng.integers(1, 9)) * page,  # at most 8 pages
            )
            for i in range(n)
        ])
        profile = RetryProfile(
            "fixed",
            page_voltages={
                p: len(v) for p, v in enumerate(spec.gray.page_voltage_arrays)
            },
            samples={
                p: np.array([[2, 1]], dtype=np.int64)
                for p in range(spec.pages_per_wordline)
            },
        )
        ssd = Ssd(spec, config, NandTiming(), profile, seed=1).run_trace(trace)

        services = []

        class Recording(frontend.FlashReadService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        monkeypatch.setattr(frontend, "FlashReadService", Recording)
        frontend.replay_trace(
            trace, spec, config, NandTiming(), {COLD: profile}, seed=1,
            service_config=ServiceConfig(
                admit_limit=10**9, die_queue_limit=10**9,
                cache_enabled=False, scrub_enabled=False,
            ),
        )
        broker = services[0].slo.clients[trace.name].read_latencies_us
        assert len(broker) == len(ssd.read_latencies_us) > 0
        np.testing.assert_allclose(
            np.sort(broker), np.sort(ssd.read_latencies_us),
            rtol=1e-3, atol=1.0,
        )
