"""End-to-end integration: the full deployment story in one test module.

Characterize a training die -> serialize the model ("program it into the
batch") -> load it on a different die -> serve reads through the sentinel
controller -> feed the measured retry profile into the SSD simulator.
"""

import numpy as np
import pytest

from repro.core.characterization import characterize_chip
from repro.core.controller import SentinelController
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.retry import CurrentFlashPolicy
from repro.ssd import NandTiming, RetryProfile, Ssd, SsdConfig
from repro.ssd.metrics import read_latency_reduction
from repro.traces.synthetic import MSR_WORKLOADS, generate_workload


@pytest.fixture(scope="module")
def deployment(tiny_tlc, tmp_path_factory):
    """The full factory->field pipeline on tiny chips."""
    train_chip = FlashChip(tiny_tlc, seed=100)
    result = characterize_chip(
        train_chip,
        blocks=(0,),
        stresses=(
            StressState(pe_cycles=1000, retention_hours=720),
            StressState(pe_cycles=3000, retention_hours=8760),
            StressState(pe_cycles=5000, retention_hours=8760),
        ),
        wordlines=range(0, 8),
    )
    path = tmp_path_factory.mktemp("models") / "tlc.json"
    result.model.save(path)
    model = SentinelModel.load(path)

    field_chip = FlashChip(tiny_tlc, seed=1)
    field_chip.set_block_stress(
        0, StressState(pe_cycles=5000, retention_hours=8760)
    )
    ecc = CapabilityEcc.for_spec(tiny_tlc)
    return field_chip, model, ecc


class TestFieldReads:
    def test_sentinel_beats_current_flash(self, deployment):
        chip, model, ecc = deployment
        sentinel = SentinelController(ecc, model)
        current = CurrentFlashPolicy(ecc, chip.spec)
        sent_retries, cur_retries = [], []
        for w in range(8):
            sent_retries.append(sentinel.read(chip.wordline(0, w), "MSB").retries)
            cur_retries.append(current.read(chip.wordline(0, w), "MSB").retries)
        assert np.mean(sent_retries) < np.mean(cur_retries)

    def test_model_transfers_across_dies(self, deployment):
        """A model fitted on die 100 works on die 1 (same batch)."""
        chip, model, ecc = deployment
        sentinel = SentinelController(ecc, model)
        successes = sum(
            sentinel.read(chip.wordline(0, w), "MSB").success for w in range(8)
        )
        assert successes >= 7

    def test_all_pages_served(self, deployment):
        chip, model, ecc = deployment
        sentinel = SentinelController(ecc, model)
        for page in chip.spec.gray.page_names:
            outcome = sentinel.read(chip.wordline(0, 2), page)
            assert outcome.success


class TestSystemLevel:
    def test_trace_to_latency_pipeline(self, deployment, tiny_tlc):
        chip, model, ecc = deployment
        profiles = {}
        for policy in (
            CurrentFlashPolicy(ecc, tiny_tlc),
            SentinelController(ecc, model),
        ):
            profiles[policy.name] = RetryProfile.measure(
                chip, policy, wordlines=range(0, 8)
            )
        config = SsdConfig.for_spec(
            tiny_tlc, channels=2, dies_per_channel=1, blocks_per_die=20,
        )
        trace = generate_workload(
            MSR_WORKLOADS["hm_0"], n_requests=800, seed=3, rate_scale=10
        )
        reports = {
            name: Ssd(tiny_tlc, config, NandTiming(), prof, seed=1).run_trace(trace)
            for name, prof in profiles.items()
        }
        reduction = read_latency_reduction(
            reports["current-flash"], reports["sentinel"]
        )
        assert reduction > 0.15
        for report in reports.values():
            assert report.host_reads > 0
            assert (report.read_latencies_us > 0).all()
