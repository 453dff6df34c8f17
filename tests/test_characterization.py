"""Offline characterization pipeline on a tiny chip."""

import numpy as np
import pytest

from repro.core.characterization import characterize_chip
from repro.flash import block as block_module
from repro.flash import chip as chip_module
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.obs import OBS


STRESSES = (
    StressState(pe_cycles=1000, retention_hours=720),
    StressState(pe_cycles=3000, retention_hours=8760),
    StressState(pe_cycles=2000, retention_hours=24, temperature_c=80.0),
)


@pytest.fixture(scope="module")
def tiny_characterization(tiny_tlc):
    chip = FlashChip(tiny_tlc, seed=42)
    return characterize_chip(
        chip, blocks=(0,), stresses=STRESSES, wordlines=range(0, 8)
    )


def test_cells_drawn_once_per_swept_wordline(
    tiny_tlc, tiny_characterization, monkeypatch
):
    """Over k stresses each wordline's latents are drawn once, not k
    times; Vth is still synthesized once per (stress, sub-batch), and
    the samples equal a one-sub-batch sweep's."""
    draws = []
    real = block_module.sample_latents

    def counting(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(block_module, "sample_latents", counting)
    # sub-batches of 3, 3 and 2 rows
    monkeypatch.setattr(
        chip_module, "SWEEP_BATCH_CELLS", 3 * tiny_tlc.cells_per_wordline
    )
    OBS.disable()
    OBS.reset()
    OBS.enable(metrics=False, tracing=True)
    try:
        result = characterize_chip(
            FlashChip(tiny_tlc, seed=42), blocks=(0,), stresses=STRESSES,
            wordlines=range(0, 8),
        )
        synth = [
            e for e in OBS.tracer.events()
            if e.kind == "batch_sense" and e.fields["kernel"] == "synthesize"
        ]
    finally:
        OBS.disable()
        OBS.reset()
    assert np.array_equal(result.d_rates, tiny_characterization.d_rates)
    assert np.array_equal(result.optima, tiny_characterization.optima)
    assert len(draws) == 8
    assert len(synth) == len(STRESSES) * 3


class TestCharacterize:
    def test_sample_counts(self, tiny_characterization):
        # 3 stresses x 8 wordlines
        assert len(tiny_characterization.d_rates) == 24
        assert tiny_characterization.optima.shape == (24, 7)

    def test_model_identity(self, tiny_characterization, tiny_tlc):
        model = tiny_characterization.model
        assert model.sentinel_voltage == tiny_tlc.sentinel_voltage
        assert model.n_voltages == tiny_tlc.n_voltages

    def test_temperature_bins_fitted(self, tiny_characterization):
        # stresses cover both default temp bins
        assert len(tiny_characterization.model.correlations) == 2

    def test_aged_samples_have_negative_optima(self, tiny_characterization):
        assert tiny_characterization.sentinel_optima.mean() < 0

    def test_d_rates_in_range(self, tiny_characterization):
        assert (np.abs(tiny_characterization.d_rates) <= 1.0).all()

    def test_residuals_reasonable(self, tiny_characterization):
        # the fit must track the relationship to a fraction of the pitch
        resid = tiny_characterization.inference_residuals()
        assert np.abs(resid).mean() < 30  # tiny chips are noisy but bounded

    def test_requires_sentinels(self, tiny_tlc):
        chip = FlashChip(tiny_tlc, seed=1, sentinel_ratio=0.0)
        with pytest.raises(ValueError):
            characterize_chip(chip)

    def test_stress_labels_recorded(self, tiny_characterization):
        assert len(tiny_characterization.stress_labels) == 24
        assert "pe=1000" in tiny_characterization.stress_labels[0]
