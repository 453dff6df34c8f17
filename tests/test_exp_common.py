"""Shared experiment infrastructure (repro.exp.common)."""

import pytest

from repro.exp import common


class TestSimSpec:
    def test_kinds(self):
        assert common.sim_spec("tlc").bits_per_cell == 3
        assert common.sim_spec("qlc").bits_per_cell == 4
        assert common.sim_spec("TLC").bits_per_cell == 3  # case-insensitive

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            common.sim_spec("slc")

    def test_scaling_applied(self):
        spec = common.sim_spec("tlc", cells_per_wordline=4096,
                               wordlines_per_layer=2)
        assert spec.cells_per_wordline == 4096
        assert spec.wordlines_per_block == 64 * 2


class TestStresses:
    def test_eval_stress_matches_paper(self):
        # Section IV: 5000 P/E for TLC, 1000 for QLC, one-year retention
        assert common.eval_stress("tlc").pe_cycles == 5000
        assert common.eval_stress("qlc").pe_cycles == 1000
        assert common.eval_stress("tlc").retention_hours == 8760.0

    def test_training_covers_both_temperature_bins(self):
        for kind in ("tlc", "qlc"):
            temps = {s.temperature_c for s in common.training_stresses(kind)}
            assert any(t < 50 for t in temps)
            assert any(t >= 50 for t in temps)

    def test_training_covers_multiple_pe(self):
        pes = {s.pe_cycles for s in common.training_stresses("tlc")}
        assert len(pes) >= 3


class TestCaches:
    def test_characterization_cached(self):
        a = common.characterization("tlc")
        b = common.characterization("tlc")
        assert a is b

    def test_trained_model_matches_characterization(self):
        assert common.trained_model("tlc") is common.characterization("tlc").model

    def test_one_memo_for_every_spelling(self):
        from repro.tournament import tournament_model

        model = common.characterization("tlc").model
        assert common.characterization("TLC", 0.002, 4).model is model
        assert tournament_model("tlc", common.SIM_CELLS, 0.002) is model

    def test_eval_chip_is_aged(self):
        chip = common.eval_chip("tlc")
        assert chip.block_stress(0) == common.eval_stress("tlc")
        assert chip.seed == common.EVAL_SEED
