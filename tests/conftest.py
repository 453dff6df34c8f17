"""Shared fixtures.

Unit tests run on *tiny* specs (8 Ki cells, 8 layers) so the whole suite
stays fast; the shape/integration tests use the standard simulation scale
via the cached helpers in :mod:`repro.exp.common`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import QLC_SPEC, TLC_SPEC
from repro.obs import OBS

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(autouse=True)
def _obs_off_after_test():
    """No test leaves observability on, or its events and metrics, to the
    next: the suite must pass in any order."""
    yield
    OBS.tracer.close_stream()
    OBS.disable()
    OBS.reset()


@pytest.fixture(scope="session")
def msr_sample_lines():
    """Raw lines of the out-of-order MSR sample trace fixture."""
    return (DATA_DIR / "msr_sample.csv").read_text().splitlines()


def make_tiny(base, cells=8192, wordlines_per_layer=1, layers=8):
    return base.scaled(
        cells_per_wordline=cells,
        wordlines_per_layer=wordlines_per_layer,
        layers=layers,
        name_suffix="-tiny",
    )


@pytest.fixture(scope="session")
def tiny_tlc():
    return make_tiny(TLC_SPEC)


@pytest.fixture(scope="session")
def tiny_qlc():
    return make_tiny(QLC_SPEC)


@pytest.fixture(scope="session")
def aged_stress():
    return StressState(pe_cycles=3000, retention_hours=8760.0)


@pytest.fixture()
def tlc_chip(tiny_tlc):
    return FlashChip(tiny_tlc, seed=7)


@pytest.fixture()
def qlc_chip(tiny_qlc):
    return FlashChip(tiny_qlc, seed=7)


@pytest.fixture()
def aged_tlc_chip(tiny_tlc, aged_stress):
    chip = FlashChip(tiny_tlc, seed=7)
    chip.set_block_stress(0, aged_stress)
    return chip


@pytest.fixture()
def aged_qlc_chip(tiny_qlc, aged_stress):
    chip = FlashChip(tiny_qlc, seed=7)
    chip.set_block_stress(0, aged_stress)
    return chip
