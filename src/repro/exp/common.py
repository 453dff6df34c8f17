"""Shared experiment infrastructure: standard specs, seeds, stresses, models.

The paper's procedure separates *training* chips (characterized at the
factory, their fits burned into the batch) from *evaluated* chips; we mirror
that with two chip seeds.  The fitted :class:`SentinelModel` per chip kind is
cached per process because every figure reuses it.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import List, Tuple

import numpy as np

from repro.core.characterization import CharacterizationResult, characterize_chip
from repro.core.models import SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.optimal import optimal_offsets_batch
from repro.flash.spec import FlashSpec, QLC_SPEC, TLC_SPEC

#: Chip seed used for factory characterization (the "training die").
TRAIN_SEED = 100
#: Chip seed of the die every experiment evaluates.
EVAL_SEED = 1

#: Default simulation scale: cells per wordline / wordlines per layer.
SIM_CELLS = 65536
SIM_WL_PER_LAYER = 4

HIGH_TEMP_C = 80.0
ONE_YEAR_H = 8760.0


def sim_spec(
    kind: str,
    cells_per_wordline: int = SIM_CELLS,
    wordlines_per_layer: int = SIM_WL_PER_LAYER,
) -> FlashSpec:
    """A scaled spec for simulation (``kind`` is ``"tlc"`` or ``"qlc"``)."""
    base = {"tlc": TLC_SPEC, "qlc": QLC_SPEC}.get(kind.lower())
    if base is None:
        raise ValueError(f"unknown chip kind {kind!r}; use 'tlc' or 'qlc'")
    return base.scaled(
        cells_per_wordline=cells_per_wordline,
        wordlines_per_layer=wordlines_per_layer,
    )


def eval_stress(kind: str) -> StressState:
    """The paper's evaluation conditions (Section IV): one-year retention,
    5000 P/E for TLC and 1000 P/E for QLC."""
    pe = 5000 if kind.lower() == "tlc" else 1000
    return StressState(pe_cycles=pe, retention_hours=ONE_YEAR_H)


def training_stresses(kind: str) -> Tuple[StressState, ...]:
    """Stress sweep used for factory characterization."""
    if kind.lower() == "tlc":
        pes = (1000, 3000, 5000)
    else:
        pes = (500, 1000, 3000)
    room = tuple(
        StressState(pe_cycles=pe, retention_hours=hours)
        for pe in pes
        for hours in (720.0, ONE_YEAR_H)
    )
    hot = tuple(
        StressState(pe_cycles=pe, retention_hours=hours, temperature_c=HIGH_TEMP_C)
        for pe in pes
        for hours in (1.0, 24.0)
    )
    return room + hot


def eval_chip(kind: str, sentinel_ratio: float = 0.002, **spec_kw) -> FlashChip:
    chip = FlashChip(sim_spec(kind, **spec_kw), seed=EVAL_SEED,
                     sentinel_ratio=sentinel_ratio)
    chip.set_block_stress(0, eval_stress(kind))
    return chip


def default_ecc(kind: str) -> CapabilityEcc:
    return CapabilityEcc.for_spec(sim_spec(kind))


def characterize_training_die(
    kind: str, spec: FlashSpec, wordline_step: int, sentinel_ratio: float = 0.002
) -> CharacterizationResult:
    """Factory characterization of a training die of ``spec`` (uncached)."""
    return characterize_chip(
        FlashChip(spec, seed=TRAIN_SEED, sentinel_ratio=sentinel_ratio),
        blocks=(0,),
        stresses=training_stresses(kind),
        wordlines=range(0, spec.wordlines_per_block, wordline_step),
    )


@lru_cache(maxsize=None)
def characterization(
    kind: str,
    sentinel_ratio: float = 0.002,
    wordline_step: int = 4,
) -> CharacterizationResult:
    """Factory characterization of the training die (cached per process)."""
    return characterize_training_die(
        kind, sim_spec(kind), wordline_step, sentinel_ratio
    )


def trained_model(kind: str, sentinel_ratio: float = 0.002) -> SentinelModel:
    """The fitted sentinel model of a chip kind (cached).

    Calls ``characterization`` with the same argument spelling the figure
    drivers use, so the (argument-sensitive) lru_cache is shared instead of
    fitting twice.
    """
    if sentinel_ratio == 0.002:
        return characterization(kind).model
    return characterization(kind, sentinel_ratio).model


def read_rows(policy, cols, page) -> list:
    """``policy``'s read of ``page`` on every row of a batch, in row order."""
    return [outcomes[0] for outcomes in policy.read_batch(cols, [page])]


def sweep_reads(chip: FlashChip, policies, pages, wordlines) -> List[list]:
    """Each policy's reads of ``pages`` on each of ``wordlines`` of block 0,
    one list of outcomes per wordline in (policy, page) order: one
    :meth:`FlashChip.map_wordlines` sweep at the block's stress, in which
    every row reads that order too."""
    def batch(cols):
        reads = [policy.read_batch(cols, pages) for policy in policies]
        return [[o for outs in row for o in outs] for row in zip(*reads)]

    return chip.map_wordlines(batch, wordlines)


def sentinel_inferences(cols, model: SentinelModel) -> List[Tuple[float, float]]:
    """``(real, predicted)`` sentinel-voltage offset of every row of a batch:
    the ground-truth optimum, and the model's inference from the row's
    sentinel readout at the default position."""
    v = cols.spec.sentinel_voltage
    real = optimal_offsets_batch(cols, voltages=[v])[:, v - 1]
    readouts = cols.sentinel_readout_batch(0.0)
    return [
        (opt, model.infer_sentinel_offset(r.difference_rate))
        for opt, r in zip(real, readouts)
    ]


def sentinel_inference_errors(cols, model: SentinelModel) -> List[float]:
    """|predicted - real| of :func:`sentinel_inferences`: the accuracy
    metric of Table I, the batch transfer and the ablations."""
    return [abs(pred - real) for real, pred in sentinel_inferences(cols, model)]


def sentinel_accuracy(
    kind: str, spec: FlashSpec, train_step: int, eval_step: int,
    sentinel_ratio: float = 0.002,
) -> Tuple[CharacterizationResult, np.ndarray]:
    """Fit a training die of ``spec``, then sweep the evaluated die's aged
    block: the fit and the |predicted - real| error of every
    ``eval_step``-th wordline."""
    result = characterize_training_die(kind, spec, train_step, sentinel_ratio)
    chip = FlashChip(spec, seed=EVAL_SEED, sentinel_ratio=sentinel_ratio)
    chip.set_block_stress(0, eval_stress(kind))
    errors = chip.map_wordlines(
        partial(sentinel_inference_errors, model=result.model),
        range(0, spec.wordlines_per_block, eval_step),
    )
    return result, np.asarray(errors)
