"""Paper-scale validation: the headline results on full-size wordlines.

Every other benchmark uses scaled wordlines (65,536 cells) for speed; these
run the Figure 13 comparison and the QLC Table I point at 0.2% on the
*actual* paper geometry — 148,736 cells per wordline, 297 sentinel cells at
0.2% — to show the scaled results are not an artifact of the reduction.
(It is faster than it sounds: each wordline is a single numpy allocation.)
"""

import numpy as np
from conftest import emit

from repro.core.characterization import characterize_chip
from repro.core.controller import SentinelController
from repro.ecc.capability import CapabilityEcc
from repro.exp.common import eval_stress, sentinel_accuracy, training_stresses
from repro.flash.chip import FlashChip
from repro.flash.spec import QLC_SPEC, TLC_SPEC
from repro.retry import CurrentFlashPolicy


def bench():
    spec = TLC_SPEC
    model = characterize_chip(
        FlashChip(spec, seed=100),
        blocks=(0,),
        stresses=training_stresses("tlc"),
        wordlines=range(0, spec.wordlines_per_block, 24),
    ).model
    chip = FlashChip(spec, seed=1)
    chip.set_block_stress(0, eval_stress("tlc"))
    ecc = CapabilityEcc.for_spec(spec)
    sentinel = SentinelController(ecc, model)
    current = CurrentFlashPolicy(ecc, spec)

    def batch(cols):
        # per wordline: the current-flash read, then the sentinel read
        return list(zip(
            current.read_batch(cols, ["MSB"]), sentinel.read_batch(cols, ["MSB"])
        ))

    reads = chip.map_wordlines(batch, range(0, 480, 4))
    cur = [c.retries for (c,), _ in reads]
    sen = [s.retries for _, (s,) in reads]
    fails = sum(not s.success for _, (s,) in reads)
    return np.array(cur), np.array(sen), fails


def test_paper_scale_fig13(benchmark, paper_digest):
    cur, sen, fails = benchmark.pedantic(bench, rounds=1, iterations=1)
    paper_digest((cur, sen, fails))
    reduction = 1 - sen.mean() / cur.mean()
    emit(
        "Paper-scale Figure 13 (148736-cell wordlines, 297 sentinels)",
        [
            ("current flash mean retries", round(float(cur.mean()), 2)),
            ("sentinel mean retries", round(float(sen.mean()), 2)),
            ("reduction", f"{reduction:.0%}"),
            ("sentinel within 2 retries", f"{np.mean(sen <= 2):.1%}"),
            ("sentinel failures", fails),
        ],
    )
    # full-size sentinels (297 cells) tighten the inference relative to the
    # scaled configs: the headline shape must hold at least as strongly
    assert reduction > 0.7
    assert sen.mean() < 1.3
    assert np.mean(sen <= 2) > 0.94  # the paper's 94% figure
    assert fails == 0


def test_paper_scale_table1_qlc(benchmark, paper_digest):
    # trained on every 24th wordline of the training die, evaluated on
    # every 8th of the aged block: 96 full-size QLC wordlines
    result, errors = benchmark.pedantic(
        sentinel_accuracy, args=("qlc", QLC_SPEC, 24, 8, 0.002),
        rounds=1, iterations=1,
    )
    paper_digest((result, errors))
    emit(
        "Paper-scale Table I, QLC at 0.2% (148736-cell wordlines)",
        [
            ("wordlines evaluated", len(errors)),
            ("mean |predicted - real| (steps)", round(float(errors.mean()), 2)),
            ("std (steps)", round(float(errors.std()), 2)),
        ],
    )
    assert len(errors) == QLC_SPEC.wordlines_per_block // 8
    # full-size sentinels infer no worse than the scaled Table I row at
    # 0.2% (the paper reports 1.79 +/- 1.39 on its chips)
    assert errors.mean() < 4.5
