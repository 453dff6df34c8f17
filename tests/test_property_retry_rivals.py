"""Property tests for the retry policies.

Guarantees the tournament harness and ``RetryProfile.measure`` lean on:

* the lockstep ``read_batch`` of every policy (vendor table, tracking,
  layer similarity, OPT, adaptive retry, online model, the sentinel
  controller and tracking+sentinel) is **bit-identical** to the
  per-wordline reference loop of ``tests/retry_oracle.py`` — across
  TLC/QLC, stress conditions, ragged row subsets and cached hints, and
  under an active fault plan, where the injector's counts must match too;
* ``read`` on a view of a shared multi-row store is the one-row form of
  the same driver: it equals the reference on that row and leaves every
  other row's read-noise stream untouched;
* the lockstep path emits the same per-read obs as the loop: the same
  ordered ``read_attempt``/``sentinel_inference``/``calibration_step``/
  ``fallback_table``/``ecc_decode`` stream and equal counters;
* every event and counter of a tracking+sentinel read carries that
  policy's name, and its retries stay within ``MAX_RETRIES + 2``;
* OPT's optimum search runs only for reads whose default sense failed,
  on both paths;
* the online model **learns**: on a fixed-stress noiseless chip, total
  retries are monotonically non-increasing sweep over sweep as decode
  feedback is committed (read noise is zeroed so the property isolates
  the model's contribution from per-read sampling flutter).

The deterministic unit behavior the policies add — hint handling,
``commit_feedback`` boundaries, pipelined retry accounting in the timing
layer — is pinned at the bottom.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import SentinelController
from repro.core.fitting import PolynomialFit
from repro.core.models import CorrelationTable, SentinelModel
from repro.ecc.capability import CapabilityEcc
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import QLC_SPEC, TLC_SPEC
from repro.obs import OBS
from repro.retry import (
    MAX_RETRIES,
    AdaptiveRetryPolicy,
    CurrentFlashPolicy,
    LayerSimilarityPolicy,
    OnlineModelPolicy,
    OraclePolicy,
    TrackedSentinelPolicy,
    TrackingPolicy,
)
from repro.ssd.retry_model import RetryProfile
from repro.ssd.timing import NandTiming
from tests import retry_oracle

SPECS = {
    kind: base.scaled(
        cells_per_wordline=1024,
        wordlines_per_layer=1,
        layers=4,
        name_suffix="-rival-prop",
    )
    for kind, base in (("tlc", TLC_SPEC), ("qlc", QLC_SPEC))
}

STRESSES = (
    StressState(),
    StressState(pe_cycles=1500, retention_hours=1000.0),
    StressState(pe_cycles=3000, retention_hours=8760.0),
)
AGED = STRESSES[-1]


def _sentinel_model(spec):
    """A small fixed sentinel model: coarse enough that aged reads run
    the calibration probes and the vendor-table fallback too."""
    nv = spec.n_voltages
    return SentinelModel(
        spec_name=spec.name,
        sentinel_voltage=spec.sentinel_voltage,
        n_voltages=nv,
        difference_poly=PolynomialFit(
            coeffs=np.array([500.0, -2.0]), x_min=-0.1, x_max=0.1
        ),
        correlations=[
            CorrelationTable(
                -273.0, 1000.0, np.linspace(1.4, 0.4, nv), np.zeros(nv)
            )
        ],
    )


#: policy factories: ``(ecc, chip) -> policy``
POLICIES = {
    "current-flash": lambda ecc, chip: CurrentFlashPolicy(ecc, chip.spec),
    "tracking": lambda ecc, chip: TrackingPolicy(ecc, chip),
    "layer-similarity": lambda ecc, chip: LayerSimilarityPolicy(ecc, chip),
    "opt": lambda ecc, chip: OraclePolicy(ecc),
    "adaptive-retry": lambda ecc, chip: AdaptiveRetryPolicy(ecc, chip.spec),
    "online-model": lambda ecc, chip: OnlineModelPolicy(ecc, chip.spec),
    "sentinel": lambda ecc, chip: SentinelController(
        ecc, _sentinel_model(chip.spec)
    ),
    "tracking+sentinel": lambda ecc, chip: TrackedSentinelPolicy(
        ecc, chip, _sentinel_model(chip.spec)
    ),
}
#: the policies that learn (commit_feedback) and read cached hints
LEARNING = ("adaptive-retry", "online-model")

#: every flash/ECC fault a read can hit, at rates that fire often
FAULT_PLAN = FaultPlan(
    name="ladder-parity",
    specs=(
        FaultSpec("ecc.timeout", probability=0.3),
        FaultSpec("ecc.miscorrect", probability=0.3),
        FaultSpec("flash.bitflip", probability=0.4),
    ),
)


@pytest.fixture(autouse=True)
def _dormant():
    FAULTS.deactivate()
    OBS.disable()
    OBS.reset()
    yield
    FAULTS.deactivate()
    OBS.disable()
    OBS.reset()


def _chip(kind, stress):
    chip = FlashChip(SPECS[kind], seed=5, sentinel_ratio=0.002)
    chip.set_block_stress(0, stress)
    return chip


def _cols(kind, stress, rows=None):
    return _chip(kind, stress).block_columns(
        0, rows if rows is not None else range(4)
    )


def _policy(name, kind, stress):
    chip = _chip(kind, stress)
    return POLICIES[name](CapabilityEcc.for_spec(chip.spec), chip)


def _serial(policy, cols, pages, hints=None):
    """The per-row reference loop ``read_batch`` must equal."""
    return retry_oracle.read_rows(policy, cols, pages, hints)


def _assert_outcomes_identical(serial, batched):
    assert serial.success == batched.success
    assert serial.retries == batched.retries
    assert serial.pipelined_senses == batched.pipelined_senses
    assert len(serial.attempts) == len(batched.attempts)
    for a, b in zip(serial.attempts, batched.attempts):
        assert a.decoded == b.decoded
        assert a.rber == b.rber
        np.testing.assert_array_equal(a.offsets, b.offsets)


def _assert_all_identical(serial, batched):
    assert len(batched) == len(serial)
    for row_serial, row_batched in zip(serial, batched):
        assert len(row_batched) == len(row_serial)
        for s, b in zip(row_serial, row_batched):
            _assert_outcomes_identical(s, b)


kinds = st.sampled_from(sorted(SPECS))
stresses = st.sampled_from(STRESSES)
policy_names = st.sampled_from(sorted(POLICIES))
row_subsets = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True
)
hint_values = st.one_of(
    st.none(), st.floats(min_value=-40.0, max_value=5.0, allow_nan=False)
)


@given(kind=kinds, stress=stresses, policy_name=policy_names,
       rows=row_subsets, data=st.data())
@settings(max_examples=64, deadline=None)
def test_lockstep_batch_bit_identical_to_serial(
    kind, stress, policy_name, rows, data
):
    """read_batch == the reference, row for row, attempt for attempt."""
    hints = data.draw(
        st.lists(hint_values, min_size=len(rows), max_size=len(rows))
    )
    pages = list(range(SPECS[kind].pages_per_wordline))
    serial = _serial(
        _policy(policy_name, kind, stress), _cols(kind, stress, rows),
        pages, hints,
    )
    batched = _policy(policy_name, kind, stress).read_batch(
        _cols(kind, stress, rows), pages, hints
    )
    _assert_all_identical(serial, batched)


@given(kind=kinds, stress=stresses, policy_name=policy_names,
       rows=row_subsets, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_lockstep_batch_bit_identical_under_faults(
    kind, stress, policy_name, rows, seed
):
    """Fault decisions are keyed per wordline, so lockstep stays exact
    under an active plan: same outcomes, same injection counts."""
    pages = list(range(SPECS[kind].pages_per_wordline))
    injector = FAULTS.activate(FAULT_PLAN, seed)
    serial = _serial(
        _policy(policy_name, kind, stress), _cols(kind, stress, rows), pages
    )
    serial_counts = dict(injector.counts)
    injector = FAULTS.activate(FAULT_PLAN, seed)
    batched = _policy(policy_name, kind, stress).read_batch(
        _cols(kind, stress, rows), pages
    )
    _assert_all_identical(serial, batched)
    assert FAULTS.injector.counts == serial_counts


@given(kind=kinds, stress=stresses, policy_name=policy_names,
       row=st.integers(min_value=0, max_value=3), hint=hint_values,
       seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
@settings(max_examples=48, deadline=None)
def test_read_of_a_shared_view_reads_only_its_row(
    kind, stress, policy_name, row, hint, seed
):
    """``policy.read`` on one view of a 4-row store equals the reference
    read of that row, consumes only that row's read-noise stream and
    (with a fault plan, ``seed`` not None) draws the same faults."""
    pages = list(range(SPECS[kind].pages_per_wordline))

    def run(read, policy):
        injector = FAULTS.activate(FAULT_PLAN, seed) if seed is not None else None
        cols = _cols(kind, stress)
        view = cols.wordline_view(row)
        outcomes = [read(policy, view, p, hint) for p in pages]
        counts = dict(injector.counts) if injector is not None else None
        FAULTS.deactivate()
        states = [cols.read_rng(r).bit_generator.state for r in range(4)]
        return outcomes, counts, states

    expected, ref_counts, ref_states = run(
        retry_oracle.read, _policy(policy_name, kind, stress)
    )
    got, counts, states = run(
        lambda policy, view, p, h: policy.read(view, p, hint=h),
        _policy(policy_name, kind, stress),
    )
    _assert_all_identical([expected], [got])
    assert counts == ref_counts
    assert states == ref_states
    untouched = _cols(kind, stress)
    for r in range(4):
        if r != row:
            assert states[r] == untouched.read_rng(r).bit_generator.state


@given(kind=kinds, policy_name=st.sampled_from(LEARNING), rows=row_subsets)
@settings(max_examples=10, deadline=None)
def test_lockstep_batch_matches_serial_after_commit(
    kind, policy_name, rows
):
    """The equivalence survives a warm-up + commit_feedback cycle."""
    pages = list(range(SPECS[kind].pages_per_wordline))

    policies = []
    for _ in range(2):
        policy = _policy(policy_name, kind, AGED)
        policy.read_batch(_cols(kind, AGED), pages)
        policy.commit_feedback()
        policies.append(policy)
    serial_policy, batch_policy = policies

    serial = _serial(serial_policy, _cols(kind, AGED, rows), pages)
    batched = batch_policy.read_batch(_cols(kind, AGED, rows), pages)
    _assert_all_identical(serial, batched)


#: events a read emits in canonical (row, page, attempt) order on both paths
ORDERED_KINDS = (
    "read_attempt", "sentinel_inference", "calibration_step", "fallback_table",
    "ecc_decode",
)
#: the events and counters the sentinel flow adds
SENTINEL_KINDS = ORDERED_KINDS[1:4]
COUNTERS = (
    "repro_reads_total", "repro_read_attempts_total",
    "repro_ecc_decodes_total", "repro_sentinel_inferences_total",
    "repro_calibration_steps_total", "repro_fallback_table_reads_total",
)


def _obs_of(run):
    """(ordered read events, counters) of ``run``."""
    OBS.reset()
    OBS.enable(metrics=True, tracing=True)
    run()
    events = OBS.tracer.events()
    ordered = [
        (e.kind, tuple(sorted(e.fields.items())))
        for e in events if e.kind in ORDERED_KINDS
    ]
    counters = {
        key: value for key, value in OBS.metrics.snapshot().items()
        if key.startswith(COUNTERS)
    }
    OBS.disable()
    return ordered, counters


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_lockstep_obs_matches_serial(policy_name):
    """Deferred lockstep obs (``_flush_batch_obs``, the decodes included)
    equals what the per-row loop emits, event for event in the same
    order.  The aged QLC block exhausts the vendor ladder, so soft rescues
    run too, and the sentinel flow reaches calibration and the table
    fallback."""
    kind = "qlc"
    pages = list(range(SPECS[kind].pages_per_wordline))
    hints = [None, -6.0, None, -12.0]
    serial = _obs_of(lambda: _serial(
        _policy(policy_name, kind, AGED), _cols(kind, AGED), pages, hints
    ))
    batched = _obs_of(lambda: _policy(policy_name, kind, AGED).read_batch(
        _cols(kind, AGED), pages, hints
    ))
    ordered, counters = serial
    assert counters
    assert {kind for kind, _ in ordered} >= {"read_attempt", "ecc_decode"}
    if "sentinel" in policy_name:
        assert {kind for kind, _ in ordered} >= set(SENTINEL_KINDS)
    assert batched == serial


def test_tracked_sentinel_obs_carries_its_own_name():
    """A tracking+sentinel read is one read: its events and counters all
    say ``tracking+sentinel``, its attempts number 1..n, and each of its
    inferences (the takeover, then the default-position flow's) emits
    one ``sentinel_inference``."""
    kind = "qlc"
    policy = _policy("tracking+sentinel", kind, AGED)
    OBS.reset()
    OBS.enable(metrics=True, tracing=True)
    inferences = attempts = reads = tails = 0
    for wl in _cols(kind, AGED).iter_views():
        for page in range(SPECS[kind].pages_per_wordline):
            start = len(OBS.tracer.events())
            outcome = policy.read(wl, page)
            events = OBS.tracer.events()[start:]
            n = len(outcome.attempts)
            assert [
                e.fields["attempt"] for e in events
                if e.kind == "read_attempt"
            ] == list(range(1, n + 1))
            assert {
                e.fields["policy"] for e in events if "policy" in e.fields
            } == {"tracking+sentinel"}
            inferred = (n >= 2) + (n >= 4)
            assert sum(
                e.kind == "sentinel_inference" for e in events
            ) == inferred
            inferences += inferred
            attempts += n
            reads += 1
            tails += n >= 4
    counters = OBS.metrics.snapshot()
    OBS.disable()
    assert tails > 0  # the default-position flow ran
    name = 'policy="tracking+sentinel"'
    assert counters[f"repro_reads_total{{{name}}}"] == reads
    assert counters[f"repro_read_attempts_total{{{name}}}"] == attempts
    assert counters["repro_sentinel_inferences_total"] == inferences
    assert not [key for key in counters if 'policy="sentinel"' in key]


@pytest.mark.parametrize("policy_name, bound", [
    ("sentinel", MAX_RETRIES), ("tracking+sentinel", MAX_RETRIES + 2),
])
def test_sentinel_retry_bounds(policy_name, bound):
    """When no decode ever succeeds, the sentinel controller stops at
    ``MAX_RETRIES``; tracking+sentinel adds its tracked read and the
    takeover retry before a flow whose caps count from its own default
    read, so it stops at ``MAX_RETRIES + 2``."""
    FAULTS.activate(FaultPlan(
        name="never-decodes",
        specs=(FaultSpec("ecc.timeout", probability=1.0),),
    ))
    policy = _policy(policy_name, "tlc", AGED)
    for wl in _cols("tlc", AGED, range(2)).iter_views():
        outcome = policy.read(wl, "MSB")
        assert not outcome.success
        assert outcome.retries == bound


@pytest.mark.parametrize("policy_name", LEARNING)
def test_lockstep_feedback_queues_in_serial_order(policy_name):
    """Feedback queues in canonical (row, page) order on both paths, so
    the committed window (a key's last ``history`` entries) cannot depend
    on batching.  All rows share one layer, hence one feedback key."""
    spec = TLC_SPEC.scaled(
        cells_per_wordline=1024, wordlines_per_layer=4, layers=1,
        name_suffix="-rival-layer",
    )
    chip = FlashChip(spec, seed=5, sentinel_ratio=0.002)
    chip.set_block_stress(0, AGED)
    pages = list(range(spec.pages_per_wordline))
    ecc = CapabilityEcc.for_spec(spec)
    serial_policy, batch_policy = (
        POLICIES[policy_name](ecc, chip) for _ in range(2)
    )
    _serial(serial_policy, chip.block_columns(0, range(4)), pages)
    batch_policy.read_batch(chip.block_columns(0, range(4)), pages)
    assert serial_policy._pending.keys() == batch_policy._pending.keys()
    for key, queued in serial_policy._pending.items():
        assert len(queued) > len(pages)
        np.testing.assert_array_equal(queued, batch_policy._pending[key])


def test_opt_searches_only_after_a_failed_default_read(monkeypatch):
    """OPT's lockstep read computes the optimum once per failing
    (row, page) — exactly as often as the per-row loop."""
    import repro.retry.oracle as oracle

    calls = []
    search = oracle.optimal_offsets

    def counted(wordline):
        calls.append((wordline.index, wordline.layer))
        return search(wordline)

    monkeypatch.setattr(oracle, "optimal_offsets", counted)
    kind = "tlc"
    pages = list(range(SPECS[kind].pages_per_wordline))
    serial = _serial(_policy("opt", kind, AGED), _cols(kind, AGED), pages)
    serial_calls = list(calls)
    calls.clear()
    _policy("opt", kind, AGED).read_batch(_cols(kind, AGED), pages)
    failing = sum(
        not out.attempts[0].decoded for row in serial for out in row
    )
    assert 0 < failing < sum(len(row) for row in serial)
    assert len(serial_calls) == len(calls) == failing
    assert sorted(serial_calls) == sorted(calls)


class TestOnlineModelLearns:
    def test_retries_monotone_non_increasing_without_read_noise(self):
        """Committed feedback never makes a fixed-stress chip slower.

        Read noise is zeroed (the chip is otherwise untouched) so every
        sweep sees identical Vth state and the only moving part is the
        committed per-chunk correction — the property isolates the
        model's contribution from per-read sampling flutter."""
        spec = dataclasses.replace(
            TLC_SPEC.scaled(
                cells_per_wordline=8192,
                wordlines_per_layer=1,
                layers=8,
                name_suffix="-rival-mono",
            ),
            read_noise_sigma=0.0,
        )
        chip = FlashChip(spec, seed=7, sentinel_ratio=0.002)
        # worn past the paper's end-of-life point so the retention prior
        # alone leaves the per-layer process variation on the table
        chip.set_block_stress(0, StressState(pe_cycles=6000,
                                             retention_hours=8760.0))
        policy = OnlineModelPolicy(CapabilityEcc.for_spec(spec), spec)
        totals = []
        for _ in range(4):
            profile = RetryProfile.measure(chip, policy, workers=1)
            totals.append(sum(
                int(rows[:, 0].sum()) for rows in profile.samples.values()
            ))
            policy.commit_feedback()
        assert totals[0] > 0  # the aged block actually needs retries cold
        assert all(a >= b for a, b in zip(totals, totals[1:])), totals
        assert totals[-1] < totals[0]  # and the model genuinely improves


class TestAdaptiveRetryUnit:
    @pytest.fixture()
    def setup(self):
        spec = SPECS["tlc"]
        return spec, AdaptiveRetryPolicy(CapabilityEcc.for_spec(spec), spec)

    def test_cold_schedule_walks_vendor_ladder(self, setup):
        _, policy = setup
        schedule = policy._schedule(None)
        assert schedule[0] == -1  # default read first
        assert schedule[1:] == list(range(len(schedule) - 1))

    def test_predicted_schedule_expands_around_start(self, setup):
        _, policy = setup
        schedule = policy._schedule(4)
        assert schedule[:3] == [4, 5, 3]
        assert len(set(schedule)) == len(schedule)

    def test_hint_selects_nearest_table_entry(self, setup):
        spec, policy = setup
        sv = spec.sentinel_voltage - 1
        for entry in (0, len(policy.table) - 1):
            hint = float(policy.table[entry, sv])
            assert policy._start_from_hint(hint) == entry

    def test_feedback_applies_only_after_commit(self, setup):
        spec, policy = setup
        chip = FlashChip(spec, seed=5, sentinel_ratio=0.002)
        chip.set_block_stress(0, StressState(pe_cycles=3000,
                                             retention_hours=8760.0))
        wl = chip.block_columns(0, [0]).wordline_view(0)
        policy.read(wl, 0)
        assert policy._pending and not policy._starts
        policy.commit_feedback()
        assert not policy._pending

    def test_pipelined_senses_marked(self, setup):
        spec, policy = setup
        chip = FlashChip(spec, seed=5, sentinel_ratio=0.002)
        chip.set_block_stress(0, StressState(pe_cycles=3000,
                                             retention_hours=8760.0))
        assert policy.pipelined
        for wl in chip.block_columns(0, range(4)).iter_views():
            for p in range(spec.pages_per_wordline):
                out = policy.read(wl, p)
                assert out.pipelined_senses == out.retries


class TestOnlineModelUnit:
    @pytest.fixture()
    def setup(self):
        spec = SPECS["tlc"]
        return spec, OnlineModelPolicy(CapabilityEcc.for_spec(spec), spec)

    def test_prior_tracks_retention_model(self, setup):
        spec, policy = setup
        fresh = policy.prior_offsets(StressState())
        aged = policy.prior_offsets(
            StressState(pe_cycles=3000, retention_hours=8760.0)
        )
        assert fresh.shape == aged.shape == (spec.n_states - 1,)
        # retention drags Vth down: aged read offsets sit below fresh ones
        assert aged.sum() < fresh.sum()

    def test_first_probe_is_the_prediction(self, setup):
        _, policy = setup
        pred = np.array([-3.0, -5.0] + [0.0] * (len(policy._profile) - 2))
        np.testing.assert_array_equal(policy._probe(pred, 0), pred)

    def test_probes_alternate_and_expand(self, setup):
        _, policy = setup
        pred = np.zeros(len(policy._profile))
        deeper = policy._probe(pred, 1)
        shallower = policy._probe(pred, 2)
        wider = policy._probe(pred, 3)
        assert deeper.sum() < 0 < shallower.sum()
        assert abs(wider.sum()) >= abs(deeper.sum())

    def test_hint_reanchors_sentinel_voltage(self, setup):
        spec, policy = setup
        stress = StressState(pe_cycles=3000, retention_hours=8760.0)
        prior = policy.prior_offsets(stress)
        sv = spec.sentinel_voltage - 1
        hinted = policy._predict(prior, (0, 0), float(prior[sv]) - 4.0)
        assert hinted[sv] == pytest.approx(prior[sv] - 4.0, abs=1.0)

    def test_feedback_applies_only_after_commit(self, setup):
        spec, policy = setup
        chip = FlashChip(spec, seed=5, sentinel_ratio=0.002)
        chip.set_block_stress(0, StressState(pe_cycles=3000,
                                             retention_hours=8760.0))
        wl = chip.block_columns(0, [0]).wordline_view(0)
        for p in range(spec.pages_per_wordline):
            policy.read(wl, p)
        assert not policy._corrections
        policy.commit_feedback()
        assert not policy._pending


class TestPipelinedTiming:
    def test_read_us_overlaps_retry_sensing(self):
        timing = NandTiming()
        plain = timing.read_us(3, retries=2)
        pipelined = timing.read_us(3, retries=2, pipelined=True)
        assert pipelined == pytest.approx(
            plain - 2 * timing.pipeline_overlap_us(3)
        )
        assert pipelined < plain

    def test_zero_retries_unaffected(self):
        timing = NandTiming()
        assert timing.read_us(3, retries=0, pipelined=True) == (
            timing.read_us(3, retries=0)
        )

    def test_outcome_accounting_uses_pipelined_senses(self):
        from repro.retry.policy import ReadAttempt, ReadOutcome

        timing = NandTiming()
        outcome = ReadOutcome(page=0, page_voltages=3)
        outcome.attempts = [
            ReadAttempt(offsets=None, rber=0.01, decoded=False),
            ReadAttempt(offsets=None, rber=0.001, decoded=True),
        ]
        outcome.retries = 1
        outcome.success = True
        plain = timing.read_outcome_us(outcome)
        outcome.pipelined_senses = 1
        assert timing.read_outcome_us(outcome) == pytest.approx(
            plain - timing.pipeline_overlap_us(3)
        )

    def test_profile_carries_pipelined_flag_into_mean(self):
        timing = NandTiming()
        samples = {0: np.array([[2, 0]], dtype=np.int64)}
        plain = RetryProfile("x", {0: 3}, samples)
        piped = RetryProfile("x", {0: 3}, samples, pipelined=True)
        assert piped.mean_read_us(timing) < plain.mean_read_us(timing)
