"""The broker's guarded branches change no report.

``FlashReadService`` prices a read's first attempt straight through: the
obs-emitting cache probe runs only while observability is on, and the
die-stall and congestion hooks only under an active fault plan.  Two
replays pin that these guards only skip work: a GC-heavy write replay
(the device of ``replay_report_write_gc_seed0.json``) and a batched,
cached read-hot replay.  Each report is byte-identical with metrics,
tracer and spans on, and, apart from its ``faults`` section, under a plan
whose die-stall and congestion specs never fire.
"""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.exp.common import sim_spec
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.obs import OBS
from repro.replay import ReplayConfig, replay_trace
from repro.service import synthetic_profiles
from repro.service.broker import ServiceConfig
from repro.ssd.config import SsdConfig
from repro.ssd.timing import NandTiming
from repro.traces.synthetic import (
    MSR_WORKLOADS, WorkloadParams, generate_workload,
)

SPEC = sim_spec("tlc", cells_per_wordline=8192, wordlines_per_layer=4)

#: hooks that run on every read attempt while a plan is active, never firing
ZERO_HAZARDS = FaultPlan(name="zero-hazards", specs=(
    FaultSpec("ssd.die_stall", probability=0.0),
    FaultSpec("ssd.channel_congestion", probability=0.0),
))


def write_gc_replay():
    """The replay of ``tests/golden/replay_report_write_gc_seed0.json``."""
    params = replace(MSR_WORKLOADS["rsrch_0"], mean_iops=25.0,
                     footprint_bytes=48 * 2**20)
    return replay_trace(
        generate_workload(params, n_requests=1500, seed=0),
        spec=SPEC,
        ssd_config=SsdConfig.for_spec(
            SPEC, channels=2, dies_per_channel=2, blocks_per_die=6
        ),
        timing=NandTiming(),
        profiles=synthetic_profiles("tlc"),
        seed=0,
        config=ReplayConfig(workers=1),
        service_config=ServiceConfig(scrub_enabled=False),
    )


def read_hot_replay():
    params = WorkloadParams(
        "read_hot", 0.95, 200.0, 8 * 2**20, 0.90,
        (4, 8, 16), (0.6, 0.3, 0.1), 0.3,
    )
    return replay_trace(
        generate_workload(params, n_requests=800, seed=2),
        spec=SPEC,
        ssd_config=SsdConfig.for_spec(
            SPEC, channels=2, dies_per_channel=2, blocks_per_die=64
        ),
        timing=NandTiming(),
        profiles=synthetic_profiles("tlc"),
        seed=2,
        config=ReplayConfig(batch_enabled=True, workers=1),
    )


REPLAYS = {"write_gc": write_gc_replay, "read_hot": read_hot_replay}


@pytest.fixture(autouse=True)
def _clean_state():
    FAULTS.deactivate()
    OBS.disable()
    OBS.reset()
    yield
    FAULTS.deactivate()
    OBS.disable()
    OBS.reset()


@pytest.fixture(scope="module")
def plain_reports():
    """Each replay's report JSON with obs off and no fault plan."""
    reports = {name: run().to_json() for name, run in REPLAYS.items()}
    # the guards are exercised: GC migrations, cache hits and batches
    write_gc, read_hot = (json.loads(reports[n]) for n in REPLAYS)
    assert write_gc["service"]["extras"]["gc_erases"] > 0
    assert read_hot["service"]["cache"]["hits"] > 0
    assert read_hot["service"]["batch"]["batches"] > 0
    return reports


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_obs_on_changes_no_byte(name, plain_reports):
    obs.enable(metrics=True, tracing=True, spans=True)
    report = REPLAYS[name]().to_json()
    assert len(OBS.tracer) > 0
    assert report == plain_reports[name]


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_never_firing_hazards_change_nothing_but_faults(name, plain_reports):
    injector = FAULTS.activate(ZERO_HAZARDS, seed=0)
    report = json.loads(REPLAYS[name]().to_json())
    # both hooks were consulted (each decision advances an ordinal)
    consulted = {key[0] for key in injector._ordinals}
    assert {"ssd.die_stall", "ssd.channel_congestion"} <= consulted
    plain = json.loads(plain_reports[name])
    report["service"].pop("faults", None)
    plain["service"].pop("faults", None)
    assert report == plain
