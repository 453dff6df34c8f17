"""The four benchmark workloads: inputs from a seed, calls, scores.

A workload's input for one seed is split into ``parts``, each generated
from its own part seed (:func:`part_seeds`), so that a run can time many
short calls while the simulated metrics pool a large input.  Each
workload has two halves.  ``prepare(seeds, workers)`` is set-up: it fits
the sentinel model where the workload needs one and generates every
part's trace, then returns one zero-argument *workload call* per part —
the single call into ``repro`` that ``run_s`` times.  ``score(report)``
reads the simulated end-to-end numbers and the correctness verdicts off
the report a call returned.  Why each workload exists is in README.md.

Imports of ``repro`` happen inside the functions, after the traced run
has wrapped the layers, so the workload calls the wrapped names.
"""

from __future__ import annotations

from functools import partial
from statistics import fmean
from typing import Any, Callable, Dict, List, NamedTuple

#: chip scale of both grids: the tournament/campaign smoke scale
GRID_CELLS = 8192
#: replay sizing (requests per part's trace)
READ_HOT_REQUESTS = 2000
WRITE_GC_REQUESTS = 3000

Calls = List[Callable[[], Any]]


def part_seeds(seed: int, parts: int) -> List[int]:
    """The seeds of one run's input parts (distinct for distinct seeds)."""
    return [seed * 1000 + part for part in range(parts)]


def _replay_spec():
    from repro.exp.common import sim_spec

    return sim_spec("tlc", cells_per_wordline=GRID_CELLS, wordlines_per_layer=4)


# ----------------------------------------------------------------------
# tournament-tlc
# ----------------------------------------------------------------------
def prepare_tournament(seeds: List[int], workers: int) -> Calls:
    from repro.tournament import TournamentConfig, run_tournament, tournament_model

    config = TournamentConfig(
        kind="tlc",
        frontends=("hm_0", "usr_0"),
        cells_per_wordline=GRID_CELLS,
        wordline_step=4,  # the smoke run's step is 8
        requests_per_cell=240,
        workers=workers,
    )
    tournament_model(config.kind, config.cells_per_wordline, config.sentinel_ratio)
    return [partial(run_tournament, config, seed=seed) for seed in seeds]


def score_tournament(report) -> Dict[str, Any]:
    cells = report.cells
    return {
        "offered": sum(c["offered"] for c in cells),
        "served": sum(c["served"] for c in cells),
        "balanced": all(
            c["served"] + c["degraded"] + c["shed"] == c["offered"] for c in cells
        ),
        # the paper's result: the sentinel beats the vendor retry table
        "paper_ok": report.sentinel_beats(),
        "retries": sum(c["retries_per_read"] * c["reads_measured"] for c in cells),
        "reads": sum(c["reads_measured"] for c in cells),
        "read_p99_us": fmean(c["p99_us"] for c in cells),
    }


# ----------------------------------------------------------------------
# campaign-qlc
# ----------------------------------------------------------------------
def prepare_campaign(seeds: List[int], workers: int) -> Calls:
    from repro.campaign import CampaignConfig, run_campaign
    from repro.tournament import tournament_model

    config = CampaignConfig(
        kind="qlc",
        policies=("sentinel", "current-flash"),
        environments=("outage",),
        phases=4,
        cells_per_wordline=GRID_CELLS,
        requests_per_phase=400,
        wordline_step=8,
        workers=workers,
    )
    tournament_model(config.kind, config.cells_per_wordline, config.sentinel_ratio)
    return [partial(run_campaign, config, seed=seed) for seed in seeds]


def score_campaign(report) -> Dict[str, Any]:
    cells = report.cells
    phases = [row for c in cells for row in c["phases"]]
    final = {c["policy"]: c["final_retries_per_read"] for c in cells}
    return {
        "offered": sum(row["offered"] for row in phases),
        "served": sum(row["served"] for row in phases),
        "balanced": all(
            row["served"] + row["degraded"] + row["shed"] == row["offered"]
            for row in phases
        ),
        "paper_ok": final["sentinel"] < final["current-flash"],
        # served retries (broker histogram deltas): the voltage cache and
        # its power-loss flush show here, unlike in the measured profiles
        "retries": sum(
            row["served_retries_per_read"] * row["served_reads"] for row in phases
        ),
        "reads": sum(row["served_reads"] for row in phases),
        "read_p99_us": fmean(c["final_p99_us"] for c in cells),
    }


# ----------------------------------------------------------------------
# replay-read-hot and replay-write-gc
# ----------------------------------------------------------------------
def _prepare_replay(seeds: List[int], params, requests: int,
                    blocks_per_die: int, batch: bool, scrub: bool) -> Calls:
    from repro.replay import ReplayConfig, replay_trace
    from repro.service import synthetic_profiles
    from repro.service.broker import ServiceConfig
    from repro.ssd.config import SsdConfig
    from repro.ssd.timing import NandTiming
    from repro.traces.synthetic import generate_workload

    spec = _replay_spec()
    ssd_config = SsdConfig.for_spec(
        spec, channels=2, dies_per_channel=2, blocks_per_die=blocks_per_die
    )
    profiles = synthetic_profiles("tlc")
    return [
        partial(
            replay_trace,
            generate_workload(params, n_requests=requests, seed=seed),
            spec=spec,
            ssd_config=ssd_config,
            timing=NandTiming(),
            profiles=profiles,
            seed=seed,
            config=ReplayConfig(batch_enabled=batch, workers=1),
            service_config=ServiceConfig(scrub_enabled=scrub),
        )
        for seed in seeds
    ]


def prepare_read_hot(seeds: List[int], workers: int) -> Calls:
    from repro.traces.synthetic import WorkloadParams

    # ~95% reads with a skewed 8 MiB footprint: a few hundred cache keys,
    # well inside the 4096-entry voltage cache; 200 IOPS keeps dies ~5% busy
    params = WorkloadParams(
        "read_hot", 0.95, 200.0, 8 * 2**20, 0.90,
        (4, 8, 16), (0.6, 0.3, 0.1), 0.3,
    )
    return _prepare_replay(seeds, params, READ_HOT_REQUESTS, 64,
                           batch=True, scrub=True)


def prepare_write_gc(seeds: List[int], workers: int) -> Calls:
    from dataclasses import replace

    from repro.traces.synthetic import MSR_WORKLOADS

    # rsrch_0's mix (~95% writes) on a 6-block-per-die device that its
    # 48 MiB footprint nearly fills: GC runs from the first few hundred
    # writes on (write amplification ~3) and about a tenth is shed
    params = replace(
        MSR_WORKLOADS["rsrch_0"], mean_iops=25.0, footprint_bytes=48 * 2**20
    )
    return _prepare_replay(seeds, params, WRITE_GC_REQUESTS, 6,
                           batch=False, scrub=False)


def score_replay(report) -> Dict[str, Any]:
    acct = report.accounting
    service = report.service
    hist = {int(k): v for k, v in service["retry_histogram"].items()}
    return {
        "offered": acct["offered"],
        "served": acct["served"],
        "balanced": acct["served"] + acct["degraded"] + acct["shed"]
        == acct["offered"],
        "paper_ok": True,  # synthetic retry profiles: no paper claim here
        "retries": sum(k * v for k, v in hist.items()),
        "reads": sum(hist.values()),
        "read_p99_us": service["clients"][report.trace_name]["read_p99_us"],
    }


class Workload(NamedTuple):
    prepare: Callable[[List[int], int], Calls]
    score: Callable[[Any], Dict[str, Any]]
    #: input parts per seed; a part's call takes roughly 1 to 4 s
    parts: int
    #: worker processes of the untraced run
    workers: int


WORKLOADS: Dict[str, Workload] = {
    "tournament-tlc": Workload(prepare_tournament, score_tournament, 4, 2),
    "campaign-qlc": Workload(prepare_campaign, score_campaign, 3, 1),
    "replay-read-hot": Workload(prepare_read_hot, score_replay, 12, 1),
    "replay-write-gc": Workload(prepare_write_gc, score_replay, 12, 1),
}
