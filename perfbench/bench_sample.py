"""One benchmark sample: a fresh process that sets up a workload and
calls it.

Started by ``run.py``, never by hand::

    python3 perfbench/bench_sample.py WORKLOAD SEED WORKERS T_SPAWN TRACE FIRST BUDGET [SPANS]
    python3 perfbench/bench_sample.py --warm-up

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide, so both processes read the same
one).  Set-up runs from there to the instant before the first workload
call: interpreter start, ``import repro.cli``, sentinel-model fit and the
generation of every part's trace.  Then the process calls the parts in
turn, starting at part ``FIRST``, while ``BUDGET`` seconds since
``T_SPAWN`` allow another call of the length of the last one (always at
least one call).  ``BUDGET`` <= 0 calls every part exactly once instead.
A call covers the workload call plus the report's ``to_json``, which
every CLI user of the pipeline pays too.  With ``TRACE`` = 1 the layers
are wrapped first (bench_trace.py) and the spans are saved to ``SPANS``.
Prints one JSON object on stdout.

Host times are reported twice: as measured (``setup_wall_s``,
``wall_s``) and scaled to the reference host speed (``setup_s``,
``run_s``).  A reference kernel (:func:`reference_s`) runs at the start
of the process and after set-up and after every call; each interval is
multiplied by ``REFERENCE_S`` over the mean of the two kernel times
around it.

``--warm-up`` only compiles ``src`` and ``perfbench`` to byte code and
imports numpy and ``repro.cli``, so that later samples start warm.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time


def warm_up() -> None:
    import compileall
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    for tree in (os.path.join(os.getcwd(), "src"), here):
        compileall.compile_dir(tree, quiet=1)
    import numpy  # noqa: F401
    import repro.cli  # noqa: F401


#: what :func:`reference_s` takes on the host the bounds were set on,
#: a 2-vCPU VM in its fast state; host times are scaled to that speed
REFERENCE_S = 0.0080


def reference_s() -> float:
    """Time one pass of a fixed kernel that uses no repository code.

    Interpreter work (dict scans, a heap) plus small numpy sorts, the mix
    the simulator runs.  On a shared host whose speed drifts by tens of
    percent for seconds to minutes at a time, the ratio of a call's time
    to this kernel's time next to it drifts far less than either."""
    import heapq

    import numpy as np

    data = np.arange(20000, dtype=np.float64)
    t0 = time.perf_counter()
    table = {i: (i, -i) for i in range(600)}
    heap = []
    for r in range(120):
        keys = [k for k, v in table.items() if v[0] >= r]
        for k in keys[:50]:
            heapq.heappush(heap, (k * 7919 % 613, k))
        while len(heap) > 20:
            heapq.heappop(heap)
        np.sort(data[r::7]).cumsum()
    return time.perf_counter() - t0


def main(argv) -> None:
    if argv[0] == "--warm-up":
        warm_up()
        return
    name, seed, workers = argv[0], int(argv[1]), int(argv[2])
    t_spawn, traced = float(argv[3]), argv[4] == "1"
    first, budget = int(argv[5]), float(argv[6])
    ref_start = reference_s()
    tracer = None
    if traced:
        from bench_trace import Tracer, install, layer_metrics

        tracer = Tracer()
        setup_span = tracer.open("bench.setup")
        cli_span = tracer.open("cli.import")
        import repro.cli  # noqa: F401
        tracer.close(cli_span)
        install(tracer)
    else:
        import repro.cli  # noqa: F401
    from bench_workloads import WORKLOADS, part_seeds

    workload = WORKLOADS[name]
    calls = workload.prepare(part_seeds(seed, workload.parts), workers)
    # set-up ends here: the next statement starts the first workload call
    setup_wall = time.monotonic() - t_spawn - ref_start
    if tracer is not None:
        tracer.close(setup_span)

    order = range(len(calls)) if budget <= 0 else itertools.count(first)
    ref_before = reference_s()
    setup_ref = (ref_start + ref_before) / 2
    results = []
    for k in order:
        part = k % len(calls)
        span = tracer.open("bench.workload") if tracer is not None else None
        t0 = time.perf_counter()
        report = calls[part]()
        payload = report.to_json()
        wall = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        ref_after = reference_s()
        ref = (ref_before + ref_after) / 2
        results.append({
            "part": part,
            "run_s": wall * REFERENCE_S / ref,
            "wall_s": wall,
            "ref_s": ref,
            "digest": hashlib.sha256(payload.encode()).hexdigest(),
            **workload.score(report),
        })
        del report, payload
        ref_before = ref_after
        if budget > 0 and time.monotonic() - t_spawn + wall > budget:
            break

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_wall * REFERENCE_S / setup_ref,
        "setup_wall_s": setup_wall,
        # ru_maxrss is in KiB on Linux; workers' peak is the largest one's
        "peak_rss_mb": (own + workers_peak) / 1024.0,
        "calls": results,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        if len(argv) > 7:
            tracer.save(argv[7])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
