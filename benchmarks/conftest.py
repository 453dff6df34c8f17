"""Benchmark harness conventions.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding ``repro.exp`` driver (timed by pytest-benchmark), prints the
same rows/series the paper reports, sanity-asserts the qualitative shape,
and pins the exact result to the SHA-256 digest recorded in
``paper_digests.json``.  Run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables.

**Paper digests.**  :func:`paper_digest_of` hashes a canonical encoding of
a result: dataclasses field by field, dicts with sorted keys, arrays by
dtype, shape and bytes, floats by ``repr``.  A digest changes only when a
number changes, so a change that should keep the paper's results must keep
every pin.  ``make paper-digests`` re-records the file from a committed
tree; changing a pin is a behaviour change that needs a stated reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report import format_table

#: the committed pins: ``{"<test file>::<test>": sha256}``
DIGESTS_PATH = Path(__file__).with_name("paper_digests.json")
#: set (to anything) to record digests instead of checking them
RECORD_ENV = "REPRO_RECORD_PAPER_DIGESTS"

_recorded: dict = {}


def emit(title, rows, headers=None):
    """Print one reproduced table with a recognizable banner."""
    print()
    print("=" * 72)
    print(format_table(rows, headers=headers, title=title))


def _canonical(obj):
    """A JSON-encodable form of ``obj`` that preserves every number exactly."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "dataclass": type(obj).__name__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        items = [
            (json.dumps(_canonical(k), sort_keys=True), _canonical(v))
            for k, v in obj.items()
        ]
        return {"dict": [list(kv) for kv in sorted(items, key=lambda kv: kv[0])]}
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            return {"objects": _canonical(obj.tolist()), "shape": list(obj.shape)}
        return {
            "ndarray": obj.dtype.str,
            "shape": list(obj.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
        }
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return {"float": repr(float(obj))}
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, tuple):
        return {"tuple": [_canonical(x) for x in obj]}
    if isinstance(obj, (list, range)):
        return [_canonical(x) for x in obj]
    if hasattr(obj, "__dict__"):
        return {"object": type(obj).__name__, "attrs": _canonical(vars(obj))}
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def paper_digest_of(result) -> str:
    """SHA-256 of the canonical encoding of one benchmark's result."""
    text = json.dumps(_canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def paper_digest(request):
    """``paper_digest(result)`` asserts (or records) this test's pin."""
    key = request.node.nodeid.split("/")[-1]

    def check(result) -> None:
        digest = paper_digest_of(result)
        if os.environ.get(RECORD_ENV):
            _recorded[key] = digest
            return
        pinned = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
        assert key in pinned, (
            f"no pinned digest for {key}; record it with `make paper-digests`"
        )
        assert digest == pinned[key], (
            f"{key}: the result differs from its pinned digest "
            f"({digest} != {pinned[key]})"
        )

    return check


def pytest_sessionfinish(session, exitstatus):
    """Write the recorded pins (merged over the file: ``-k`` runs keep the rest)."""
    if os.environ.get(RECORD_ENV) and _recorded and exitstatus == 0:
        pinned = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
        pinned.update(_recorded)
        DIGESTS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="session", autouse=True)
def warm_models():
    """Fit the sentinel models once so benchmarks time the experiments,
    not the shared factory characterization."""
    from repro.exp.common import trained_model

    trained_model("tlc")
    trained_model("qlc")
