"""Every entry point the traced benchmark wraps still resolves.

``perfbench/bench_trace.py`` wraps ``repro`` functions and methods from
outside ``src/`` by name.  A refactor that renames or moves one of them
would make ``--trace 1`` fail, or drop a per-layer metric such as
``service.scrub_scan_s``.  The module is executed from its source here
(nothing is written under ``perfbench/``) and each target is checked the
way ``install`` resolves it: module-level functions by attribute, methods
in the class's own ``__dict__``.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def load_bench_trace() -> types.ModuleType:
    module = types.ModuleType("bench_trace")
    module.__file__ = str(TRACE_PY)
    exec(compile(TRACE_PY.read_text(encoding="utf-8"), str(TRACE_PY), "exec"),
         module.__dict__)
    return module


BENCH_TRACE = load_bench_trace()


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for module_name, path, _, _ in BENCH_TRACE.TARGETS],
)
def test_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        assert attr in cls.__dict__, (
            f"{module_name}.{cls_name}.{attr} is not defined on the class "
            "itself, so the traced run cannot wrap it"
        )
    else:
        assert callable(getattr(module, path, None)), f"{module_name}.{path}"


@pytest.mark.parametrize("module_name, attr", sorted(BENCH_TRACE.BINDING_NAMES))
def test_renamed_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_every_timed_span_has_a_target():
    spans = {name for _, _, name, _ in BENCH_TRACE.TARGETS}
    spans |= set(BENCH_TRACE.BINDING_NAMES.values())
    assert set(BENCH_TRACE.INCLUSIVE.values()) - {"cli.import"} <= spans
    assert set(BENCH_TRACE.CALLS.values()) <= spans
