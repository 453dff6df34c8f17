"""DESIGN.md's tables name only code that exists.

Each backticked dotted name in a DESIGN.md table row whose first part is a
``repro`` subpackage (``repro.flash.spec``, or ``exp.fig16.run_fig17``
relative to the package) must resolve: the longest prefix that imports as a
module, then the rest as attributes of it.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"

_NAME = re.compile(r"`((?:repro\.)?[a-z_]\w*(?:\.\w+)+)`")
_SUBPACKAGES = {module.name for module in pkgutil.iter_modules(repro.__path__)}


def design_names(text):
    """The fully qualified ``repro`` names in the table rows of ``text``."""
    names = []
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        for name in _NAME.findall(line):
            relative = name.removeprefix("repro.")
            full = f"repro.{relative}"
            if relative.split(".")[0] in _SUBPACKAGES and full not in names:
                names.append(full)
    return names


def resolves(name):
    """Whether ``name`` is a module, or attributes of its longest module."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as err:
            # a missing parent or the module itself, not a broken import
            if not f"{module_name}.".startswith(f"{err.name}."):
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_design_table_name_resolves():
    names = design_names(DESIGN.read_text())
    assert "repro.ecc.ldpc" in names and "repro.flash.spec.MLC_SPEC" in names
    assert [name for name in names if not resolves(name)] == []


@pytest.mark.parametrize(
    "name",
    [
        "repro.core.inference",  # a module that does not exist
        "repro.ssd.ssd.run_closed_loop",  # a method without its class
        "repro.exp.fig17",  # a driver that lives in another module
    ],
)
def test_missing_names_do_not_resolve(name):
    assert not resolves(name)
