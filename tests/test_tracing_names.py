"""The benchmark's trace run looks up its traced functions and classes by
name; every listed name must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed():
    tracing = _tracing()
    return [
        (mod, name)
        for table in (tracing.FUNCTIONS, tracing.CLASSES)
        for mod, names in table.items()
        for name in names
    ]


@pytest.mark.parametrize("mod, name", _listed())
def test_traced_name_resolves(mod, name):
    module = importlib.import_module(f"maslov.{mod}")
    assert callable(getattr(module, name, None)), f"maslov.{mod}.{name} is gone"
