"""The benchmark's trace run looks up its traced functions and classes by
name; every listed name must exist, or ``perfbench/run.py --trace 1`` breaks.
Its hooks must also run: one sample job of each kind goes through them."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
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


def _unit_loop_frames(ts):
    """[X; P] of the planes e^{i pi t} X* in n = 1 (X = -Im u, P = Re u)."""
    return [[[-math.sin(math.pi * t)], [math.cos(math.pi * t)]] for t in ts]


def _rotation_loop(ts):
    """R(2 pi t), the loop of Sp(1) whose induced loops wind twice."""
    return [[[math.cos(2 * math.pi * t), -math.sin(2 * math.pi * t)],
             [math.sin(2 * math.pi * t), math.cos(2 * math.pi * t)]] for t in ts]


def test_tracer_hooks_run_sample_jobs():
    # the benchmark's trace run installs the tracer on the package, and its
    # LagrangianPath hook wraps __post_init__ and reads path.generator; one
    # job of each sample kind runs through it and the install is undone
    from maslov import cli, paths

    tracing = _tracing()
    ts = np.linspace(0.0, 1.0, 17)
    jobs = [
        {"n": 1, "index": "keller-maslov",
         "path": {"kind": "lagrangian_samples", "frames": _unit_loop_frames(ts)}},
        {"n": 1, "index": "symplectic", "plane": "coordinate_x",
         "path": {"kind": "symplectic_samples", "matrices": _rotation_loop(ts)}},
    ]
    post_init = paths.LagrangianPath.__post_init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        values = [cli.compute_report(job)["value"] for job in jobs]
    finally:
        tracer.uninstall()
    assert values == [1, 4]
    assert paths.LagrangianPath.__post_init__ is post_init
    traced = {span[3] for span in tracer.spans}
    assert {"cli.parse_lagrangian_path", "cli.parse_symplectic_path", "paths.lift_path",
            "paths.induced_path", "paths.SymplecticPath"} <= traced
    assert tracer.samples == 2 * len(ts)
