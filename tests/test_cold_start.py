"""The compute path imports numpy and the compute core only: the
constructions, the verification layer and the random generators load on
first use, and every public name of ``maslov`` still resolves to its
definition.  The package needs no scipy at all: with ``import scipy`` made
to fail, the former scipy users and ``maslov verify`` still run."""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from maslov.constructions import direct_sum_lift
from maslov.random_gen import random_lift

DEFERRED = ("scipy", "maslov.constructions", "maslov.verify", "maslov.random_gen")

#: the public names of ``maslov`` by defining module
PUBLIC = {
    "defaults": ("TOL_PHASE", "TOL_RANK_BASE", "TOL_ROUND", "TOL_SIG_BASE", "TOL_SYM"),
    "derived": (
        "HalfInteger", "SymmetricFamily", "graph_path", "hormander_xi", "shear_path",
        "spectral_flow",
    ),
    "errors": ("BadInput", "IllConditioned", "MaslovError", "Undersampled"),
    "lagrangian": (
        "LagrangianFrame", "apply_symplectic", "coordinate_x", "coordinate_xstar",
        "frame_from_graph", "frame_from_unitary", "frame_from_w", "intersection_dim", "souriau_w",
    ),
    "leray": ("LagrangianLift", "lift_of", "mu_bar", "souriau_m"),
    "paths": (
        "LagrangianPath", "SymplecticPath", "induced_path", "keller_maslov", "lift_path",
        "mu_ell", "mu_lagrangian", "mu_symplectic",
    ),
    "signature": ("TripleSignature", "inert_index", "kashiwara_tau"),
    "symplectic": ("SymplecticMatrix", "is_symplectic", "omega", "omega_matrix"),
    "constructions": (
        "Cochain", "coboundary", "concat", "concat_symplectic", "deck_apply", "direct_sum_frame",
        "direct_sum_lift", "direct_sum_symplectic", "embed_unitary", "path_joining", "reverse",
        "robbin_salamon", "rotation_path", "symplectic_path_from_algebra",
        "transversal_companion", "unitary_path",
    ),
}

# runs in a fresh interpreter after `import {module}`; prints one JSON list
IMPORT_PROBE = """
import json, sys
import {module}
print(json.dumps([m for m in {deferred!r} if m in sys.modules]))
"""

# runs in a fresh interpreter in which `import scipy` raises ImportError;
# prints the verify run's lines, then one JSON line
BLOCKED_PROBE = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
from maslov import (coordinate_x, coordinate_xstar, frame_from_w, omega_matrix,
                    path_joining, souriau_w, symplectic_path_from_algebra,
                    transversal_companion)
from maslov.cli import main
from maslov.paths import same_plane
code = main(["verify", "--seed", "42", "--n-max", "2"])
joined = path_joining(coordinate_xstar(2), coordinate_x(2))
sig = symplectic_path_from_algebra(omega_matrix(1), samples=5)
w = np.diag(np.exp(1j * np.array([0.4, -2.0])))
comp = transversal_companion(coordinate_x(1), coordinate_xstar(1))
print(json.dumps({
    "verify_exit": code,
    "joined_end": same_plane(joined.end(), coordinate_x(2)),
    "rotation_end": float(np.abs(sig.end() - np.cos(1.0) * np.eye(2) - np.sin(1.0) * omega_matrix(1)).max()),
    "w_roundtrip": float(np.abs(souriau_w(frame_from_w(w)) - w).max()),
    "companion_w": [souriau_w(comp)[0, 0].real, souriau_w(comp)[0, 0].imag],
}))
"""


@pytest.mark.parametrize("module", ["maslov.cli", "maslov"])
def test_import_leaves_scipy_out(module, src_env):
    code = IMPORT_PROBE.format(module=module, deferred=DEFERRED)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded == [], f"import {module} loaded {loaded}"


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in PUBLIC.items() for name in names]
)
def test_public_name_resolves_to_its_definition(module, name):
    namespace = {}
    exec(f"from maslov import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"maslov.{module}"), name)


def test_unknown_name_is_an_import_error():
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from maslov import no_such_name", {})


def test_runs_with_scipy_blocked(src_env):
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_PROBE],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    assert lines[-1] == "passed 33/33 checks"
    assert len(lines) == 34 and all(line.startswith("PASS ") for line in lines[:-1])
    probe = json.loads(last)
    assert probe["verify_exit"] == 0
    assert probe["joined_end"]
    assert probe["rotation_end"] < 1e-12
    assert probe["w_roundtrip"] < 1e-12
    # eigenphases {pi, 0}: the companion sits at +-pi/2, w = +-i
    assert abs(probe["companion_w"][0]) < 1e-12
    assert abs(abs(probe["companion_w"][1]) - 1.0) < 1e-12


@pytest.mark.parametrize("n1", [1, 2, 3])
@pytest.mark.parametrize("n2", [1, 2, 3])
def test_direct_sum_lift_matches_block_diag(n1, n2, rng):
    for _ in range(5):
        l1, l2 = random_lift(rng, n1), random_lift(rng, n2)
        summed = direct_sum_lift(l1, l2)
        # the lift stores the direct-sum frame, blocks copied exactly
        X1, P1 = np.split(l1.frame.frame, 2)
        X2, P2 = np.split(l2.frame.frame, 2)
        X, P = np.split(summed.frame.frame, 2)
        assert np.array_equal(X, scipy.linalg.block_diag(X1, X2))
        assert np.array_equal(P, scipy.linalg.block_diag(P1, P2))
        # its w = u u^t comes from one BLAS product on the n x n blocks, which
        # may round differently from the two smaller products
        assert np.abs(summed.w - scipy.linalg.block_diag(l1.w, l2.w)).max() <= 1e-15
