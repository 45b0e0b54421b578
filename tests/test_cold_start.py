"""The compute path imports numpy and the compute core only: scipy, the
verification layer and the random generators load on first use."""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from maslov import direct_sum_lift
from maslov.random_gen import random_lift

DEFERRED = ("scipy", "maslov.verify", "maslov.random_gen")

# runs in a fresh interpreter after `import {module}`; prints one JSON line
PROBE = """
import json, sys
import numpy as np
import {module}
loaded = [m for m in {deferred!r} if m in sys.modules]
from maslov import (coordinate_x, coordinate_xstar, direct_sum_lift, lift_of,
                    omega_matrix, path_joining, symplectic_path_from_algebra)
from maslov.paths import same_plane
joined = path_joining(coordinate_xstar(2), coordinate_x(2))
sig = symplectic_path_from_algebra(omega_matrix(1), samples=5)
summed = direct_sum_lift(lift_of(coordinate_x(1), 1), lift_of(coordinate_xstar(2), 0))
print(json.dumps({{
    "loaded": loaded,
    "joined_end": same_plane(joined.end(), coordinate_x(2)),
    "rotation_end": float(np.abs(sig.end() - np.cos(1.0) * np.eye(2) - np.sin(1.0) * omega_matrix(1)).max()),
    "sum_n": summed.n,
    "sum_theta": summed.theta,
}}))
"""


@pytest.mark.parametrize("module", ["maslov.cli", "maslov"])
def test_import_leaves_scipy_out(module, src_env):
    code = PROBE.format(module=module, deferred=DEFERRED)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["loaded"] == [], f"import {module} loaded {probe['loaded']}"
    # the scipy users still run once called
    assert probe["joined_end"]
    assert probe["rotation_end"] < 1e-12
    assert probe["sum_n"] == 3
    assert probe["sum_theta"] == pytest.approx(3 * np.pi)


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
