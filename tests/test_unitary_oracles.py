"""The numpy routines for unitaries and exponentials against oracles.

``lagrangian._eigenbasis`` is checked against scipy's complex Schur form
and against ``reference_joint_phase_decomposition``, the former
decomposition of a symmetric unitary (the eigenbasis of Re w, turned within
each cluster of its eigenvalues to diagonalise Im w); ``paths._expm``
against ``scipy.linalg.expm``.  scipy is a test dependency only.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from maslov.errors import IllConditioned
from maslov.lagrangian import _eigenbasis, _widest_gap, souriau_w
from maslov.paths import _expm
from maslov.random_gen import (
    random_algebra_element,
    random_frame,
    random_frame_intersecting,
    random_unitary,
)
from maslov.symplectic import omega_matrix


def reference_joint_phase_decomposition(w):
    """Real orthogonal O and phases phi with w = O diag(e^{i phi}) O^T, in
    ascending cos phi, then ascending sin phi."""
    A, B = w.real, w.imag
    avals, O = np.linalg.eigh((A + A.T) / 2)
    n = w.shape[0]
    O = O.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and avals[stop] - avals[stop - 1] <= 1e-7:
            stop += 1
        if stop - start > 1:
            block = O[:, start:stop]
            _, Q = np.linalg.eigh(block.T @ ((B + B.T) / 2) @ block)
            O[:, start:stop] = block @ Q
        start = stop
    a = np.einsum("ij,ij->j", O, A @ O)
    b = np.einsum("ij,ij->j", O, B @ O)
    return O, np.arctan2(b, a)


def on_circle(phases, cut):
    """The phases as points of the circle cut open at ``cut``, sorted."""
    return np.sort(np.mod(np.asarray(phases) - cut, 2 * math.pi))


def assert_same_phases(got, expected, tol=1e-12):
    cut = _widest_gap(np.asarray(expected))
    assert np.abs(on_circle(got, cut) - on_circle(expected, cut)).max() <= tol


def symmetric_unitary(rng, phases):
    """O diag(e^{i phases}) O^T for a random real orthogonal O."""
    O, _ = np.linalg.qr(rng.standard_normal((len(phases),) * 2))
    return (O * np.exp(1j * np.asarray(phases))) @ O.T


@pytest.mark.parametrize("n", range(1, 9))
def test_eigenbasis_matches_the_former_decomposition(n, rng):
    for j in range(25):
        f = random_frame(rng, n)
        if j % 2:
            f = random_frame_intersecting(rng, f, int(rng.integers(0, n + 1)))
        w = souriau_w(f)
        O_ref, ref = reference_joint_phase_decomposition(w)
        O, phases = _eigenbasis(w, real=True)
        assert O.dtype == float
        assert np.abs(O.T @ O - np.eye(n)).max() <= 1e-13
        # the same order, phases and columns (up to sign)
        assert np.abs(np.angle(np.exp(1j * (phases - ref)))).max() <= 1e-13
        dist = np.minimum(np.abs(O - O_ref).max(axis=0), np.abs(O + O_ref).max(axis=0))
        assert dist.max() <= 1e-9


@pytest.mark.parametrize("n", range(1, 9))
def test_eigenbasis_phases_match_schur(n, rng):
    for _ in range(10):
        for v, real in ((random_unitary(rng, n), False), (souriau_w(random_frame(rng, n)), True)):
            T, _ = scipy.linalg.schur(v, output="complex")
            V, phases = _eigenbasis(v, real=real)
            assert np.all((-math.pi < phases) & (phases <= math.pi))
            assert_same_phases(phases, np.angle(np.diag(T)))
            assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-13
            assert np.abs((V * np.exp(1j * phases)) @ V.conj().T - v).max() <= 1e-13


SPECIAL_PHASES = {
    "identity": [0.0] * 3,
    "minus-identity": [math.pi] * 3,
    "repeated": [0.3, 0.3, -0.3, -0.3],
    "repeated-with-simple": [1.0, 1.0, 1.0, -2.0],
    "at-pi": [math.pi, 0.5, -1.0],
    "both-sides-of-pi": [math.pi - 1e-9, -math.pi + 1e-9, 0.0],
    "n1-at-pi": [math.pi],
    "n1": [-2.5],
    "n8-spread": list(np.linspace(-math.pi, math.pi, 8, endpoint=False)),
}


@pytest.mark.parametrize("case", SPECIAL_PHASES)
def test_eigenbasis_special_phases(case, rng):
    expected = np.array(SPECIAL_PHASES[case])
    for w in (np.diag(np.exp(1j * expected)), symmetric_unitary(rng, expected)):
        O, phases = _eigenbasis(w, real=True)
        assert O.dtype == float
        assert_same_phases(phases, expected)
        O_ref, ref = reference_joint_phase_decomposition(w)
        assert_same_phases(ref, expected)
        # within a repeated phase only the eigenspace is fixed: compare the
        # projector onto it
        for p in np.unique(expected):
            near = lambda ph: np.abs(np.exp(1j * ph) - np.exp(1j * p)) <= 1e-6
            mine, theirs = O[:, near(phases)], O_ref[:, near(ref)]
            assert np.abs(mine @ mine.T - theirs @ theirs.T).max() <= 1e-12
        assert np.abs((O * np.exp(1j * phases)) @ O.T - w).max() <= 1e-13


def test_eigenbasis_refuses_what_it_cannot_rebuild():
    with pytest.raises(IllConditioned, match="does not rebuild"):
        _eigenbasis(np.array([[2.0 + 0j]]))


@pytest.mark.parametrize("n", range(1, 9))
def test_expm_matches_scipy(n, rng):
    ts = np.linspace(0.0, 1.0, 17)
    for _ in range(10):
        A = ts[:, None, None] * random_algebra_element(rng, n)
        got, want = _expm(A), scipy.linalg.expm(A)
        err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert err.max() <= 1e-13
    assert np.array_equal(_expm(np.zeros((1, 2 * n, 2 * n))), np.eye(2 * n)[None])


def test_expm_squares_back_long_rotations():
    # exp(tJ) = cos t I + sin t J; t = 50 is scaled by 2^-8 and squared 8 times
    J = omega_matrix(3)
    ts = np.array([0.0, 0.1, 1.0, 3.0, 10.0, 50.0])
    want = np.cos(ts)[:, None, None] * np.eye(6) + np.sin(ts)[:, None, None] * J
    assert np.abs(_expm(ts[:, None, None] * J) - want).max() <= 1e-13
