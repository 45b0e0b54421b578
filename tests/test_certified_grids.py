"""The certified grids of the library's path constructors
(``paths.certified_count``).  On seeded draws in dimensions 1 to 5, every
computed phase step stays within its bound plus the rounding slack
``paths.phase_slack``, below pi/2; the bound is at least the
finite-difference speed of arg det w along the path; and the lift equals
the lift on a grid refined fourfold.  Also the phase-speed identity the
algebra-path rule rests on, checked by finite differences, and the loop
that bisection once read as 0."""

import math

import numpy as np
import pytest

from maslov import (
    SymmetricFamily,
    Undersampled,
    graph_path,
    induced_path,
    keller_maslov,
    lift_path,
    path_joining,
    rotation_path,
    shear_path,
    symplectic_path_from_algebra,
    unitary_path,
)
from maslov import paths
from maslov.lagrangian import det_phase, frame_unitary, transport_frames
from maslov.paths import _expm
from maslov.random_gen import (
    random_algebra_element,
    random_frame,
    random_symmetric,
    random_symplectic,
    random_unitary_family,
    transported_path,
)
from maslov.symplectic import omega_matrix


def _ky_fan(Y, k):
    return np.linalg.svd(Y, compute_uv=False)[:k].sum()


def _unitary(rng, n, samples):
    u0, H = random_unitary_family(rng, n)
    return unitary_path(u0, H, samples), 2 * abs(np.trace(H).real)


def _rotation(rng, n, samples):
    sweep = rng.uniform(-20.0, 20.0)
    return rotation_path(n, 0.3, 0.3 + sweep, samples), 2 * abs(sweep)


def _joining(rng, n, samples):
    fa, fb = random_frame(rng, n), random_frame(rng, n)
    phases = np.angle(np.linalg.eigvals(frame_unitary(fa).conj().T @ frame_unitary(fb)))
    return path_joining(fa, fb, samples), 2 * abs(phases.sum())


def _linear_family(rng, n, samples):
    A0, A1 = random_symmetric(rng, n, 3.0), random_symmetric(rng, n, 3.0)
    return SymmetricFamily.linear(A0, A1, samples), 2 * np.linalg.norm(A1 - A0, "nuc")


def _graph(rng, n, samples):
    family, speed = _linear_family(rng, n, samples)
    return graph_path(family), speed


def _shear(rng, n, samples):
    family, speed = _linear_family(rng, n, samples)
    return induced_path(shear_path(family), random_frame(rng, n)), speed


def _algebra(rng, n, samples):
    Z = random_algebra_element(rng, n)
    sig = symplectic_path_from_algebra(Z, samples=samples)
    return induced_path(sig, random_frame(rng, n)), 2 * _ky_fan(Z, n)


def _translated_algebra(rng, n, samples):
    Z = random_algebra_element(rng, n)
    S0 = random_symplectic(rng, n).entries
    sig = symplectic_path_from_algebra(Z, S0, samples)
    Y = S0 @ Z @ np.linalg.inv(S0)
    return induced_path(sig, random_frame(rng, n)), 2 * _ky_fan(Y, n)


def _transported(rng, n, samples):
    u0, H = random_unitary_family(rng, n)
    S = random_symplectic(rng, n)
    speed = 2 * n * np.linalg.cond(S.entries) * np.linalg.norm(H, 2)
    return transported_path(S, u0, H, samples), speed


#: each certified constructor: (rng, n, samples) -> (path, speed bound)
CONSTRUCTORS = {
    "unitary": _unitary,
    "rotation": _rotation,
    "joining": _joining,
    "graph": _graph,
    "shear": _shear,
    "algebra": _algebra,
    "translated-algebra": _translated_algebra,
    "transported": _transported,
}


def _build(kind, n, samples):
    rng = np.random.default_rng([n, sorted(CONSTRUCTORS).index(kind), 27])
    return CONSTRUCTORS[kind](rng, n, samples)


def _steps(lam):
    return paths._wrap(np.diff(det_phase(lam.frames)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_certified_grid(kind, n):
    # a minimum of 2 samples, so that the certified count sets the grid
    lam, speed = _build(kind, n, 2)
    count = len(lam.times)
    assert count == paths.certified_count(2, speed, n)
    slack = paths.phase_slack(n)
    bound = speed / (count - 1)
    assert bound + slack < paths.MAX_PHASE_STEP
    assert np.abs(_steps(lam)).max() <= bound + slack

    # the bound is at least the speed read off a dense grid
    dense, _ = _build(kind, n, 1025)
    assert np.abs(_steps(dense)).max() * (len(dense.times) - 1) <= speed * (1 + 1e-6)

    # the same lift on a grid refined fourfold, whose times include these
    fine, _ = _build(kind, n, 4 * (count - 1) + 1)
    assert len(fine.times) == 4 * (count - 1) + 1
    coarse, refined = lift_path(lam), lift_path(fine)
    assert coarse.start.theta == refined.start.theta
    assert abs(coarse.end.theta - refined.end.theta) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_phase_speed_is_twice_the_hamiltonian_trace(n):
    # along ell(t) = S0 exp(tZ) ell with orthonormal frame F(t),
    # d/dt arg det w = 2 tr(F^T H F) for H = -M S0 Z S0^-1, by central
    # differences; and |2 tr(F^T H F)| <= 2 ||H||_(n)
    rng = np.random.default_rng([n, 31])
    M = omega_matrix(n)
    for _ in range(4):
        Z = random_algebra_element(rng, n)
        S0 = random_symplectic(rng, n).entries
        ell = random_frame(rng, n)
        H = -M @ S0 @ Z @ np.linalg.inv(S0)
        assert np.abs(H - H.T).max() <= 1e-8 * np.abs(H).max()
        for t in rng.uniform(0.0, 1.0, 3):
            eps = 1e-6
            ts = np.array([t - eps, t, t + eps])
            frames, _ = transport_frames(S0 @ _expm(ts[:, None, None] * Z), ell.frame, ell.tol)
            theta = np.unwrap(det_phase(frames))
            speed = (theta[2] - theta[0]) / (2 * eps)
            F = frames[1]
            exact = 2 * np.trace(F.T @ H @ F)
            assert abs(speed - exact) <= 1e-6 * max(1.0, abs(exact))
            assert abs(exact) <= 2 * _ky_fan(H, n) * (1 + 1e-12)


def test_fast_unitary_loop_winds_its_full_count():
    # u(t) = e^{i pi K t} with K = 1024: seventeen equal samples alias it
    # to 0, and the certified grid of at least 17 samples reads 1024
    H = np.array([[math.pi * 1024]])
    loop = unitary_path(np.eye(1), H, 17)
    assert len(loop.times) == math.floor(2 * math.pi * 1024 / (math.pi / 2 - paths.phase_slack(1))) + 2
    assert keller_maslov(loop) == 1024


def test_grid_beyond_the_sample_cap_is_undersampled_before_allocation(monkeypatch):
    # K = 10**6 needs about 4 K samples; the count is refused before the
    # grid is made
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(Undersampled, match="MAX_SAMPLES"):
        unitary_path(np.eye(1), np.array([[math.pi * 10**6]]))
    with pytest.raises(Undersampled, match="MAX_SAMPLES"):
        SymmetricFamily.linear([[0.0]], [[1e7]])
    with pytest.raises(Undersampled, match="MAX_SAMPLES"):
        symplectic_path_from_algebra(1e7 * np.array([[0.0, -1.0], [1.0, 0.0]]))
