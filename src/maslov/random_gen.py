"""Seeded random instances used by the verification suite and the tests.

Symplectic matrices are generated as
embed(random unitary) . [[I, 0], [A, I]] . [[L, 0], [0, L^-T]]
with A random symmetric and L random invertible, which spans the group and
is exactly symplectic up to rounding.
"""

from __future__ import annotations

import numpy as np

from .lagrangian import (
    LagrangianFrame,
    _eigenbasis,
    frame_from_unitary,
    frame_from_w,
    souriau_w,
    transport_frames,
)
from .leray import LagrangianLift, lift_of
from .paths import (
    LagrangianPath,
    SymplecticPath,
    _mapped,
    path_from_unitary_family,
    symplectic_path_from_algebra,
)
from .symplectic import SymplecticMatrix, embed_unitary, omega_matrix


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((n, n)) * scale
    return (A + A.T) / 2


def random_symplectic(
    rng: np.random.Generator, n: int, max_cond: float = 50.0
) -> SymplecticMatrix:
    """Random symplectic matrix with bounded conditioning.

    Badly conditioned transports squeeze a full turn of the determinant
    phase of a transported Lagrangian path into a window narrower than any
    reasonable sample spacing, so test instances keep cond(S) moderate and
    transported paths are sampled proportionally to it (see
    ``transported_path``).
    """
    while True:
        u = random_unitary(rng, n)
        U = embed_unitary(u).entries
        A = random_symmetric(rng, n)
        shear = np.block([[np.eye(n), np.zeros((n, n))], [A, np.eye(n)]])
        L = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
        if abs(np.linalg.det(L)) < 1e-3:
            continue
        diag = np.block(
            [[L, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(L).T]]
        )
        S = U @ shear @ diag
        if np.linalg.cond(S) <= max_cond:
            return SymplecticMatrix(S)


def random_frame(rng: np.random.Generator, n: int) -> LagrangianFrame:
    return frame_from_unitary(random_unitary(rng, n))


def random_lift(rng: np.random.Generator, n: int, kmax: int = 3) -> LagrangianLift:
    return lift_of(random_frame(rng, n), int(rng.integers(-kmax, kmax + 1)))


def random_frame_intersecting(
    rng: np.random.Generator, ell: LagrangianFrame, k: int
) -> LagrangianFrame:
    """A random plane whose intersection with ell has dimension exactly k.

    Shares k eigenphases (with eigenvectors) of the symmetric-unitary
    matrix of ell and redraws the remaining ones away from the kept set.
    """
    n = ell.n
    if not 0 <= k <= n:
        raise ValueError("intersection dimension out of range")
    O, phases = _eigenbasis(souriau_w(ell), real=True)
    keep = rng.permutation(n)[:k]
    new = phases.copy()
    for j in range(n):
        if j in keep:
            continue
        cand = rng.uniform(-np.pi, np.pi)
        while np.min(np.abs(np.angle(np.exp(1j * (cand - phases))))) < 0.2:
            cand = rng.uniform(-np.pi, np.pi)
        new[j] = cand
    return frame_from_w((O * np.exp(1j * new)) @ O.T)


def random_lagrangian_path(
    rng: np.random.Generator, n: int, scale: float = 1.5, samples: int = 17
) -> LagrangianPath:
    """Smooth generator-backed path u0 exp(itH) X* with H Hermitian."""
    u0 = random_unitary(rng, n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (z + z.conj().T) / 2 * scale
    vals, vecs = np.linalg.eigh(H)

    def u(ts: np.ndarray) -> np.ndarray:
        return u0 @ (vecs * np.exp(1j * ts[:, None, None] * vals)) @ vecs.conj().T

    return path_from_unitary_family(u, samples)


def random_algebra_element(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Z = M_omega S with S symmetric, normalized so ||Z|| stays moderate
    (keeps exp(tZ) well conditioned along the whole path)."""
    S = random_symmetric(rng, 2 * n, scale)
    Z = omega_matrix(n) @ S
    top = float(np.linalg.norm(Z, 2))
    if top > 2.5:
        Z *= 2.5 / top
    return Z


def transported_path(S: SymplecticMatrix, lam: LagrangianPath) -> LagrangianPath:
    """The path t -> S . lam(t), resampled densely enough for cond(S).

    A stretch of condition number kappa can compress the determinant-phase
    motion of the image path into a t-window of width ~ 1/kappa, so the
    base grid is chosen proportional to kappa before adaptive bisection
    takes over.
    """
    grid = lam
    gen = _mapped(lambda out: transport_frames(S.entries, *out), lam.generator)
    if gen is not None:
        kappa = float(np.linalg.cond(S.entries))
        samples = max(len(lam.times), min(4097, 2 * int(4 * kappa) + 1))
        ts = np.linspace(0.0, 1.0, samples)
        frames, tol = lam.generator(ts)
        grid = LagrangianPath(tuple(ts), frames, None, tol)
    frames, tol = transport_frames(S.entries, grid.frames, grid.tol)
    return LagrangianPath(grid.times, frames, gen, tol)


def random_symplectic_path(
    rng: np.random.Generator,
    n: int,
    start: np.ndarray | None = None,
    scale: float = 1.0,
    samples: int = 17,
) -> SymplecticPath:
    Z = random_algebra_element(rng, n, scale)
    return symplectic_path_from_algebra(Z, start=start, samples=samples)
