"""Seeded random instances used by the verification suite and the tests.

Symplectic matrices are generated as
embed(random unitary) . [[I, 0], [A, I]] . [[L, 0], [0, L^-T]]
with A random symmetric and L random invertible, which spans the group and
is exactly symplectic up to rounding.

Random paths are built on certified grids (``paths.certified_count``): a
random Lagrangian path is a unitary family u0 exp(itH), drawn as its pair
(u0, H) by ``random_unitary_family`` so that checks can evaluate it at
times of their own (``paths.unitary_family``) and transport it
(``transported_path``), and a random symplectic path is an algebra path.
"""

from __future__ import annotations

import numpy as np

from .defaults import TOL_SYM
from .lagrangian import (
    LagrangianFrame,
    _eigenbasis,
    frame_from_unitary,
    frame_from_w,
    souriau_w,
    transport_frames,
    unitary_frames,
)
from .leray import LagrangianLift, lift_of
from .paths import (
    LagrangianPath,
    SymplecticPath,
    certified_count,
    symplectic_path_from_algebra,
    unitary_family,
    unitary_path,
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


def random_unitary_family(
    rng: np.random.Generator, n: int, scale: float = 1.5
) -> tuple[np.ndarray, np.ndarray]:
    """(u0, H): a random unitary u0 and a random Hermitian H, the family
    t -> u0 exp(itH) of ``random_lagrangian_path``."""
    u0 = random_unitary(rng, n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return u0, (z + z.conj().T) / 2 * scale


def random_lagrangian_path(
    rng: np.random.Generator, n: int, scale: float = 1.5, samples: int = 17
) -> LagrangianPath:
    """The smooth path u0 exp(itH) X* of a ``random_unitary_family``, on its
    certified grid of at least ``samples`` times."""
    return unitary_path(*random_unitary_family(rng, n, scale), samples)


def random_algebra_element(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Z = M_omega S with S symmetric, normalized so ||Z|| stays moderate
    (keeps exp(tZ) well conditioned along the whole path)."""
    S = random_symmetric(rng, 2 * n, scale)
    Z = omega_matrix(n) @ S
    top = float(np.linalg.norm(Z, 2))
    if top > 2.5:
        Z *= 2.5 / top
    return Z


def transported_path(
    S: SymplecticMatrix, u0: np.ndarray, H: np.ndarray, samples: int = 17
) -> LagrangianPath:
    """The path t -> S u0 exp(itH) X* on a certified grid of at least
    ``samples`` times.

    Grid rule.  u0 exp(itH) X* = e^{tE} ell0 for the unitary one-parameter
    group of u0 H u0^H, ||E||_2 = ||H||_2, so the image is e^{tY} S ell0
    with Y = S E S^-1 and ||Y||_2 <= cond_2(S) ||H||_2 at every t.  By the
    algebra-path rule (``paths.symplectic_path_from_algebra``) a step of
    size h moves arg det w by at most 2 n h cond_2(S) ||H||_2."""
    n = len(u0)
    speed = 2 * n * np.linalg.cond(S.entries) * np.abs(np.linalg.eigvalsh(H)).max()
    ts = np.linspace(0.0, 1.0, certified_count(samples, speed, n))
    frames = unitary_frames(unitary_family(u0, H, ts))
    frames, tol = transport_frames(S.entries, frames, TOL_SYM)
    return LagrangianPath(tuple(ts), frames, tol)


def random_symplectic_path(
    rng: np.random.Generator,
    n: int,
    start: np.ndarray | None = None,
    scale: float = 1.0,
    samples: int = 17,
) -> SymplecticPath:
    Z = random_algebra_element(rng, n, scale)
    return symplectic_path_from_algebra(Z, start=start, samples=samples)
