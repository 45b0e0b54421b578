"""The symplectic vector space (X x X*, omega) and the group Sp(n).

Conventions (used by every other module):

* vectors are ordered (x-block, p-block);
* the form is omega(z, z') = <p, x'> - <p', x>, with matrix
  M_omega = [[0, -I], [I, 0]] in that block order;
* the unitary group U(n) sits inside Sp(n) via u = A + iB -> [[A, -B], [B, A]].

Direct sums interleave blocks so that (s' (+) s'') acts on the x-blocks and
p-blocks of the two factors independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import TOL_SYM, TOL_SYMPLECTIC
from .errors import BadInput, numeric_array


def omega_matrix(n: int) -> np.ndarray:
    """Matrix of the symplectic form in (x, p) block order."""
    return np.eye(2 * n, k=-n) - np.eye(2 * n, k=n)


@dataclass(frozen=True, eq=False)
class SymplecticVector:
    """A vector z = (x, p) of X x X*."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(numeric_array(self.x, "position block"))
        p = np.atleast_1d(numeric_array(self.p, "momentum block"))
        if x.ndim != 1 or p.ndim != 1 or x.shape != p.shape:
            raise BadInput("position and momentum blocks must be equal-length vectors")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def omega(z: SymplecticVector, zp: SymplecticVector) -> float:
    """omega(z, z') = <p, x'> - <p', x>."""
    if z.n != zp.n:
        raise BadInput("dimension mismatch in omega")
    return float(z.p @ zp.x - zp.p @ z.x)


def is_symplectic(S: np.ndarray) -> bool:
    """The one symplecticity rule: ||S^T M S - M||_max <= TOL_SYMPLECTIC *
    max(1, ||S||_max^2), M the matrix of omega.  The bound scales with the
    entries because the rounding error of S^T M S does.

    S is one 2n x 2n matrix or an (N, 2n, 2n) stack, which is checked in one
    batch and passes iff every matrix of it does; a NaN entry fails."""
    S = numeric_array(S, "matrix")
    d = S.shape[-1] if S.ndim in (2, 3) else 0
    if d == 0 or d % 2 != 0 or S.shape[-2] != d:
        raise BadInput("expected a non-empty square matrix of even dimension")
    M = omega_matrix(d // 2)
    err = np.abs(np.swapaxes(S, -1, -2) @ M @ S - M).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(S).max(axis=(-2, -1)) ** 2)
    return bool(np.all(err <= TOL_SYMPLECTIC * scale))


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """A 2n x 2n real matrix validated by ``is_symplectic`` at construction."""

    entries: np.ndarray

    def __post_init__(self):
        S = numeric_array(self.entries, "matrix")
        if S.ndim != 2 or S.size == 0:
            raise BadInput("expected a non-empty square matrix of even dimension")
        if not is_symplectic(S):
            raise BadInput("matrix does not preserve the symplectic form")
        S = S.copy()
        S.setflags(write=False)
        object.__setattr__(self, "entries", S)

    @property
    def n(self) -> int:
        return self.entries.shape[0] // 2


@dataclass(frozen=True, eq=False)
class UnitaryEmbedding:
    """Real and imaginary parts (a, b) of a unitary matrix u = a + ib."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = numeric_array(self.a, "real part")
        b = numeric_array(self.b, "imaginary part")
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise BadInput(
                "real and imaginary parts must be non-empty equal-shape square matrices"
            )
        # u = a + ib is unitary iff the frame of the plane u X* is a
        # Lagrangian frame; imported here because lagrangian imports this module
        from .lagrangian import check_frames, unitary_frames

        check_frames(unitary_frames(a + 1j * b), TOL_SYM)
        a = a.copy()
        b = b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_complex(cls, u: np.ndarray) -> "UnitaryEmbedding":
        u = numeric_array(u, "unitary", complex)
        return cls(u.real, u.imag)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def embed_unitary(u: UnitaryEmbedding) -> SymplecticMatrix:
    """The block matrix [[A, -B], [B, A]] of the U(n) action."""
    S = np.block([[u.a, -u.b], [u.b, u.a]])
    return SymplecticMatrix(S)


def _interleave_indices(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    n = n1 + n2
    idx1 = np.concatenate([np.arange(n1), n + np.arange(n1)])
    idx2 = np.concatenate([n1 + np.arange(n2), n + n1 + np.arange(n2)])
    return idx1, idx2


def direct_sum_symplectic(S1: SymplecticMatrix, S2: SymplecticMatrix) -> SymplecticMatrix:
    """Block-interleaved direct sum acting on the two factors independently."""
    n1, n2 = S1.n, S2.n
    n = n1 + n2
    idx1, idx2 = _interleave_indices(n1, n2)
    T = np.zeros((2 * n, 2 * n))
    T[np.ix_(idx1, idx1)] = S1.entries
    T[np.ix_(idx2, idx2)] = S2.entries
    return SymplecticMatrix(T)
