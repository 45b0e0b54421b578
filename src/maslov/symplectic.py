"""The symplectic vector space (X x X*, omega) and the group Sp(n).

Conventions (used by every other module):

* a vector of X x X* is a plain 1-d array (x-block, p-block), and a
  unitary a plain complex matrix: neither needs a class, and ``omega`` and
  ``embed_unitary`` check each where they read it;
* the form is omega(z, z') = <p, x'> - <p', x>, with matrix
  M_omega = [[0, -I], [I, 0]] in that block order;
* the unitary group U(n) sits inside Sp(n) via u = A + iB -> [[A, -B], [B, A]].

Direct sums interleave blocks so that (s' (+) s'') acts on the x-blocks and
p-blocks of the two factors independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import TOL_SYM, TOL_SYMPLECTIC
from .errors import BadInput, numeric_array


# bounded (32 n^2 bytes each) and typed as lagrangian.coordinate_x
@lru_cache(maxsize=8, typed=True)
def omega_matrix(n: int) -> np.ndarray:
    """Matrix of the symplectic form in (x, p) block order, built once per n
    and read-only."""
    M = np.eye(2 * n, k=-n) - np.eye(2 * n, k=n)
    M.setflags(write=False)
    return M


def omega(z: np.ndarray, zp: np.ndarray) -> float:
    """omega(z, z') = p . x' - p' . x (= z^T M z', M unbuilt) for two vectors
    (x, p), read by the array intake rule, of one even, non-zero length."""
    z = numeric_array(z, "vector")
    zp = numeric_array(zp, "vector")
    if z.ndim != 1 or z.shape != zp.shape or z.size % 2 or z.size == 0:
        raise BadInput("omega needs two vectors (x, p) of one even, non-zero length")
    n = z.size // 2
    return float(z[n:] @ zp[:n] - zp[n:] @ z[:n])


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


def embed_unitary(u: np.ndarray) -> SymplecticMatrix:
    """The block matrix [[A, -B], [B, A]] of the U(n) action, for a complex
    unitary u = A + iB read by the array intake rule."""
    u = numeric_array(u, "unitary", complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
        raise BadInput("a unitary must be a non-empty square matrix")
    # u is unitary iff the frame of the plane u X* is a Lagrangian frame;
    # imported here because lagrangian imports this module
    from .lagrangian import check_frames, unitary_frames

    check_frames(unitary_frames(u), TOL_SYM)
    return SymplecticMatrix(np.block([[u.real, -u.imag], [u.imag, u.real]]))


def direct_sum_symplectic(S1: SymplecticMatrix, S2: SymplecticMatrix) -> SymplecticMatrix:
    """Block-interleaved direct sum acting on the two factors independently:
    its x and p column blocks are the direct sums of the factors' x and p
    column blocks, in the layout of ``lagrangian.direct_sum_frames``."""
    # imported here because lagrangian imports this module
    from .lagrangian import direct_sum_frames

    A, B = S1.entries, S2.entries
    n1, n2 = S1.n, S2.n
    return SymplecticMatrix(
        np.hstack(
            (direct_sum_frames(A[:, :n1], B[:, :n2]), direct_sum_frames(A[:, n1:], B[:, n2:]))
        )
    )
