"""Indices expressed through the canonical ones: spectral flow of a
symmetric family, graph paths, the half-integer Robbin-Salamon index, the
Hormander index of a quadruple, and direct sums of cover points.

``SymmetricFamily.linear`` samples its family on the certified grid of its
graph and shear paths (``paths.certified_count``); ``from_function``
samples a caller's function with no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import TOL_ROUND, TOL_SIG_BASE
from .errors import BadInput, IllConditioned, numeric_array
from .lagrangian import (
    LagrangianFrame,
    coordinate_x,
    direct_sum_frame,
    graph_frames,
    is_symmetric,
)
from .leray import LagrangianLift
from .paths import (
    LagrangianPath,
    SymplecticPath,
    _ky_fan,
    _sampled,
    certified_count,
    mu_lagrangian,
    sample_count,
)
from .signature import kashiwara_tau, sign_counts


@dataclass(frozen=True, eq=False)
class SymmetricFamily:
    """Samples of a family t -> A(t) of real symmetric matrices on [0, 1]:
    ``matrices`` is one read-only (N, n, n) stack, each matrix checked by
    the relative ``is_symmetric`` rule."""

    times: tuple
    matrices: np.ndarray

    def __post_init__(self):
        if not is_symmetric(_sampled(self, "matrices", "(N, n, n)", lambda r, c: r == c)):
            raise BadInput("family matrix is not symmetric")

    @property
    def n(self) -> int:
        return self.matrices.shape[-1]

    @classmethod
    def from_function(cls, fn, samples: int = 33) -> "SymmetricFamily":
        """The family sampled at ``samples`` (``paths.sample_count``) equally
        spaced times by one call of fn, ts -> (len(ts), n, n); no grid is
        certified."""
        ts = np.linspace(0.0, 1.0, sample_count(samples))
        return cls(tuple(ts), fn(ts))

    @classmethod
    def linear(cls, A0, A1, samples: int = 33) -> "SymmetricFamily":
        """The family (1 - t) A0 + t A1, both ends checked by the family's
        rule, on the certified grid of at least ``samples`` times of its
        graph and shear paths.

        Grid rule.  Along the graph path theta(t) = sum_k (2 arctan
        lambda_k(t) - pi) (``graph_phase_change``); arctan is 1-Lipschitz,
        and by Lidskii's inequality sum_k |lambda_k(t + h) - lambda_k(t)| <=
        ||A(t + h) - A(t)||_* = h ||A1 - A0||_*, the nuclear norm.  So a step
        moves theta by at most 2 h ||A1 - A0||_*.  The shear [[I, 0], [A(t),
        I]] moves any plane with the Hamiltonian H = [[A', 0], [0, 0]] (see
        ``paths.symplectic_path_from_algebra``), and tr(F^T H F) =
        tr(X^T A' X) is at most ||A'||_* in modulus for the X block of an
        orthonormal frame, ||X||_2 <= 1: the same bound.  The speed is
        2 ||A1 - A0||_* (``paths.certified_count``)."""
        A0 = numeric_array(A0, "family endpoint")
        A1 = numeric_array(A1, "family endpoint")
        if A0.shape != A1.shape:
            raise BadInput("family endpoints must share a shape")
        n = cls((0.0, 1.0), np.stack((A0, A1))).n
        ts = np.linspace(0.0, 1.0, certified_count(samples, 2 * _ky_fan(A1 - A0, n), n))
        t = ts[:, None, None]
        return cls(tuple(ts), (1 - t) * A0 + t * A1)


def polynomial_values(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The symmetrised (len(ts), n, n) stack of sum_k coeffs[k] t^k, t**k by
    Python's scalar power (numpy's vectorised one can differ in the last bit).
    Each half is taken before the sum, so a finite A(t) stays finite."""
    powers = np.array([[t**k for t in ts.tolist()] for k in range(len(coeffs))])
    out = np.zeros((len(ts),) + coeffs.shape[1:])
    for c, tk in zip(coeffs, powers):
        out += c * tk[:, None, None]
    return out / 2 + out.swapaxes(-1, -2) / 2


@dataclass(frozen=True)
class HalfInteger:
    """Exact half-integer stored as twice its value."""

    twice_value: int

    @property
    def value(self) -> float:
        return self.twice_value / 2

    def __repr__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def matrix_signature(A: np.ndarray, tol_sig: float = TOL_SIG_BASE) -> int:
    """sign A via eigenvalue sign counts; errors near singularity."""
    vals = np.linalg.eigvalsh(numeric_array(A, "matrix"))
    pos, neg, null = sign_counts(vals, tol_sig, "a matrix signature")
    if null:
        raise IllConditioned("matrix is singular or near-singular for signature")
    return pos - neg


def spectral_flow(family: SymmetricFamily, tol_sig: float = TOL_SIG_BASE) -> int:
    """sign A(1) - sign A(0); endpoints must be nonsingular."""
    return matrix_signature(family.matrices[-1], tol_sig) - matrix_signature(
        family.matrices[0], tol_sig
    )


def graph_phase_change(ends: np.ndarray) -> float:
    """The change of arg det w along the graph path of any continuous family
    of symmetric matrices from ends[0] to ends[1] (a (2, n, n) stack):

        2 sum_k (arctan lambda_k(ends[1]) - arctan lambda_k(ends[0])).

    Arnold's det^2 formula read on graphs: the w of the graph of A has the
    eigenvalues ((lambda - i) / |lambda - i|)^2, so sum_k (2 arctan
    lambda_k(t) - pi) is a continuous argument of det w(t).  The eigenvalues
    move continuously and the summand has no branch cut on the real line,
    so only the ends matter (two ``eigvalsh`` calls in one batch)."""
    angles = np.arctan(np.linalg.eigvalsh(ends))
    return 2 * float((angles[1] - angles[0]).sum())


def graph_path(family: SymmetricFamily) -> LagrangianPath:
    """The path of graph planes t -> {(x, A(t) x)} on the family's grid; the
    family checked that each A(t) is symmetric, and the path validates the
    frames in one batch."""
    return LagrangianPath(family.times, graph_frames(family.matrices))


def shear_path(family: SymmetricFamily) -> SymplecticPath:
    """The symplectic path t -> [[I, 0], [A(t), I]] on the family's grid."""
    return SymplecticPath(family.times, _shear(family.matrices))


def _shear(A: np.ndarray) -> np.ndarray:
    """[[I, 0], [A, I]] for an n x n matrix A or each of an (N, n, n) stack."""
    n = A.shape[-1]
    S = np.zeros(A.shape[:-2] + (2 * n, 2 * n))
    S[..., :n, :n] = S[..., n:, n:] = np.eye(n)
    S[..., n:, :n] = A
    return S


def robbin_salamon(
    lam: LagrangianPath, ell: LagrangianFrame, tol_round: float = TOL_ROUND
) -> HalfInteger:
    """Half the canonical Lagrangian intersection index."""
    return HalfInteger(mu_lagrangian(lam, ell, tol_round))


def hormander_xi(
    ell1: LagrangianFrame,
    ell2: LagrangianFrame,
    ell3: LagrangianFrame,
    ell4: LagrangianFrame,
    tol_sig: float = TOL_SIG_BASE,
) -> HalfInteger:
    """Half-difference of two triple signatures over a quadruple of planes."""
    t3 = kashiwara_tau(ell1, ell2, ell3, tol_sig).tau
    t4 = kashiwara_tau(ell1, ell2, ell4, tol_sig).tau
    return HalfInteger(t3 - t4)


def direct_sum_lift(l1: LagrangianLift, l2: LagrangianLift) -> LagrangianLift:
    """(ell' (+) ell'', theta' + theta''), whose w is w' (+) w''."""
    return LagrangianLift(direct_sum_frame(l1.frame, l2.frame), l1.theta + l2.theta)


def spectral_flow_path_index(family: SymmetricFamily) -> int:
    """The graph-path index against X; agrees with the endpoint signature
    difference for families with nonsingular endpoints."""
    return mu_lagrangian(graph_path(family), coordinate_x(family.n))
