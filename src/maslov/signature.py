"""The Kashiwara-Demazure signature of a Lagrangian triple, the inertia
index on pairwise-transversal triples, and a generic coboundary evaluator.

tau(l1, l2, l3) is the signature of the quadratic form

    Q(z1, z2, z3) = omega(z1, z2) + omega(z2, z3) + omega(z3, z1)

restricted to l1 x l2 x l3.  In frame coordinates Q is assembled as a
3n x 3n symmetric Gram matrix with zero diagonal blocks and off-diagonal
blocks F_i^T M F_j / 2 following the cyclic pattern above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .defaults import AMBIGUITY_DECADE, TOL_RANK_BASE, TOL_SIG_BASE
from .errors import BadInput, IllConditioned
from .lagrangian import LagrangianFrame, intersection_dim
from .symplectic import omega_matrix


@dataclass(frozen=True)
class TripleSignature:
    """Eigenvalue sign counts of the triple form; tau = positives - negatives."""

    tau: int
    positive_count: int
    negative_count: int
    null_count: int

    def __post_init__(self):
        if self.tau != self.positive_count - self.negative_count:
            raise BadInput("tau must equal positive_count - negative_count")


def triple_gram(
    ell1: LagrangianFrame, ell2: LagrangianFrame, ell3: LagrangianFrame
) -> np.ndarray:
    """Symmetrized 3n x 3n Gram matrix of the triple form."""
    n = ell1.n
    if ell2.n != n or ell3.n != n:
        raise BadInput("the three planes must share a dimension")
    M = omega_matrix(n)
    F = [ell1.frame, ell2.frame, ell3.frame]
    B = np.zeros((3 * n, 3 * n))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        B[i * n : (i + 1) * n, j * n : (j + 1) * n] = F[i].T @ M @ F[j]
    return (B + B.T) / 2


def sign_counts(vals: np.ndarray, tol_sig: float, what: str) -> tuple[int, int, int]:
    """Positive, negative and null counts of eigenvalues at the threshold
    t = tol_sig * max(1, largest |eigenvalue|); a magnitude in the ambiguity
    band (t, AMBIGUITY_DECADE * t) raises IllConditioned."""
    values = vals.tolist()  # at most 3n floats; a NaN fails every comparison
    mags = [abs(v) for v in values]
    # numpy's max, which any NaN makes NaN (and max(1.0, NaN) is 1.0)
    t = tol_sig * (1.0 if math.isnan(sum(mags)) else max(1.0, max(mags, default=0.0)))
    hi = t * AMBIGUITY_DECADE
    if any(t < m < hi for m in mags):
        raise IllConditioned(
            f"eigenvalue inside the ambiguity band around tol={t:g} in {what}; "
            "inputs are too close to a stratum change"
        )
    pos = sum(v > t for v in values)
    neg = sum(v < -t for v in values)
    return pos, neg, len(values) - pos - neg


def kashiwara_tau(
    ell1: LagrangianFrame,
    ell2: LagrangianFrame,
    ell3: LagrangianFrame,
    tol_sig: float = TOL_SIG_BASE,
) -> TripleSignature:
    """Signature of the triple form as exact integer sign counts."""
    vals = np.linalg.eigvalsh(triple_gram(ell1, ell2, ell3))
    pos, neg, null = sign_counts(vals, tol_sig, "the triple form")
    return TripleSignature(pos - neg, pos, neg, null)


def inert_index(
    ell1: LagrangianFrame,
    ell2: LagrangianFrame,
    ell3: LagrangianFrame,
    tol_rank: float = TOL_RANK_BASE,
    tol_sig: float = TOL_SIG_BASE,
) -> int:
    """Index of inertia (tau + n) / 2; requires pairwise transversality."""
    for a, b in ((ell1, ell2), (ell2, ell3), (ell3, ell1)):
        if intersection_dim(a, b, tol_rank) != 0:
            raise BadInput("inertia index needs a pairwise-transversal triple")
    tau = kashiwara_tau(ell1, ell2, ell3, tol_sig).tau
    n = ell1.n
    if (tau + n) % 2 != 0:
        raise IllConditioned("tau + n is odd on a transversal triple")
    return (tau + n) // 2


@dataclass(frozen=True)
class Cochain:
    """An integer-valued k-cochain: a function of (k+1)-tuples of points."""

    arity: int
    evaluator: Callable[..., int]

    def __call__(self, *points) -> int:
        if len(points) != self.arity + 1:
            raise BadInput(
                f"cochain of arity {self.arity} takes {self.arity + 1} points"
            )
        return int(self.evaluator(*points))


def coboundary(f: Cochain, points: Sequence) -> int:
    """Alternating sum over deletions: sum_j (-1)^j f(points \\ j)."""
    if len(points) != f.arity + 2:
        raise BadInput(
            f"coboundary of an arity-{f.arity} cochain takes {f.arity + 2} points"
        )
    total = 0
    for j in range(len(points)):
        rest = tuple(points[i] for i in range(len(points)) if i != j)
        total += (-1) ** j * f(*rest)
    return total
