"""Points of the universal cover of the Lagrangian Grassmannian as pairs
(w, theta) with det w = e^{i theta}, and the canonical index mu_bar on
arbitrary pairs by Souriau's trace-log formula

    mu_bar = (theta1 - theta2 - sum' arg(-lambda_j)) / pi

over the eigenvalues lambda_j of the unitary w1 conj(w2) = w1 w2^{-1} away
from 1; the eigenvalues at 1 are the dim(ell1 /\\ ell2) intersection
directions.  Guard: k = corank(w1 - w2) by ``lagrangian.corank``,
and exactly k eigenvalues within that rule's threshold of 1.  The singular
values of w1 - w2 are the |lambda_j - 1|, so the rule's ambiguity band keeps
every other eigenvalue off the branch cut of arg(-lambda).  On transversal
pairs mu_bar = 2m - n for Souriau's integer m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import TOL_PHASE, TOL_RANK_BASE, TOL_ROUND
from .errors import BadInput, IllConditioned
from .lagrangian import (
    LagrangianFrame,
    SouriauMatrix,
    _scalar_frame,
    companion_phase,
    corank,
    souriau_w,
)


@dataclass(frozen=True)
class LagrangianLift:
    """A cover point (w, theta); theta is an unreduced argument of det w.

    theta is checked by |det w - e^{i theta}| <= max(TOL_PHASE, n * w.tol),
    which w's own validation implies: for E = w w^H - I, validated at
    ||E||_max <= w.tol, to first order | |det w| - 1 | = |tr E| / 2 <= n w.tol / 2,
    and the bound keeps the factor 2 that souriau_w keeps over its first-order
    bound.  It is never narrower than TOL_PHASE, the former fixed bound."""

    w: SouriauMatrix
    theta: float

    def __post_init__(self):
        det = np.linalg.det(self.w.w)
        if not abs(det - np.exp(1j * self.theta)) <= max(TOL_PHASE, self.w.n * self.w.tol):
            raise BadInput("theta is not an argument of det w within tolerance")

    @property
    def n(self) -> int:
        return self.w.n


@dataclass(frozen=True)
class DeckAction:
    """Power of the generator of the fundamental group; acts by theta += 2k pi."""

    k: int


def lift_of(ell: LagrangianFrame, k: int = 0) -> LagrangianLift:
    """The lift (w, arg det w + 2k pi) with the principal argument in (-pi, pi]."""
    w = souriau_w(ell)
    theta0 = float(np.angle(np.linalg.det(w.w)))
    return LagrangianLift(w, theta0 + 2 * math.pi * k)


def deck_apply(g: DeckAction, lift: LagrangianLift) -> LagrangianLift:
    return LagrangianLift(lift.w, lift.theta + 2 * math.pi * g.k)


def _pair_corank(
    l1: LagrangianLift, l2: LagrangianLift, tol_rank: float
) -> tuple[int, float]:
    """dim(ell1 /\\ ell2) as the corank of w1 - w2, and the threshold used."""
    if l1.n != l2.n:
        raise BadInput("lifts live in different dimensions")
    return corank(l1.w.w - l2.w.w, tol_rank, "w-difference corank")


def mu_bar(
    l1: LagrangianLift,
    l2: LagrangianLift,
    tol_round: float = TOL_ROUND,
    tol_rank: float = TOL_RANK_BASE,
) -> int:
    """The canonical index, total on pairs of cover points, by the closed
    form above.  Raises IllConditioned on an ambiguous corank (at tol_rank),
    on a count of eigenvalues at 1 other than the corank, and on a value
    farther than tol_round from an integer."""
    k, t = _pair_corank(l1, l2, tol_rank)
    lam = np.linalg.eigvals(l1.w.w @ l2.w.w.conj())
    at_one = np.abs(lam - 1) <= t
    if np.count_nonzero(at_one) != k:
        raise IllConditioned(
            f"{np.count_nonzero(at_one)} eigenvalues within {t:g} of 1 "
            f"but intersection dimension {k}"
        )
    phases = np.angle(-lam[~at_one])
    value = (l1.theta - l2.theta - float(phases.sum())) / math.pi
    mu = round(value)
    if abs(value - mu) > tol_round:
        raise IllConditioned(
            f"index residual {abs(value - mu):.3g} exceeds tol_round; "
            "the pair is nearly non-transversal"
        )
    return int(mu)


def souriau_m(
    l1: LagrangianLift,
    l2: LagrangianLift,
    tol_round: float = TOL_ROUND,
) -> int:
    """The integer m = (mu_bar + n) / 2 on transversal pairs."""
    if _pair_corank(l1, l2, TOL_RANK_BASE)[0] != 0:
        raise BadInput("m requires transversal projections")
    return (mu_bar(l1, l2, tol_round) + l1.n) // 2


def companion_lift(ell1: LagrangianFrame, ell2: LagrangianFrame) -> LagrangianLift:
    """Canonical companion: w3 = e^{i theta} I lifted with theta3 = n * theta."""
    theta = companion_phase(ell1, ell2)
    n = ell1.n
    ell3 = _scalar_frame(theta, n)
    return LagrangianLift(souriau_w(ell3), n * theta)
