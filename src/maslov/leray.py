"""Points of the universal cover of the Lagrangian Grassmannian as pairs
(frame, theta) with det w = e^{i theta} for w = souriau_w(frame), and the
canonical index mu_bar on arbitrary pairs by Souriau's trace-log formula

    mu_bar = (theta1 - theta2 - sum' arg(-lambda_j)) / pi

over the eigenvalues lambda_j of the unitary w1 conj(w2) = w1 w2^{-1} away
from 1; the eigenvalues at 1 are the dim(ell1 /\\ ell2) intersection
directions.  On transversal pairs mu_bar = 2m - n for Souriau's integer m.

The eigenvalues and the ones at 1 come from the one intersection rule,
``lagrangian._intersection``, which every dim(ell1 /\\ ell2) decision in
the package shares: a certificate from the eigenvalues, with no SVD, far
from the Maslov cycle, and otherwise the corank of w1 - w2 checked against
the count of eigenvalues at 1.  ``souriau_m`` reads transversality and
mu_bar from the same eigenvalues.

A cover point keeps its plane in the one validated form, the frame, and
reads w and det w from it: the frame computes each once and never
validates w again, so a plane lifted, moved by the deck action or compared
with other planes has one w and one det.  The theta rule ``check_theta``
reads the frame's det.

The deck group Z of the cover acts by theta -> theta + 2k pi
(``deck_apply``).  A sheet number k is a plain int, which ``lift_of`` and
``deck_apply`` read by one rule, ``_turns``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import TOL_PHASE, TOL_RANK_BASE, TOL_ROUND
from .errors import BadInput, IllConditioned, scalar
from .lagrangian import (
    LagrangianFrame, _intersection, _scalar_frame, companion_phase, unitarity_bound
)


@dataclass(frozen=True, eq=False)
class LagrangianLift:
    """A cover point (frame, theta); theta is an unreduced argument of det w.

    w is the frame's own, computed once per frame and not validated again:
    the frame's bound implies that it is unitary within
    B = max(10, 4n) * max(frame.tol, TOL_SYM) (see ``souriau_w``).  theta is
    checked by |det w - e^{i theta}| <= max(TOL_PHASE, n * B): for the
    frame's defect E, to first order | |det w| - 1 | = |tr E| <= n frame.tol,
    well inside.  It is never narrower than TOL_PHASE, the former fixed
    bound.  theta must pass the scalar intake rule ``errors.scalar``: a
    finite int or float, not a bool."""

    frame: LagrangianFrame
    theta: float

    def __post_init__(self):
        check_theta(self.frame, self.theta)

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def w(self) -> np.ndarray:
        return self.frame.w


def check_theta(ell: LagrangianFrame, theta) -> None:
    """The one theta rule (see ``LagrangianLift``), on the frame's det w:
    theta passes ``errors.scalar`` and |det w - e^{i theta}| <=
    max(TOL_PHASE, n * B); a NaN distance fails."""
    det_w = ell.det_w
    scalar(theta, "theta")
    if not abs(det_w - np.exp(1j * theta)) <= max(TOL_PHASE, unitarity_bound(ell.n, ell.tol)):
        raise BadInput("theta is not an argument of det w within tolerance")


def _lift(ell: LagrangianFrame, theta: float) -> LagrangianLift:
    """LagrangianLift(ell, theta), built without a second dataclass pass."""
    check_theta(ell, theta)
    lift = object.__new__(LagrangianLift)
    lift.__dict__.update(frame=ell, theta=theta)
    return lift


def _turns(k: int) -> float:
    """2 pi k for a sheet number k, read by the scalar intake rule as an int;
    a 2 pi k beyond the float range is BadInput."""
    try:
        turns = 2 * math.pi * scalar(k, "sheet number k", integer=True)
    except OverflowError:  # an int beyond the float range
        turns = math.inf
    return scalar(turns, "2 pi k")


def lift_of(ell: LagrangianFrame, k: int = 0) -> LagrangianLift:
    """The lift (ell, arg det w + 2k pi) with the principal argument in (-pi, pi]."""
    return _lift(ell, float(np.angle(ell.det_w)) + _turns(k))


def deck_apply(k: int, lift: LagrangianLift) -> LagrangianLift:
    """The deck transformation k of the cover: theta -> theta + 2k pi."""
    return LagrangianLift(lift.frame, lift.theta + _turns(k))


def mu_bar(
    l1: LagrangianLift,
    l2: LagrangianLift,
    tol_round: float = TOL_ROUND,
    tol_rank: float = TOL_RANK_BASE,
) -> int:
    """The canonical index, total on pairs of cover points, by the closed
    form above on the eigenvalues away from 1 that the intersection rule
    leaves (at tol_rank; it raises IllConditioned on an ambiguous corank
    and on a count of eigenvalues at 1 other than the corank).  Raises
    IllConditioned on a value farther than tol_round from an integer."""
    k, lam, at_one = _intersection(l1.frame, l2.frame, tol_rank)
    return _trace_log(l1, l2, lam[~at_one] if k else lam, tol_round)


def _trace_log(l1: LagrangianLift, l2: LagrangianLift, lam: np.ndarray, tol_round: float) -> int:
    """(theta1 - theta2 - sum arg(-lambda)) / pi over the eigenvalues lam
    away from 1, rounded by ``nearest_integer``."""
    value = (l1.theta - l2.theta - float(np.angle(-lam).sum())) / math.pi
    message = "index residual {:.3g} exceeds tol_round; the pair is nearly non-transversal"
    return nearest_integer(value, tol_round, IllConditioned, message)


def nearest_integer(value: float, tol_round: float, error: type, message: str) -> int:
    """The one rounding rule: the integer nearest value, which must lie
    within tol_round of it, or error(message.format(residual)) is raised.
    A value whose float spacing exceeds tol_round raises error too: its
    residual cannot show, and the rounding error of the phases it comes
    from is of that spacing, so it may be whole integers off."""
    if math.ulp(value) > tol_round:
        raise error(f"value {value:.6g} is too large to round within tol_round")
    k = round(value)
    if abs(value - k) > tol_round:
        raise error(message.format(abs(value - k)))
    return int(k)


def souriau_m(
    l1: LagrangianLift,
    l2: LagrangianLift,
    tol_round: float = TOL_ROUND,
) -> int:
    """m = (mu_bar + n) / 2 on transversal pairs, both read from one lambda."""
    k, lam, _ = _intersection(l1.frame, l2.frame, TOL_RANK_BASE)
    if k != 0:
        raise BadInput("m requires transversal projections")
    return (_trace_log(l1, l2, lam, tol_round) + l1.n) // 2


def companion_lift(ell1: LagrangianFrame, ell2: LagrangianFrame) -> LagrangianLift:
    """Canonical companion: w3 = e^{i theta} I lifted with theta3 = n * theta."""
    theta = companion_phase(ell1, ell2)
    n = ell1.n
    return LagrangianLift(_scalar_frame(theta, n), n * theta)
