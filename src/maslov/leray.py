"""Points of the universal cover of the Lagrangian Grassmannian as pairs
(frame, theta) with det w = e^{i theta} for w = souriau_w(frame), and the
canonical index mu_bar on arbitrary pairs by Souriau's trace-log formula

    mu_bar = (theta1 - theta2 - sum' arg(-lambda_j)) / pi

over the eigenvalues lambda_j of the unitary w1 conj(w2) = w1 w2^{-1} away
from 1; the eigenvalues at 1 are the dim(ell1 /\\ ell2) intersection
directions.  On transversal pairs mu_bar = 2m - n for Souriau's integer m.

Guard: mu_bar takes the eigenvalues first.  The singular values of w1 - w2
are the |lambda_j - 1| (exactly so for unitary w's), so when every
|lambda_j - 1| exceeds the margin M of ``transversal_margin`` the pair is
transversal by certificate: ``lagrangian.corank`` could only have found
corank 0 with no value in its ambiguity band, and no eigenvalue lies
within its threshold of 1.  mu_bar then reads every phase, with no SVD.
Otherwise k = corank(w1 - w2) decides, and exactly k eigenvalues must lie
within that rule's threshold of 1; the rule's ambiguity band keeps every
other eigenvalue off the branch cut of arg(-lambda).

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

from .defaults import AMBIGUITY_DECADE, TOL_PHASE, TOL_RANK_BASE, TOL_ROUND
from .errors import BadInput, IllConditioned, scalar
from .lagrangian import LagrangianFrame, _scalar_frame, companion_phase, corank, unitarity_bound


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


def _pair_corank(
    l1: LagrangianLift, l2: LagrangianLift, tol_rank: float
) -> tuple[int, float]:
    """dim(ell1 /\\ ell2) as the corank of w1 - w2, and the threshold used."""
    if l1.n != l2.n:
        raise BadInput("lifts live in different dimensions")
    return corank(l1.w - l2.w, tol_rank, "w-difference corank")


def transversal_margin(l1: LagrangianLift, l2: LagrangianLift, tol_rank: float) -> float:
    """M = 10 t^ (1 + b) + 4 (n + 2) (c + rho), 10 being AMBIGUITY_DECADE:
    when every eigenvalue lambda of w1 conj(w2) lies farther than M from 1,
    ``corank`` of w1 - w2 at tol_rank can only find 0, with no singular
    value in its band, and no lambda lies within its threshold t of 1.

    - b = ``unitarity_bound`` at the larger frame tol, so ||w_i||_2 <= 1 + b
      and ||w_i w_i^H - I||_2 <= b.
    - t^ = tol_rank * 2 (1 + b) >= t, as sigma_max(w1 - w2) <= ||w1|| + ||w2||.
    - c = b (2 + b) bounds ||V^H V - I||_2 for V = w1 conj(w2), and so the
      distance of V from its unitary polar factor Q.
    - rho = n eps (1 + b)^2 stands for the rounding of one product, eigvals
      or SVD at these norms; b >= 1e-9 n exceeds it a million-fold.

    The computed lambda are the eigenvalues of Q + E with ||E||_2 <= eta =
    c + 2 rho.  By Bauer-Fike on the normal Q, and by continuity from Q to
    Q + E (each cluster of discs of radius eta keeps its count), every
    eigenvalue mu of Q lies within 2 n eta of some lambda.  As
    (w1 - w2) conj(w2) = (Q - I) + (V - Q) - (w2 conj(w2) - I) up to
    rounding and sigma_min(Q - I) = min |mu - 1|, every computed singular
    value of w1 - w2 is at least
    (min |lambda - 1| - 2 n eta - 2 c - 3 rho) / (1 + b) - 2 rho,
    which exceeds 10 t^ when min |lambda - 1| > M, for b <= 1.5.  For a
    larger b, M exceeds every |lambda - 1| <= 1 + (1 + b)^2.  A NaN tol_rank
    makes M NaN, which no distance exceeds; at tol_rank 0 the inequality
    is strict; a negative tol_rank gives t < 0, where corank finds 0 too."""
    n = l1.n
    b = unitarity_bound(n, max(l1.frame.tol, l2.frame.tol))
    t_hat = tol_rank * (2 * (1 + b))
    grow = b * (2 + b) + n * math.ulp(1.0) * (1 + b) ** 2  # c + rho
    return AMBIGUITY_DECADE * t_hat * (1 + b) + 4 * (n + 2) * grow


def mu_bar(
    l1: LagrangianLift,
    l2: LagrangianLift,
    tol_round: float = TOL_ROUND,
    tol_rank: float = TOL_RANK_BASE,
) -> int:
    """The canonical index, total on pairs of cover points, by the closed
    form above.  A pair whose eigenvalues all lie farther than
    ``transversal_margin`` from 1 reads every phase; any other pair raises
    IllConditioned on an ambiguous corank (at tol_rank) and on a count of
    eigenvalues at 1 other than the corank.  Either raises IllConditioned
    on a value farther than tol_round from an integer."""
    if l1.n != l2.n:
        raise BadInput("lifts live in different dimensions")
    lam = np.linalg.eigvals(l1.w @ l2.w.conj())
    far = np.abs(lam - 1)
    if far.min() > transversal_margin(l1, l2, tol_rank):
        phases = np.angle(-lam)  # corank 0, certified without its SVD
    else:
        k, t = _pair_corank(l1, l2, tol_rank)
        at_one = far <= t
        count = int(np.count_nonzero(at_one))
        if count != k:
            raise IllConditioned(
                f"{count} eigenvalues within {t:g} of 1 but intersection dimension {k}"
            )
        phases = np.angle(-(lam[~at_one] if k else lam))
    value = (l1.theta - l2.theta - float(phases.sum())) / math.pi
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
    """The integer m = (mu_bar + n) / 2 on transversal pairs."""
    if _pair_corank(l1, l2, TOL_RANK_BASE)[0] != 0:
        raise BadInput("m requires transversal projections")
    return (mu_bar(l1, l2, tol_round) + l1.n) // 2


def companion_lift(ell1: LagrangianFrame, ell2: LagrangianFrame) -> LagrangianLift:
    """Canonical companion: w3 = e^{i theta} I lifted with theta3 = n * theta."""
    theta = companion_phase(ell1, ell2)
    n = ell1.n
    return LagrangianLift(_scalar_frame(theta, n), n * theta)
