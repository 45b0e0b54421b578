import math

import numpy as np
import pytest
import scipy.integrate

from maslov import (
    BadInput,
    IllConditioned,
    LagrangianLift,
    coordinate_x,
    coordinate_xstar,
    deck_apply,
    frame_from_graph,
    frame_from_unitary,
    frame_from_w,
    intersection_dim,
    kashiwara_tau,
    lift_of,
    mu_bar,
    souriau_m,
)
from maslov import lagrangian
from maslov.leray import companion_lift
from maslov.random_gen import random_frame, random_frame_intersecting, random_lift
from maslov.verify import mu_bar_via_companion


def test_lift_anchors():
    l = lift_of(coordinate_xstar(1), 0)
    assert np.abs(l.w - 1).max() < 1e-12 and l.theta == 0.0
    l = lift_of(coordinate_x(1), 0)
    assert np.abs(l.w + 1).max() < 1e-12 and abs(l.theta - math.pi) < 1e-12
    l = lift_of(coordinate_xstar(1), 1)
    assert abs(l.theta - 2 * math.pi) < 1e-12


def test_w_is_computed_once_per_plane(rng, monkeypatch):
    # the frame keeps its w: lifting, the deck action and intersections
    # all read it, so u u^t runs once for ell (and never at construction)
    uut = lagrangian._uut
    seen = []

    def counted(F):
        seen.append(F)
        return uut(F)

    monkeypatch.setattr(lagrangian, "_uut", counted)
    ell, other = random_frame(rng, 2), random_frame(rng, 2)
    assert seen == []
    lift = lift_of(ell)
    deck_apply(2, lift_of(ell, 1))
    for _ in range(2):
        intersection_dim(ell, other)
    assert sum(F is ell.frame for F in seen) == 1
    assert len(seen) == 2
    assert lift.w is ell.w and not ell.w.flags.writeable


def test_a_plane_takes_det_w_once(rng, monkeypatch):
    # the frame keeps det w beside w: every lift of the plane, the deck
    # action and LagrangianLift's own theta rule read it
    det = np.linalg.det
    seen = []
    monkeypatch.setattr(np.linalg, "det", lambda a: seen.append(a) or det(a))
    ell = random_frame(rng, 2)
    lift = lift_of(ell, 1)
    deck_apply(-1, lift)
    LagrangianLift(ell, lift.theta)
    assert lift_of(ell).theta == float(np.angle(ell.det_w))
    assert len(seen) == 1 and seen[0] is ell.w
    assert ell.det_w == det(ell.w)


def test_lift_validates_theta():
    with pytest.raises(BadInput):
        LagrangianLift(coordinate_xstar(1), 0.5)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_lift_rejects_non_finite_theta(theta):
    # the check reads `not err <= bound`, so a NaN distance fails it
    with pytest.raises(BadInput), np.errstate(invalid="ignore"):
        LagrangianLift(coordinate_xstar(2), theta)


@pytest.mark.parametrize("theta", [None, [0.0], "0", np.zeros(1), False])
def test_lift_rejects_theta_that_is_not_a_number(theta):
    # det w of X* is 1: np.zeros(1) and False passed its bound as the
    # argument 0, and the others escaped as TypeError
    with pytest.raises(BadInput, match="theta must be an int or a float"):
        LagrangianLift(coordinate_xstar(2), theta)


def test_deck_apply():
    l = lift_of(coordinate_xstar(2), 0)
    assert deck_apply(0, l).theta == l.theta
    assert abs(deck_apply(1, l).theta - (l.theta + 2 * math.pi)) < 1e-12
    assert abs(deck_apply(-2, l).theta - (l.theta - 4 * math.pi)) < 1e-12


def test_souriau_m_scalar_anchors():
    xstar = lift_of(coordinate_xstar(1), 0)  # (1, 0)
    x = lift_of(coordinate_x(1), 0)  # (-1, pi)
    assert souriau_m(xstar, x) == 0
    assert souriau_m(x, xstar) == 1
    # deck shift on the first argument adds 1
    assert souriau_m(deck_apply(1, xstar), x) == 1


def test_souriau_m_requires_transversality(rng):
    f = random_frame(rng, 2)
    with pytest.raises(BadInput):
        souriau_m(lift_of(f, 0), lift_of(f, 1))


def _trlog_integral(m: np.ndarray) -> complex:
    """Principal TrLog by the resolvent integral along the negative axis."""
    n = m.shape[0]
    eye = np.eye(n)

    def integrand(lam: float) -> complex:
        return np.trace(np.linalg.inv(lam * eye - m)) - n / (lam - 1)

    re = scipy.integrate.quad(lambda l: integrand(l).real, -np.inf, 0.0, limit=200)[0]
    im = scipy.integrate.quad(lambda l: integrand(l).imag, -np.inf, 0.0, limit=200)[0]
    return re + 1j * im


def test_souriau_m_matches_integral_log(rng):
    """m recomputed with TrLog evaluated by quadrature instead of the
    eigendecomposition; the two routes agree on transversal pairs."""
    checked = 0
    for n in (1, 2):
        while checked < 4 * n:
            l1, l2 = random_lift(rng, n), random_lift(rng, n)
            f1 = frame_from_w(l1.w)
            f2 = frame_from_w(l2.w)
            if intersection_dim(f1, f2) != 0:
                continue
            prod = -l1.w @ l2.w.conj()
            phases = np.angle(np.linalg.eigvals(prod))
            if math.pi - np.abs(phases).max() < 0.05:
                continue  # quadrature converges poorly near the cut
            trlog = _trlog_integral(prod)
            value = (l1.theta - l2.theta + (1j * trlog).real) / (
                2 * math.pi
            ) + n / 2
            assert abs((1j * trlog).imag) < 1e-6
            assert abs(value - souriau_m(l1, l2)) < 1e-6
            checked += 1


def test_mu_bar_anchors():
    xstar = lift_of(coordinate_xstar(1), 0)
    x = lift_of(coordinate_x(1), 0)
    assert mu_bar(xstar, xstar) == 0
    assert mu_bar(xstar, x) == -1
    assert mu_bar(x, xstar) == 1


def test_mu_bar_antisymmetry(rng):
    for n in (1, 2, 3):
        for _ in range(15):
            l1, l2 = random_lift(rng, n), random_lift(rng, n)
            assert mu_bar(l1, l2) == -mu_bar(l2, l1)


def test_mu_bar_coboundary(rng):
    for n in (1, 2, 3):
        for _ in range(15):
            lifts = [random_lift(rng, n) for _ in range(3)]
            frames = [frame_from_w(l.w) for l in lifts]
            assert (
                mu_bar(lifts[0], lifts[1])
                - mu_bar(lifts[0], lifts[2])
                + mu_bar(lifts[1], lifts[2])
                == kashiwara_tau(*frames).tau
            )


def test_mu_bar_deck_equivariance(rng):
    for n in (1, 2):
        l1, l2 = random_lift(rng, n), random_lift(rng, n)
        base = mu_bar(l1, l2)
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                got = mu_bar(deck_apply(k1, l1), deck_apply(k2, l2))
                assert got - base == 2 * (k1 - k2)


def test_mu_bar_companion_independence(rng):
    for n in (2, 3):
        for _ in range(5):
            f1 = random_frame(rng, n)
            f2 = random_frame_intersecting(rng, f1, 1)
            l1, l2 = lift_of(f1, 1), lift_of(f2, -1)
            base = mu_bar(l1, l2)
            for _ in range(5):
                cand = random_frame(rng, n)
                if (
                    intersection_dim(cand, f1) != 0
                    or intersection_dim(cand, f2) != 0
                ):
                    continue
                comp = lift_of(cand, int(rng.integers(-2, 3)))
                assert mu_bar_via_companion(l1, l2, comp) == base


def test_mu_bar_rejects_bad_companion(rng):
    f1 = random_frame(rng, 2)
    f2 = random_frame_intersecting(rng, f1, 1)
    with pytest.raises(BadInput):
        mu_bar_via_companion(lift_of(f1, 0), lift_of(f2, 0), lift_of(f1, 0))


def test_mu_bar_via_companion_decides_each_pair_once(rng, monkeypatch):
    # two for the canonical companion's phase and one eigvals(w_i conj(w_3))
    # per pair, read by souriau_m for both transversality and m
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    for _ in range(5):
        calls.clear()
        l1, l2 = random_lift(rng, 3), random_lift(rng, 3)
        value = mu_bar_via_companion(l1, l2)
        assert len(calls) == 4
        assert value == mu_bar(l1, l2)


def _phase_lift(O, phases, branch):
    # u = O e^{i phases / 2} gives w = u u^t = O e^{i phases} O^t
    frame = frame_from_unitary(O * np.exp(0.5j * phases))
    return LagrangianLift(frame, float(phases.sum()) + 2 * math.pi * branch)


def test_mu_bar_closed_form_strata(rng):
    """Commuting pairs O diag(e^{i phi}) O^t and O diag(e^{i psi}) O^t with k
    shared phases: each direction j contributes floor(d_j) + ceil(d_j) for
    d_j = (phi_j - psi_j) / 2 pi, so 2 q_j + 1 when d_j lies in (q_j, q_j + 1)
    and 2 q_j when d_j = q_j, an intersection direction."""
    for n in range(1, 6):
        for k in range(n + 1):
            for _ in range(10):
                O = np.linalg.qr(rng.standard_normal((n, n)))[0]
                psi = rng.uniform(-math.pi, math.pi, n)
                q = rng.integers(-2, 3, n)
                frac = rng.uniform(0.05, 0.95, n)
                frac[rng.permutation(n)[:k]] = 0.0
                phi = psi + 2 * math.pi * (q + frac)
                b, c = (int(x) for x in rng.integers(-2, 3, 2))
                expected = int(2 * q.sum()) + int(np.count_nonzero(frac)) + 2 * (b - c)
                assert mu_bar(_phase_lift(O, phi, b), _phase_lift(O, psi, c)) == expected


@pytest.mark.parametrize(
    "eps, expected", [(0.0, 0), (1e-12, 0), (3e-8, IllConditioned), (1e-5, -1)]
)
def test_mu_bar_graph_perturbation(eps, expected):
    """Graph planes A and A + eps e0 e0^t: coincident, coincident within the
    rank threshold, inside the ambiguity band, transversal.  det w of A is
    far from -1, so the principal lifts do not jump a branch."""
    A = np.array([[2.0, 0.3], [0.3, 3.0]])
    B = A.copy()
    B[0, 0] += eps
    l1, l2 = lift_of(frame_from_graph(A)), lift_of(frame_from_graph(B))
    if expected is IllConditioned:
        with pytest.raises(IllConditioned):
            mu_bar(l1, l2)
    else:
        assert mu_bar(l1, l2) == expected


def test_tol_rank_reaches_mu_bar():
    # planes 1e-6 apart: transversal at the default rank base, one plane
    # (coincident pair) at a coarser one
    f1 = frame_from_graph(np.array([[0.3]]))
    f2 = frame_from_graph(np.array([[0.3 + 1e-6]]))
    l1, l2 = lift_of(f1), lift_of(f2)
    assert mu_bar(l1, l2) == -1
    assert mu_bar(l1, l2, tol_rank=1e-3) == 0
    assert intersection_dim(f1, f2) == 0
    assert intersection_dim(f1, f2, tol_rank=1e-3) == 1


def test_companion_lift_is_scalar_and_transversal(rng):
    for n in (1, 2, 3):
        f1 = random_frame(rng, n)
        f2 = random_frame_intersecting(rng, f1, n // 2)
        comp = companion_lift(f1, f2)
        w = comp.w
        assert np.abs(w - w[0, 0] * np.eye(n)).max() < 1e-10
        f3 = frame_from_w(comp.w)
        assert intersection_dim(f3, f1) == 0
        assert intersection_dim(f3, f2) == 0
        l1, l2 = lift_of(f1, 0), lift_of(f2, 1)
        assert mu_bar_via_companion(l1, l2) == mu_bar(l1, l2)
