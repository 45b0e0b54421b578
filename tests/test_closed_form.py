"""The closed-form lifts of the command line's graph, shear and rotation
paths, against two oracles: the sampled lift (``paths.lift_path`` of the
same path sampled on a certified grid by the library's constructors
``graph_path``, ``shear_path`` and ``rotation_path``), and 50-digit
evaluations: of the trace-log formula that ``leray.mu_bar`` reads the index
from, for long rotation sweeps, and of the phase change along a shear of a
plane whose X block is singular or nearly so."""

import math

import mpmath
import numpy as np
import pytest

from maslov import IllConditioned, MaslovError, cli, lagrangian, paths
from maslov.defaults import TOL_RANK_BASE, TOL_ROUND
from maslov.derived import (
    SymmetricFamily,
    _shear,
    graph_path,
    graph_phase_change,
    polynomial_values,
    shear_path,
)
from maslov.random_gen import random_frame, random_symmetric


def _quadratic(rng, n, start=None, scale=2.0):
    """Coefficients [A0, B, A1 - A0 - B] of a quadratic family from A0 (or
    from ``start``) to A1, bent away from the segment by B."""
    A0, A1, B = (random_symmetric(rng, n, scale) for _ in range(3))
    A0 = A0 if start is None else start
    return [c.tolist() for c in (A0, B, A1 - A0 - B)]


def _plane(rng, n, against):
    if against == "graph":
        return {"graph": random_symmetric(rng, n, 2.0).tolist()}
    if against == "frame":
        F = random_frame(rng, n).frame
        return {"frame": [F[:n].tolist(), F[n:].tolist()]}
    return {"x": "coordinate_x", "xstar": "coordinate_xstar"}[against]


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _split_plane(rng, n, sigmas):
    """The frame job field of a plane [X; P] = [O diag(x) V^T; O diag(p) V^T]
    whose X block has the singular values ``sigmas`` (each with p = +-sqrt(1
    - sigma^2)) and n - len(sigmas) others drawn away from 0; every plane
    has this form, for real orthogonal O and V."""
    phi = rng.uniform(0.3, 1.2, n) * rng.choice([-1.0, 1.0], n)
    x, p = np.cos(phi), np.sin(phi)
    k = len(sigmas)
    x[:k] = sigmas
    p[:k] = np.sqrt(1.0 - np.square(sigmas)) * rng.choice([-1.0, 1.0], k)
    O, V = _orthogonal(rng, n), _orthogonal(rng, n)
    return {"frame": [((O * x) @ V.T).tolist(), ((O * p) @ V.T).tolist()]}


def _polynomial_family(coefficients):
    """The family A(t) = sum_k c_k t^k sampled on a certified grid.  Its graph
    and shear paths move arg det w at most 2 ||A'(t)||_* per unit time
    (``SymmetricFamily.linear``'s rule, which reads A' only), and on [0, 1]
    ||A'(t)||_* <= sum_k k ||c_k||_*."""
    coeffs = np.array(coefficients, dtype=float)
    speed = 2 * sum(k * np.linalg.norm(c, "nuc") for k, c in enumerate(coeffs))
    samples = paths.certified_count(33, speed, coeffs.shape[-1])
    ts = np.linspace(0.0, 1.0, samples)
    return SymmetricFamily(tuple(ts), polynomial_values(coeffs, ts))


def _sampled_lift(job):
    """The lift and index of a job's path by the library route: the path
    sampled on its certified grid and lifted sample by sample."""
    n, spec = job["n"], job["path"]
    ell = cli.parse_plane(job.get("plane", "coordinate_x"), n)
    if spec["kind"] == "rotation":
        lam = paths.rotation_path(n, spec.get("alpha_start", 0.0), spec["alpha_end"])
    else:
        family = _polynomial_family(spec["coefficients"])
        if spec["kind"] == "shear":
            lam = paths.induced_path(shear_path(family), ell)
        else:
            lam = graph_path(family)
    lifted = paths.lift_path(lam)
    if job["index"] == "mu-ell":
        return lifted, lifted.mu_ell()
    return lifted, lifted.mu_lagrangian(ell)


def _assert_matches_sampled_lift(job, tol):
    report = cli.compute_report(job)
    assert report["samples"] == 2
    lifted, value = _sampled_lift(job)
    assert report.get("value", report.get("twice_value")) == value
    assert report["lifts"]["start"]["theta"] == lifted.start.theta
    assert abs(report["lifts"]["end"]["theta"] - lifted.end.theta) <= tol


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("against", ["x", "graph", "xstar"])
def test_graph_closed_form_matches_bisection(against, n):
    rng = np.random.default_rng([n, len(against)])
    for index in ("lagrangian", "rs"):
        for _ in range(3):
            path = {"kind": "graph_polynomial", "coefficients": _quadratic(rng, n)}
            job = {"n": n, "index": index, "path": path, "plane": _plane(rng, n, against)}
            _assert_matches_sampled_lift(job, 1e-12)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("against", ["x", "frame"])
def test_shear_closed_form_matches_bisection(against, n):
    rng = np.random.default_rng([n, len(against), 7])
    for index in ("symplectic", "mu-ell"):
        for _ in range(3):
            start = np.zeros((n, n)) if index == "mu-ell" else None
            path = {"kind": "shear", "coefficients": _quadratic(rng, n, start)}
            plane = _plane(rng, n, against)
            # X is invertible: the split keeps every direction
            U, _ = lagrangian.graph_matrix(cli.parse_plane(plane, n), TOL_RANK_BASE, np.zeros((1, n, n)), TOL_ROUND)
            assert U.shape == (n, n)
            job = {"n": n, "index": index, "path": path, "plane": plane}
            _assert_matches_sampled_lift(job, 1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_singular_x_shear_matches_bisection(n):
    # a shear fixes X* pointwise, so the plane's part in the kernel of X
    # stays put and the lift is read off the graphs over the range of X
    rng = np.random.default_rng([n, 17])
    for corank in range(1, n + 1):
        for index in ("symplectic", "mu-ell"):
            start = np.zeros((n, n)) if index == "mu-ell" else None
            path = {"kind": "shear", "coefficients": _quadratic(rng, n, start)}
            plane = _split_plane(rng, n, np.zeros(corank))
            U, _ = lagrangian.graph_matrix(cli.parse_plane(plane, n), TOL_RANK_BASE, np.zeros((1, n, n)), TOL_ROUND)
            assert U.shape == (n, n - corank)
            job = {"n": n, "index": index, "path": path, "plane": plane}
            _assert_matches_sampled_lift(job, 1e-9)


def _fifty_digit_phase_change(frame, coeffs):
    """2 (arg q(1) - arg q(0)) along [0, 1] for q(t) = det(A(t) X + P - iX),
    A(t) = sum_k c_k t^k, in 50 digits: theta = arg det w moves by twice the
    argument of det u of the unnormalised frame [X; A(t) X + P].  q is a
    polynomial of degree at most n deg A, interpolated at equally spaced
    times; each root r moves arg (t - r) by arg((1 - r) / -r) on [0, 1]."""
    n = frame.shape[1]
    with mpmath.workdps(50):
        X, P = mpmath.matrix(frame[:n].tolist()), mpmath.matrix(frame[n:].tolist())
        C = [mpmath.matrix(c.tolist()) for c in coeffs]

        def q(t):
            A = mpmath.zeros(n)
            for k, c in enumerate(C):
                A += c * t**k
            return mpmath.det(A * X + P - 1j * X)

        d = n * (len(C) - 1)
        ts = [mpmath.mpf(j) / max(d, 1) for j in range(d + 1)]
        V = mpmath.matrix([[t**k for k in range(d + 1)] for t in ts])
        a = mpmath.lu_solve(V, mpmath.matrix([q(t) for t in ts]))
        top = max(abs(x) for x in a)
        a = [a[k] for k in range(d + 1)]
        while abs(a[-1]) <= mpmath.mpf(10) ** -40 * top:
            a.pop()
        roots = mpmath.polyroots(a[::-1], maxsteps=200, extraprec=200) if len(a) > 1 else []
        # q has no zero on [0, 1]: u of a Lagrangian frame is invertible
        assert all(abs(r.imag) > 1e-30 or not 0 <= r.real <= 1 for r in roots)
        return float(2 * sum(mpmath.arg((1 - r) / -r) for r in roots))


NEAR_KERNEL_SIGMAS = (0.0, 1e-14, 1e-12, 1e-10, 1e-9, 5e-9, 1e-8)
COEFFICIENT_SCALES = (1.0, 30.0, 1e3, 1e6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_near_kernel_shears_match_fifty_digits_or_fail_loudly(n):
    # sigma = 5e-9 and 1e-8 lie inside the corank band and are kept; the
    # others are dropped, with a bound on the error that this makes
    rng = np.random.default_rng([n, 29])
    outcomes = set()
    for sigma in NEAR_KERNEL_SIGMAS:
        for scale in COEFFICIENT_SCALES:
            for corank in range(1, n + 1):
                coeffs = np.array(_quadratic(rng, n, scale=scale))
                plane = _split_plane(rng, n, np.full(corank, sigma))
                path = {"kind": "shear", "coefficients": coeffs.tolist()}
                job = {"n": n, "index": "symplectic", "path": path, "plane": plane}
                try:
                    report = cli.compute_report(job)
                except MaslovError as exc:
                    assert exc.code == "ILL_CONDITIONED", exc
                    # an exact kernel trips the guard only at the SVD's
                    # rounding level, which the steepest coefficients fail
                    assert sigma > 0 or scale > 1e3 or "near-kernel" not in str(exc)
                    outcomes.add("ill-conditioned")
                    continue
                ell = cli.parse_plane(plane, n)
                dtheta = _fifty_digit_phase_change(ell.frame, coeffs)
                lifts = report["lifts"]
                assert abs(lifts["end"]["theta"] - lifts["start"]["theta"] - dtheta) <= TOL_ROUND
                # the index of the exact lift, read by the same mu_bar
                _, ends = cli._polynomial(coeffs.tolist(), n)
                frames, tol = lagrangian.transport_frames(_shear(ends), ell.frame, ell.tol)
                exact = paths.LiftedPath.from_phase_change(frames, tol, dtheta)
                try:
                    expected = exact.mu_lagrangian(ell)
                except MaslovError:
                    continue
                assert report["value"] == expected
                outcomes.add("value")
    # in n = 1 nothing couples the dropped direction to a kept one, so
    # dropping it moves theta by about its sigma only
    assert outcomes == ({"value"} if n == 1 else {"value", "ill-conditioned"})


@pytest.mark.parametrize("sigma, L", [(1e-10, 1e7), (1e-12, 1e8), (3e-16, 1e7), (2e-16, 1e7)])
def test_near_kernel_guard_stops_a_wrong_integer(sigma, L):
    # X = diag(cos 0.7, sigma): the kept graph moves from L to 1, while the
    # coupling c to the dropped direction, gone at t = 1, pulls the true
    # graph at t = 0 from L to about -L, a whole turn of theta away; the
    # split alone lands on the wrong integer, with no residual to show it
    c = math.sqrt(2 * L / sigma)
    X, P = np.diag([math.cos(0.7), sigma]), np.diag([math.sin(0.7), math.sqrt(1 - sigma**2)])
    coeffs = np.array([[[L - math.tan(0.7), c], [c, 0.0]], [[1.0 - L, -c], [-c, 0.0]]])
    plane = {"frame": [X.tolist(), P.tolist()]}
    ell = cli.parse_plane(plane, 2)
    dtheta = _fifty_digit_phase_change(ell.frame, coeffs)
    _, ends = cli._polynomial(coeffs.tolist(), 2)
    U, B = lagrangian.graph_matrix(ell, TOL_RANK_BASE, np.zeros((1, 2, 2)), math.inf)
    assert abs(graph_phase_change(U.T @ ends @ U + B) + 2 * math.pi - dtheta) < 1e-6
    job = {"n": 2, "index": "symplectic", "plane": plane}
    job["path"] = {"kind": "shear", "coefficients": coeffs.tolist()}
    with pytest.raises(IllConditioned, match="near-kernel"):
        cli.compute_report(job)


def test_near_kernel_guard_reads_an_overflow_as_unbounded():
    # the guard's norms of coefficients near the float range overflow; an
    # exact kernel is then refused with an infinite bound, not a NaN one
    X, P = np.diag([math.cos(0.7), 0.0]), np.diag([math.sin(0.7), 1.0])
    coeffs = [[[1e200, 1e200], [1e200, -1e200]], np.eye(2).tolist()]
    job = {"n": 2, "index": "symplectic", "plane": {"frame": [X.tolist(), P.tolist()]}}
    job["path"] = {"kind": "shear", "coefficients": coeffs}
    with pytest.raises(IllConditioned, match="by inf"), np.errstate(all="ignore"):
        cli.compute_report(job)


ROTATION_PLANES = {1: {"graph": [[0.3]]}, 2: {"graph": [[0.3, 0.1], [0.1, -1.2]]}}


@pytest.mark.parametrize("sweep", [0.3, -5.0, 1e3, -1e4, 1e5])
@pytest.mark.parametrize("alpha_start", [0.0, 0.7])
def test_rotation_closed_form_matches_bisection(alpha_start, sweep):
    # the sampled rotation path has at least floor(4 |sweep| / pi) + 2
    # samples (254 649 for 1e5 rad), and its theta is their sum
    for n in (1, 2):
        path = {"kind": "rotation", "alpha_start": alpha_start, "alpha_end": alpha_start + sweep}
        job = {"n": n, "index": "lagrangian", "path": path, "plane": ROTATION_PLANES[n]}
        _assert_matches_sampled_lift(job, 1e-12)


def _trace_log_index(alpha_start, alpha_end, a):
    """The index of the n = 1 rotation sweep against the graph {p = a x},
    read off the two end lifts by the trace-log formula in 50 digits:
    mu_bar(l, ell) = (theta - theta_ell - arg(-e^{i theta} conj(w_ell))) / pi,
    with theta(0) the principal argument of e^{2 i alpha_start} and
    theta(1) = theta(0) + 2 (alpha_end - alpha_start)."""
    with mpmath.workdps(50):
        a0, a1, a = mpmath.mpf(alpha_start), mpmath.mpf(alpha_end), mpmath.mpf(a)
        w_ell = (a * a - 1 - 2j * a) / (1 + a * a)
        theta_ell = mpmath.arg(w_ell)

        def mu_bar(theta):
            lam = mpmath.expj(theta) * mpmath.conj(w_ell)
            return (theta - theta_ell - mpmath.arg(-lam)) / mpmath.pi

        theta0 = mpmath.arg(mpmath.expj(2 * a0))
        value = mu_bar(theta0 + 2 * (a1 - a0)) - mu_bar(theta0)
        k = int(mpmath.nint(value))
        assert abs(value - k) < mpmath.mpf(10) ** -30
        return k


def _sweep_outcome(alpha_start, alpha_end, a):
    plane = "coordinate_x" if a == 0.0 else {"graph": [[a]]}
    path = {"kind": "rotation", "alpha_start": alpha_start, "alpha_end": alpha_end}
    try:
        return cli.compute_report({"n": 1, "index": "lagrangian", "path": path, "plane": plane})["value"]
    except MaslovError as exc:
        return exc.code


@pytest.mark.parametrize("alpha_start", [0.0, 0.7])
def test_long_rotation_sweeps_match_fifty_digits_or_fail_loudly(alpha_start):
    # beyond 1e5 rad up to 1e12 the index is the 50-digit integer or the
    # job fails loudly; it never returns a different integer
    rng = np.random.default_rng(12)
    sweeps = [s * m for s in (1.0, -1.0) for m in 10.0 ** rng.uniform(5, 12, 20)]
    values = 0
    for sweep in sweeps + [1e12, -1e12]:
        for a in (0.3, -2.0, 0.0):
            got = _sweep_outcome(alpha_start, alpha_start + sweep, a)
            if isinstance(got, int):
                assert got == _trace_log_index(alpha_start, alpha_start + sweep, a)
                values += 1
    # the closed form decides most of them
    assert values >= len(sweeps)


@pytest.mark.parametrize("alpha_end", [1e16, -1e20, 1e300])
def test_sweeps_past_the_float_precision_fail_loudly(alpha_end):
    # theta = 2 alpha has no fractional bits left: a value rounded from it
    # would be whole integers off (the 50-digit index of 0 -> 1e16 against
    # {p = 0.3 x} is 6366197723675814, and a plain rounding gave ...815)
    assert _sweep_outcome(0.0, alpha_end, 0.3) == "ILL_CONDITIONED"
