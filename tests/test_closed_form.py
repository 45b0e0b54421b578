"""The closed-form lifts of the command line's graph, shear and rotation
paths, against two oracles: the bisected lift (``paths.lift_path`` of the
same path parsed as a sampled path with a generator, the library route),
and for long rotation sweeps a 50-digit evaluation of the trace-log formula
that ``leray.mu_bar`` reads the index from."""

import mpmath
import numpy as np
import pytest

from maslov import MaslovError, cli, lagrangian, paths
from maslov.defaults import TOL_RANK_BASE
from maslov.random_gen import random_frame, random_symmetric


def _quadratic(rng, n, start=None):
    """Coefficients [A0, B, A1 - A0 - B] of a quadratic family from A0 (or
    from ``start``) to A1, bent away from the segment by B."""
    A0, A1, B = (random_symmetric(rng, n, 2.0) for _ in range(3))
    A0 = A0 if start is None else start
    return [c.tolist() for c in (A0, B, A1 - A0 - B)]


def _plane(rng, n, against):
    if against == "graph":
        return {"graph": random_symmetric(rng, n, 2.0).tolist()}
    if against == "frame":
        F = random_frame(rng, n).frame
        return {"frame": [F[:n].tolist(), F[n:].tolist()]}
    return {"x": "coordinate_x", "xstar": "coordinate_xstar"}[against]


def _bisected(job):
    """The lift and index of a job's path by the library route: the path
    sampled on its default grid and lifted by bisection."""
    n, spec = job["n"], job["path"]
    ell = cli.parse_plane(job.get("plane", "coordinate_x"), n)
    if spec["kind"] == "shear":
        lam = paths.induced_path(cli.parse_symplectic_path(spec, n), ell)
    else:
        lam = cli.parse_lagrangian_path(spec, n)
    lifted = paths.lift_path(lam)
    if job["index"] == "mu-ell":
        return lifted, lifted.mu_ell()
    return lifted, lifted.mu_lagrangian(ell)


def _assert_matches_bisection(job, tol):
    report = cli.compute_report(job)
    assert report["samples"] == 2
    lifted, value = _bisected(job)
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
            _assert_matches_bisection(job, 1e-12)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("against", ["x", "frame"])
def test_shear_closed_form_matches_bisection(against, n):
    rng = np.random.default_rng([n, len(against), 7])
    for index in ("symplectic", "mu-ell"):
        for _ in range(3):
            start = np.zeros((n, n)) if index == "mu-ell" else None
            path = {"kind": "shear", "coefficients": _quadratic(rng, n, start)}
            plane = _plane(rng, n, against)
            # the closed form needs X invertible by the corank rule
            assert lagrangian.graph_matrix(cli.parse_plane(plane, n), TOL_RANK_BASE) is not None
            job = {"n": n, "index": index, "path": path, "plane": plane}
            _assert_matches_bisection(job, 1e-12)


ROTATION_PLANES = {1: {"graph": [[0.3]]}, 2: {"graph": [[0.3, 0.1], [0.1, -1.2]]}}


@pytest.mark.parametrize("sweep", [0.3, -5.0, 1e3, -1e4, 1e5])
@pytest.mark.parametrize("alpha_start", [0.0, 0.7])
def test_rotation_closed_form_matches_bisection(alpha_start, sweep):
    # the sampled rotation path has at least floor(4 |sweep| / pi) + 2
    # samples (254 649 for 1e5 rad), and its theta is their sum
    for n in (1, 2):
        path = {"kind": "rotation", "alpha_start": alpha_start, "alpha_end": alpha_start + sweep}
        job = {"n": n, "index": "lagrangian", "path": path, "plane": ROTATION_PLANES[n]}
        _assert_matches_bisection(job, 1e-12)


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
