import math

import numpy as np
import pytest

from maslov import (
    BadInput,
    HalfInteger,
    IllConditioned,
    SymmetricFamily,
    coordinate_x,
    coordinate_xstar,
    graph_path,
    hormander_xi,
    kashiwara_tau,
    lift_of,
    mu_bar,
    mu_lagrangian,
    mu_symplectic,
    shear_path,
    spectral_flow,
    frame_from_graph,
)
from maslov import cli
from maslov.constructions import (
    concat,
    direct_sum_lift,
    path_joining,
    robbin_salamon,
    rotation_path,
    spectral_flow_path_index,
)
from maslov.random_gen import (
    random_frame,
    random_lagrangian_path,
    random_lift,
    random_symmetric,
)


def linear_family(A0, A1, samples=21):
    return SymmetricFamily.linear(np.asarray(A0, float), np.asarray(A1, float), samples)


def test_half_integer():
    assert HalfInteger(2).value == 1.0
    assert HalfInteger(3).value == 1.5
    assert repr(HalfInteger(3)) == "3/2"
    assert repr(HalfInteger(-4)) == "-2"
    assert HalfInteger(1) == HalfInteger(1)
    assert HalfInteger(1) != HalfInteger(2)


def test_symmetric_family_validation():
    with pytest.raises(BadInput):
        SymmetricFamily((0.0, 1.0), (np.array([[0.0, 1.0], [0.0, 0.0]]),) * 2)
    with pytest.raises(BadInput):
        SymmetricFamily((0.0, 0.5), (np.eye(1), np.eye(1)))
    # the times rule of the paths the family feeds
    with pytest.raises(BadInput):
        SymmetricFamily((0.0, 0.7, 0.3, 1.0), (np.eye(1),) * 4)
    with pytest.raises(BadInput):
        spectral_flow(SymmetricFamily((0.0, 0.7, 0.3, 1.0), (-np.eye(1),) * 2 + (np.eye(1),) * 2))


@pytest.mark.parametrize(
    "matrices",
    [(1.0, 2.0), ([1.0], [2.0]), ([[1.0]], [[1.0, 0.0]]), ([[1.0, 2.0]],) * 2, 3.0],
    ids=["0-d", "1-d", "ragged", "non-square", "scalar"],
)
def test_symmetric_family_rejects_non_matrices(matrices):
    with pytest.raises(BadInput):
        SymmetricFamily((0.0, 1.0), matrices)


def test_graph_polynomial_index_matches_spectral_flow_on_a_fast_crossing():
    # the large eigenvalue of (1 - 3t) A passes 0 at t = 1/3, between the
    # samples 10/32 and 11/32, which fooled the midpoint guard of the
    # bisected lift (-2); the closed-form lift gives the graph-path index
    # against X, the spectral flow sign A(1) - sign A(0) = -4
    A = np.array([[1000.0, 1000.0], [1000.0, 1001.0]])
    family = {"coefficients": [A.tolist(), (-3 * A).tolist()]}
    flow = cli.compute_report({"n": 2, "index": "spectral-flow", "family": family})
    path = {"kind": "graph_polynomial", **family}
    job = {"n": 2, "index": "lagrangian", "plane": "coordinate_x", "path": path}
    assert cli.compute_report(job)["value"] == flow["value"] == -4


def test_family_and_graph_path_share_the_symmetric_rule():
    # asymmetry 5e-8 on entries of 1000 passes the one relative rule, so the
    # graph path of a family that SymmetricFamily accepts is accepted too
    near = np.array([[1000.0, 1000.0 + 5e-8], [1000.0, 1001.0]])
    sym = (near + near.T) / 2
    ts = np.linspace(0.0, 1.0, 33)
    fam = SymmetricFamily(tuple(ts), near - 2 * ts[:, None, None] * np.eye(2))
    ref = SymmetricFamily(tuple(ts), sym - 2 * ts[:, None, None] * np.eye(2))
    assert spectral_flow(fam) == spectral_flow(ref) == -2
    assert mu_lagrangian(graph_path(fam), coordinate_x(2)) == -2
    assert mu_lagrangian(graph_path(ref), coordinate_x(2)) == -2
    with pytest.raises(BadInput):
        SymmetricFamily((0.0, 1.0), (near + np.array([[0.0, 1e-6], [0.0, 0.0]]),) * 2)


def test_spectral_flow_anchors():
    assert spectral_flow(linear_family([[-1.0]], [[1.0]])) == 2
    assert spectral_flow(linear_family([[0.7]], [[0.7]])) == 0
    assert spectral_flow(
        linear_family(np.diag([-1.0, 1.0]), np.diag([1.0, 1.0]))
    ) == 2


def test_spectral_flow_near_singular_endpoint():
    with pytest.raises(IllConditioned):
        spectral_flow(linear_family([[0.0]], [[1.0]]))


def test_tol_sig_reaches_spectral_flow():
    # A(0) = 5e-9 lies in the ambiguity band at the default signature base
    # and is cleanly positive at a finer one
    fam = linear_family([[5e-9]], [[1.0]])
    with pytest.raises(IllConditioned):
        spectral_flow(fam)
    assert spectral_flow(fam, tol_sig=1e-12) == 0


def test_graph_path_anchors():
    fam = linear_family([[-1.0]], [[1.0]])
    lam = graph_path(fam)
    assert mu_lagrangian(lam, coordinate_x(1)) == 2
    assert mu_lagrangian(lam, coordinate_xstar(1)) == 0
    assert spectral_flow_path_index(fam) == 2

    zero = linear_family([[0.0]], [[0.0]])
    assert mu_lagrangian(graph_path(zero), coordinate_xstar(1)) == 0


def test_spectral_flow_formula_random(rng):
    for n in (1, 2, 3):
        done = 0
        while done < 10:
            fam = linear_family(random_symmetric(rng, n), random_symmetric(rng, n))
            try:
                sf = spectral_flow(fam)
            except IllConditioned:
                continue
            assert mu_lagrangian(graph_path(fam), coordinate_x(n)) == sf
            assert mu_symplectic(shear_path(fam), coordinate_x(n)) == sf
            assert mu_lagrangian(graph_path(fam), coordinate_xstar(n)) == 0
            done += 1


def test_robbin_salamon_axioms(rng):
    fam = linear_family([[-1.0]], [[1.0]])
    assert robbin_salamon(graph_path(fam), coordinate_x(1)) == HalfInteger(2)

    for wind in (-2, 1):
        gamma = rotation_path(1, 0.0, wind * math.pi)
        assert robbin_salamon(gamma, random_frame(rng, 1)).twice_value == 2 * wind

    for n in (1, 2):
        lam = random_lagrangian_path(rng, n)
        ell = random_frame(rng, n)
        rs = robbin_salamon(lam, ell)
        assert rs.twice_value == mu_lagrangian(lam, ell)
        lam2 = path_joining(lam.end(), random_frame(rng, n))
        assert (
            robbin_salamon(concat(lam, lam2), ell).twice_value
            == rs.twice_value + robbin_salamon(lam2, ell).twice_value
        )


def test_hormander_anchors():
    g1 = frame_from_graph(np.array([[1.0]]))
    assert hormander_xi(
        coordinate_xstar(1), g1, coordinate_x(1), coordinate_x(1)
    ) == HalfInteger(0)
    assert hormander_xi(
        coordinate_xstar(1), g1, coordinate_x(1), coordinate_xstar(1)
    ) == HalfInteger(1)


def test_hormander_path_form(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            f1, f2, f3, f4 = (random_frame(rng, n) for _ in range(4))
            lam34 = path_joining(f3, f4)
            path_form = robbin_salamon(lam34, f2).twice_value - robbin_salamon(
                lam34, f1
            ).twice_value
            assert hormander_xi(f1, f2, f3, f4).twice_value == path_form


def test_direct_sum_lift_anchors():
    a = lift_of(coordinate_xstar(1), 0)
    assert np.abs(direct_sum_lift(a, a).w - np.eye(2)).max() < 1e-12
    assert direct_sum_lift(a, a).theta == 0.0
    b = lift_of(coordinate_x(1), 0)
    summed = direct_sum_lift(a, b)
    assert np.abs(summed.w - np.diag([1.0, -1.0])).max() < 1e-12
    assert abs(summed.theta - math.pi) < 1e-12


def test_direct_sum_mu_bar(rng):
    for _ in range(10):
        l1a, l2a = random_lift(rng, 1), random_lift(rng, 1)
        l1b, l2b = random_lift(rng, 2), random_lift(rng, 2)
        assert mu_bar(
            direct_sum_lift(l1a, l1b), direct_sum_lift(l2a, l2b)
        ) == mu_bar(l1a, l2a) + mu_bar(l1b, l2b)
