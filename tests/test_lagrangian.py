import numpy as np
import pytest

from maslov import (
    BadInput,
    IllConditioned,
    LagrangianFrame,
    LagrangianPath,
    SymmetricFamily,
    SymplecticMatrix,
    SymplecticPath,
    apply_symplectic,
    coordinate_x,
    coordinate_xstar,
    direct_sum_frame,
    embed_unitary,
    frame_from_graph,
    frame_from_unitary,
    frame_from_w,
    graph_path,
    intersection_dim,
    is_symplectic,
    left_translate,
    lift_of,
    omega,
    omega_matrix,
    shear_path,
    souriau_w,
    symplectic_path_from_algebra,
    transversal_companion,
    unitary_path,
)
from maslov.defaults import TOL_SYM
from maslov.derived import matrix_signature
from maslov.lagrangian import is_symmetric, transport_frames
from maslov.paths import same_plane
from maslov.verify import winding_integral
from maslov.random_gen import (
    random_frame,
    random_frame_intersecting,
    random_symmetric,
    random_symplectic,
)


def test_frame_from_graph_anchors():
    f = frame_from_graph(np.zeros((2, 2)))
    assert same_plane(f, coordinate_x(2))

    f1 = frame_from_graph(np.array([[1.0]]))
    s = 1 / np.sqrt(2)
    assert np.abs(f1.frame - s).max() < 1e-12

    f2 = frame_from_graph(np.diag([1.0, 0.0]))
    span = f2.frame
    expected = np.array([[s, 0.0], [0.0, 1.0], [s, 0.0], [0.0, 0.0]])
    # same column span
    assert np.linalg.matrix_rank(np.hstack([span, expected]), tol=1e-8) == 2


def test_frame_validation():
    with pytest.raises(BadInput):
        LagrangianFrame(np.vstack([np.eye(2), np.eye(2)]))  # not orthonormal
    with pytest.raises(BadInput):
        # orthonormal but not isotropic: span{(x1, p2-ish)} cross terms
        LagrangianFrame(np.vstack([
            np.array([[1.0, 0.0], [0.0, 0.0]]) / np.sqrt(2),
            np.array([[0.0, 1.0], [1.0, 0.0], ])[::-1] / np.sqrt(2),
        ]))


NAN = float("nan")
NAN_INPUTS = {
    "frame-x": lambda: LagrangianFrame(np.vstack([[[NAN]], [[1.0]]])),
    "frame-p": lambda: LagrangianFrame(np.vstack([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, NAN]]])),
    "frame-square": lambda: LagrangianFrame([[1.0, 0.0], [NAN, 1.0]]),
    "frame-odd-rows": lambda: LagrangianFrame([[1.0], [0.0], [NAN]]),
    "frame-3d": lambda: LagrangianFrame([[[1.0], [NAN]]]),
    "souriau": lambda: frame_from_w([[NAN]]),
    "family": lambda: SymmetricFamily((0.0, 1.0), ([[1.0]], [[NAN]])),
    "symplectic-path": lambda: SymplecticPath(
        (0.0, 1.0), (np.eye(2), np.array([[1.0, 0.0], [NAN, 1.0]]))
    ),
    "lagrangian-path": lambda: LagrangianPath((0.0, 1.0), [[[1.0], [0.0]], [[NAN], [1.0]]]),
    "graph-plane": lambda: frame_from_graph(np.array([[NAN]])),
    "unitary-embedding": lambda: embed_unitary([[NAN]]),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_constructors_reject_nan(name):
    # a NaN error fails every `err > tol` test, so the checks read `not err <= tol`
    with pytest.raises(BadInput):
        NAN_INPUTS[name]()


EMPTY = np.zeros((0, 0))
EMPTY_INPUTS = {
    "frame": lambda: LagrangianFrame(np.vstack([EMPTY, EMPTY])),
    "frame-empty": lambda: LagrangianFrame(np.zeros((0,))),
    "frame-square": lambda: LagrangianFrame(np.eye(2)),
    "frame-odd-rows": lambda: LagrangianFrame(np.eye(5, 2)),
    "frame-3d": lambda: LagrangianFrame(np.eye(4, 2)[None]),
    "lagrangian-path-square": lambda: LagrangianPath((0.0, 1.0), np.stack([np.eye(2)] * 2)),
    "lagrangian-path-odd-rows": lambda: LagrangianPath((0.0, 1.0), np.stack([np.eye(5, 2)] * 2)),
    "souriau": lambda: frame_from_w(EMPTY),
    "symplectic-matrix": lambda: SymplecticMatrix(EMPTY),
    "symplectic-path": lambda: SymplecticPath((0.0, 1.0), (EMPTY, EMPTY)),
    "lagrangian-path": lambda: LagrangianPath((0.0, 1.0), np.zeros((2, 0, 0))),
    "is-symplectic": lambda: is_symplectic(EMPTY),
    "unitary-embedding": lambda: embed_unitary(EMPTY),
    "family": lambda: SymmetricFamily((0.0, 1.0), (EMPTY, EMPTY)),
    "graph-plane": lambda: frame_from_graph(EMPTY),
}


@pytest.mark.parametrize("name", sorted(EMPTY_INPUTS))
def test_constructors_reject_zero_dimension(name):
    # n = 0 fails the shape check, before any max over an empty array
    with pytest.raises(BadInput):
        EMPTY_INPUTS[name]()


# caller arrays that numpy reads as no numeric array, or converts silently
MALFORMED = {
    "ragged": [[1.0], [0.0, 1.0]],
    "string": [["0.5"]],
    "boolean": [[True]],
    "none": None,
}
X1 = np.eye(2, 1)
I2 = np.stack([np.eye(2)] * 2)


def _family_generating(out):
    return SymmetricFamily.from_function(lambda ts: out, 2)


# every entry point that reads a caller array, including the output of a
# caller's family function
INTAKE_SITES = {
    "frame": LagrangianFrame,
    "graph-plane": frame_from_graph,
    "unitary-plane": frame_from_unitary,
    "w-plane": frame_from_w,
    "apply-symplectic": lambda x: apply_symplectic(x, coordinate_x(1)),
    "vector": lambda x: omega(x, [0.0, 0.0]),
    "is-symplectic": is_symplectic,
    "symplectic-matrix": SymplecticMatrix,
    "unitary-embedding": embed_unitary,
    "lagrangian-path": lambda x: LagrangianPath((0.0, 1.0), x),
    "lagrangian-path-tol": lambda x: LagrangianPath((0.0, 1.0), np.stack([X1] * 2), x),
    "path-times": lambda x: SymplecticPath(x, I2),
    "symplectic-path": lambda x: SymplecticPath((0.0, 1.0), x),
    "family": lambda x: SymmetricFamily((0.0, 1.0), x),
    "linear-family": lambda x: SymmetricFamily.linear(x, [[0.0]]),
    "left-translate": lambda x: left_translate(x, SymplecticPath((0.0, 1.0), I2)),
    "algebra": symplectic_path_from_algebra,
    "algebra-start": lambda x: symplectic_path_from_algebra(np.zeros((2, 2)), start=x),
    "signature": matrix_signature,
    "generated-frames": lambda x: winding_integral(lambda ts: x),
    "graph-generator": lambda x: graph_path(_family_generating(x)),
    "shear-generator": lambda x: shear_path(_family_generating(x)),
    "unitary-path": lambda x: unitary_path(x, np.zeros((1, 1))),
    "unitary-path-hermitian": lambda x: unitary_path(np.eye(1), x),
}


@pytest.mark.parametrize(
    "site, kind",
    [
        (site, kind)
        for site in sorted(INTAKE_SITES)
        for kind in sorted(MALFORMED)
        if (site, kind) != ("algebra-start", "none")  # start=None is the identity
    ],
)
def test_intake_rejects_malformed_arrays(site, kind):
    # one intake rule reads every caller array: no numpy error escapes, and
    # no string or boolean is converted
    with pytest.raises(BadInput):
        INTAKE_SITES[site](MALFORMED[kind])


@pytest.mark.parametrize("n", range(1, 9))
def test_souriau_w_accepts_every_valid_frame(n):
    # X = 0, P = H (I + d v v^t) with H the reflection taking v to e1: the
    # orthonormality defect of the frame sits just inside TOL_SYM, and the
    # unitarity defect of w = P P^t is 2n times as large, which a fixed
    # 10 * TOL_SYM rejected for n >= 6
    v = np.ones(n) / np.sqrt(n)
    r = v - np.eye(n)[0]
    H = np.eye(n) - 2 * np.outer(r, r) / (r @ r) if n > 1 else np.eye(1)
    d = 0.49 * n * TOL_SYM
    frame = LagrangianFrame(np.vstack([np.zeros((n, n)), H @ (np.eye(n) + d * np.outer(v, v))]))
    P = frame.frame[n:]
    defect = np.abs(P.T @ P - np.eye(n)).max()
    assert 0.9 * TOL_SYM < defect <= TOL_SYM
    w = souriau_w(frame)
    assert np.abs(w @ w.conj().T - np.eye(n)).max() > 1.9 * n * defect
    assert same_plane(frame, coordinate_xstar(n))


def _frame_error(F, n):
    """The larger of the orthonormality and isotropy defects of [X; P]."""
    X, P = F[:n], F[n:]
    orth = np.abs(X.T @ X + P.T @ P - np.eye(n)).max()
    return max(orth, np.abs(X.T @ P - P.T @ X).max())


@pytest.mark.parametrize("n", range(1, 9))
def test_souriau_w_meets_the_former_souriau_matrix_bound(n, rng):
    # the oracle of the check souriau_w no longer makes: every frame the
    # frame rule accepts at tol, pushed to just inside that bound, gives a
    # w symmetric and unitary within max(10, 4n) * max(tol, TOL_SYM)
    v = np.ones(n) / np.sqrt(n)
    for _ in range(5):
        F = random_frame(rng, n).frame
        shear = np.block([[np.eye(n), np.zeros((n, n))], [random_symmetric(rng, n, 3.0), np.eye(n)]])
        _, transported = transport_frames(shear, F, TOL_SYM)
        E = rng.standard_normal((n, n))
        directions = (F @ np.outer(v, v), F @ (E + E.T), rng.standard_normal((2 * n, n)))
        for tol in (TOL_SYM, float(transported)):
            for D in directions:
                # the defect is linear in a perturbation this small
                G = F + 0.99 * tol / _frame_error(F + tol * D, n) * tol * D
                defect = _frame_error(G, n)
                assert 0.9 * tol < defect <= tol
                w = souriau_w(LagrangianFrame(G, tol=tol))
                bound = max(10, 4 * n) * max(tol, TOL_SYM)
                assert np.abs(w - w.T).max() <= bound
                assert np.abs(w @ w.conj().T - np.eye(n)).max() <= bound


#: a matrix whose asymmetry 5e-8 is inside the relative rule (1e-10 * 1001)
#: and outside the former absolute 1e-10 of frame_from_graph
NEAR_SYMMETRIC = np.array([[1000.0, 1000.0 + 5e-8], [1000.0, 1001.0]])


def test_one_symmetric_rule():
    assert is_symmetric(NEAR_SYMMETRIC)
    assert not is_symmetric(np.array([[1000.0, 1000.0 + 5e-7], [1000.0, 1001.0]]))
    assert not is_symmetric(np.array([[0.0, 2e-10], [0.0, 0.0]]))
    assert not is_symmetric(np.array([[1.0, NAN], [NAN, 1.0]]))
    # the graph of a near-symmetric matrix is the graph of its symmetric part
    sym = (NEAR_SYMMETRIC + NEAR_SYMMETRIC.T) / 2
    assert same_plane(frame_from_graph(NEAR_SYMMETRIC), frame_from_graph(sym))


def test_souriau_anchors():
    n = 2
    assert np.abs(souriau_w(coordinate_xstar(n)) - np.eye(n)).max() < 1e-12
    assert np.abs(souriau_w(coordinate_x(n)) + np.eye(n)).max() < 1e-12
    w = souriau_w(frame_from_graph(np.array([[1.0]])))
    assert abs(w[0, 0] + 1j) < 1e-12


def test_souriau_graph_formula(rng):
    # n = 1: w = (a^2 - 1 - 2ia) / (1 + a^2)
    for a in (-2.0, -0.5, 0.0, 0.3, 4.0):
        w = souriau_w(frame_from_graph(np.array([[a]])))[0, 0]
        assert abs(w - (a * a - 1 - 2j * a) / (1 + a * a)) < 1e-12


def test_souriau_frame_independent(rng):
    for n in (1, 2, 3):
        f = random_frame(rng, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rotated = LagrangianFrame(f.frame @ q)
        assert np.abs(souriau_w(f) - souriau_w(rotated)).max() < 1e-10


def test_frame_from_w_roundtrip(rng):
    for n in (1, 2, 3):
        for _ in range(30):
            w = souriau_w(random_frame(rng, n))
            assert np.abs(souriau_w(frame_from_w(w)) - w).max() < 1e-8
    # repeated-eigenvalue cases
    assert same_plane(frame_from_w(np.eye(2)), coordinate_xstar(2))
    assert same_plane(frame_from_w(-np.eye(2)), coordinate_x(2))


def test_intersection_dim_anchors():
    k = intersection_dim(coordinate_x(2), coordinate_xstar(2))
    assert type(k) is int and k == 0
    f = frame_from_graph(np.array([[0.7, 0.1], [0.1, -0.2]]))
    assert intersection_dim(f, f) == 2
    g = frame_from_graph(np.diag([1.0, 0.0]))
    assert intersection_dim(g, coordinate_x(2)) == 1


def test_intersection_dim_exact_coranks(rng):
    for n in (2, 3):
        for k in range(n + 1):
            f1 = random_frame(rng, n)
            f2 = random_frame_intersecting(rng, f1, k)
            assert intersection_dim(f1, f2) == k


def test_intersection_dim_ambiguity_band():
    # two planes separated by an angle right at the rank tolerance scale
    eps = 3e-9
    f1 = coordinate_x(1)
    f2 = frame_from_graph(np.array([[eps]]))
    with pytest.raises(IllConditioned):
        intersection_dim(f1, f2)


def test_apply_symplectic_anchors():
    n = 2
    J = SymplecticMatrix(omega_matrix(n))
    assert same_plane(apply_symplectic(J, coordinate_x(n)), coordinate_xstar(n))
    A = np.array([[0.4, 0.1], [0.1, -1.2]])
    shear = SymplecticMatrix(
        np.block([[np.eye(n), np.zeros((n, n))], [A, np.eye(n)]])
    )
    assert same_plane(apply_symplectic(shear, coordinate_x(n)), frame_from_graph(A))


def test_transversal_companion(rng):
    f3 = transversal_companion(coordinate_x(1), coordinate_xstar(1))
    assert intersection_dim(f3, coordinate_x(1)) == 0
    assert intersection_dim(f3, coordinate_xstar(1)) == 0
    # eigenphases are {pi, 0}; the maximin phase is +-pi/2
    w = souriau_w(f3)[0, 0]
    assert abs(abs(w.imag) - 1.0) < 1e-9

    for n in (1, 2, 3):
        f = random_frame(rng, n)
        comp = transversal_companion(f, f)
        assert intersection_dim(comp, f) == 0


def test_dims_symplectic_invariant(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            f1 = random_frame(rng, n)
            f2 = random_frame_intersecting(rng, f1, int(rng.integers(0, n + 1)))
            k = intersection_dim(f1, f2)
            S = random_symplectic(rng, n)
            assert intersection_dim(
                apply_symplectic(S, f1), apply_symplectic(S, f2)
            ) == k


def test_direct_sum_frame_dims(rng):
    fa = random_frame(rng, 1)
    fb = random_frame(rng, 2)
    f = direct_sum_frame(fa, fb)
    assert f.n == 3
    wa = souriau_w(fa)
    wb = souriau_w(fb)
    w = souriau_w(f)
    assert abs(np.linalg.det(w) - np.linalg.det(wa) * np.linalg.det(wb)) < 1e-10


def test_frames_compare_and_hash_by_identity():
    # the generated __eq__ compared the frame arrays, which raised, and
    # the generated __hash__ hashed them, which raised too
    assert (coordinate_x(1) == LagrangianFrame(np.eye(2, 1))) is False
    assert {coordinate_x(1)} == {coordinate_x(1)}


#: a constructor of each frozen dataclass with an array field
ARRAY_CLASSES = {
    "frame": lambda: LagrangianFrame(np.eye(2, 1)),
    "lift": lambda: lift_of(coordinate_x(1)),
    "lagrangian-path": lambda: LagrangianPath((0.0, 1.0), np.stack([np.eye(2, 1)] * 2)),
    "symplectic-path": lambda: SymplecticPath((0.0, 1.0), np.stack([np.eye(2)] * 2)),
    "family": lambda: SymmetricFamily((0.0, 1.0), np.zeros((2, 1, 1))),
    "matrix": lambda: SymplecticMatrix(np.eye(2)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CLASSES))
def test_array_classes_compare_by_identity(name):
    a, b = ARRAY_CLASSES[name](), ARRAY_CLASSES[name]()
    assert a == a and (a == b) is False and len({a, b}) == 2
