import itertools

import numpy as np
import pytest

from maslov import (
    BadInput,
    IllConditioned,
    apply_symplectic,
    coordinate_x,
    coordinate_xstar,
    frame_from_graph,
    inert_index,
    kashiwara_tau,
)
from maslov.constructions import Cochain, coboundary, direct_sum_frame
from maslov.signature import triple_gram
from maslov.random_gen import random_frame, random_symmetric, random_symplectic

GRAPH1 = frame_from_graph(np.array([[1.0]]))


def test_golden_gram_eigenvalues():
    """n = 1 triple (X*, graph(1), X): the 3x3 Gram matrix of the triple
    quadratic form has closed-form eigenvalues 1/2, (sqrt5 - 1)/4,
    -(sqrt5 + 1)/4, hence signature +1."""
    G = triple_gram(coordinate_xstar(1), GRAPH1, coordinate_x(1))
    got = sorted(np.linalg.eigvalsh(G))
    s5 = np.sqrt(5.0)
    expected = sorted([0.5, (s5 - 1) / 4, -(s5 + 1) / 4])
    assert np.allclose(got, expected, atol=1e-12)


def test_tau_anchor_values():
    assert kashiwara_tau(coordinate_xstar(1), GRAPH1, coordinate_x(1)).tau == 1
    assert kashiwara_tau(coordinate_x(1), GRAPH1, coordinate_xstar(1)).tau == -1
    ell = frame_from_graph(np.array([[0.3]]))
    assert kashiwara_tau(ell, ell, coordinate_x(1)).tau == 0


def test_tau_sign_formula(rng):
    # tau(X*, graph(A), X) = sign A
    for n in (1, 2, 3):
        for _ in range(20):
            A = random_symmetric(rng, n)
            vals = np.linalg.eigvalsh(A)
            if np.abs(vals).min() < 1e-3:
                continue
            expected = int((vals > 0).sum() - (vals < 0).sum())
            got = kashiwara_tau(
                coordinate_xstar(n), frame_from_graph(A), coordinate_x(n)
            ).tau
            assert got == expected


def test_signature_counts_consistent(rng):
    for n in (1, 2, 3):
        sig = kashiwara_tau(*(random_frame(rng, n) for _ in range(3)))
        assert sig.tau == sig.positive_count - sig.negative_count
        assert sig.positive_count + sig.negative_count + sig.null_count == 3 * n
        assert abs(sig.tau) <= 3 * n


def test_tau_antisymmetry(rng):
    for n in (1, 2, 3):
        fs = [random_frame(rng, n) for _ in range(3)]
        base = kashiwara_tau(*fs).tau
        for perm in itertools.permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            assert kashiwara_tau(*(fs[i] for i in perm)).tau == sign * base


def test_tau_cocycle(rng):
    tau = Cochain(2, lambda a, b, c: kashiwara_tau(a, b, c).tau)
    for n in (1, 2, 3):
        for _ in range(20):
            fs = [random_frame(rng, n) for _ in range(4)]
            assert coboundary(tau, fs) == 0


def test_tau_sp_invariance(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            fs = [random_frame(rng, n) for _ in range(3)]
            S = random_symplectic(rng, n)
            moved = [apply_symplectic(S, f) for f in fs]
            assert kashiwara_tau(*moved).tau == kashiwara_tau(*fs).tau


def test_tau_direct_sum(rng):
    for _ in range(10):
        ta = [random_frame(rng, 1) for _ in range(3)]
        tb = [random_frame(rng, 2) for _ in range(3)]
        summed = [direct_sum_frame(a, b) for a, b in zip(ta, tb)]
        assert (
            kashiwara_tau(*summed).tau
            == kashiwara_tau(*ta).tau + kashiwara_tau(*tb).tau
        )


def test_tau_ambiguity_band_raises():
    planes = coordinate_xstar(1), frame_from_graph(np.array([[5e-9]])), coordinate_x(1)
    with pytest.raises(IllConditioned):
        kashiwara_tau(*planes)
    # a finer signature base classifies the same triple
    assert kashiwara_tau(*planes, tol_sig=1e-12).tau == 1


def test_inert_anchors():
    assert inert_index(coordinate_xstar(1), GRAPH1, coordinate_x(1)) == 1
    assert inert_index(coordinate_x(1), GRAPH1, coordinate_xstar(1)) == 0
    assert (
        inert_index(
            coordinate_xstar(2), frame_from_graph(-np.eye(2)), coordinate_x(2)
        )
        == 0
    )


def test_inert_requires_transversality():
    with pytest.raises(BadInput):
        inert_index(coordinate_x(1), coordinate_x(1), coordinate_xstar(1))
    # graph(1e-6) is transversal to X at the default rank base, not at 1e-3
    planes = coordinate_xstar(1), frame_from_graph(np.array([[1e-6]])), coordinate_x(1)
    assert inert_index(*planes) == 1
    with pytest.raises(BadInput):
        inert_index(*planes, tol_rank=1e-3)


def test_coboundary_examples(rng):
    const = Cochain(1, lambda a, b: 1)
    pts = [random_frame(rng, 1) for _ in range(3)]
    assert coboundary(const, pts) == 1

    def g(f):
        return int(1e6 * f.frame[0, 0]) % 97

    diff = Cochain(1, lambda a, b: g(b) - g(a))
    assert coboundary(diff, pts) == 0

    with pytest.raises(BadInput):
        coboundary(const, pts + pts)
