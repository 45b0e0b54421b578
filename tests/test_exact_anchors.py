"""Exact anchors for the triple index: tau(X*, graph A, X) = sign A, with
sign A computed in exact rational arithmetic by sympy, independently of the
floating-point eigenvalue routines the library decides with."""

import numpy as np
import pytest
import sympy

from maslov import coordinate_x, coordinate_xstar, frame_from_graph, kashiwara_tau


def _sign_changes(coefficients) -> int:
    nonzero = [c for c in coefficients if c != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def exact_signature(A: sympy.Matrix) -> int:
    """sign A of a rational symmetric matrix.  Its characteristic polynomial
    has only real roots, so Descartes' rule of signs counts the positive
    roots exactly, and applied to p(-x) the negative ones."""
    coefficients = A.charpoly().all_coeffs()  # highest degree first
    n = len(coefficients) - 1
    reflected = [c * (-1) ** (n - k) for k, c in enumerate(coefficients)]
    return _sign_changes(coefficients) - _sign_changes(reflected)


def _rational_symmetric(rng, n, rank=None) -> sympy.Matrix:
    """Entries p/q with |p| <= 6, 1 <= q <= 4; with ``rank``, the matrix
    M^T D M of a diagonal D with n - rank zeros, so it is exactly singular."""
    if rank is None:
        entries = {}
        for i in range(n):
            for j in range(i, n):
                p, q = int(rng.integers(-6, 7)), int(rng.integers(1, 5))
                entries[i, j] = entries[j, i] = sympy.Rational(p, q)
        return sympy.Matrix(n, n, lambda i, j: entries[i, j])
    M = sympy.Matrix(n, n, lambda i, j: int(rng.integers(-3, 4)))
    D = sympy.diag(*[int(rng.choice([-2, -1, 1, 2])) for _ in range(rank)], *[0] * (n - rank))
    return M.T * D * M


def test_exact_signature_anchors():
    # the oracle itself on matrices whose inertia is known by construction
    assert exact_signature(sympy.diag(3, -1, 2, sympy.Rational(-1, 7))) == 0
    assert exact_signature(sympy.diag(1, 1, 0, -5)) == 1
    assert exact_signature(sympy.Matrix([[0, 1], [1, 0]])) == 0
    assert exact_signature(sympy.Matrix([[2, 1], [1, 2]])) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_tau_of_graph_plane_is_exact_signature(n):
    rng = np.random.default_rng(4200 + n)
    xstar, x = coordinate_xstar(n), coordinate_x(n)
    drawn = [_rational_symmetric(rng, n) for _ in range(6)]
    drawn += [_rational_symmetric(rng, n, rank=r) for r in range(n)]
    for A in drawn:
        graph = frame_from_graph(np.array(A.tolist(), dtype=float))
        assert kashiwara_tau(xstar, graph, x).tau == exact_signature(A), A
