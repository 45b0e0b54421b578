import numpy as np
import pytest

from maslov import (
    BadInput,
    SymplecticMatrix,
    SymplecticPath,
    direct_sum_symplectic,
    embed_unitary,
    is_symplectic,
    omega,
    omega_matrix,
)
from maslov.random_gen import random_symplectic, random_unitary


def test_omega_anchor_values():
    z = [1.0, 0.0]  # (x, p)
    zp = [0.0, 1.0]
    assert omega(z, zp) == -1.0
    assert omega(zp, z) == 1.0
    assert omega(z, z) == 0.0


def test_omega_matrix_blocks():
    M = omega_matrix(2)
    I = np.eye(2)
    assert np.array_equal(M[:2, 2:], -I)
    assert np.array_equal(M[2:, :2], I)
    assert np.array_equal(M[:2, :2], np.zeros((2, 2)))


def test_omega_matches_matrix_form(rng):
    n = 3
    M = omega_matrix(n)
    for _ in range(20):
        a = rng.standard_normal(2 * n)
        b = rng.standard_normal(2 * n)
        assert abs(omega(a, b) - a @ M @ b) < 1e-12


def test_omega_reads_the_blocks(rng):
    # the form needs no dense 2n x 2n matrix, so none is built or cached
    n = 1000
    z, zp = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
    before = omega_matrix.cache_info().currsize
    omega(z, zp)
    assert omega_matrix.cache_info().currsize == before
    assert omega(z, z) == 0.0
    for n in (1, 2, 5):
        M = omega_matrix(n)
        for _ in range(20):
            a, b = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            assert abs(omega(a, b) - a @ M @ b) <= 1e-12


def test_omega_dimension_mismatch():
    # two lengths, an odd length, no entries, and matrices: none is a pair
    # of (x, p) vectors of one even, non-zero length
    for z, zp in [
        ([1.0, 0.0], [1, 0, 0, 1]),
        ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([], []),
        (np.eye(2), np.eye(2)),
    ]:
        with pytest.raises(BadInput, match="^omega needs two vectors"):
            omega(z, zp)


def test_is_symplectic_examples():
    assert is_symplectic(np.eye(2))
    t = 0.7
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert is_symplectic(rot)
    assert not is_symplectic(np.diag([2.0, 1.0]))


def test_is_symplectic_rejects_odd_dimension():
    with pytest.raises(BadInput):
        is_symplectic(np.eye(3))


def _shear_with_defect(a, defect):
    """[[1, 0], [a, 1 + defect]]: S^T M S - M has max entry `defect`."""
    return np.array([[1.0, 0.0], [a, 1.0 + defect]])


#: name -> (S, accepted by the symplecticity rule, whose bound is
#: 1e-8 * max(1, ||S||_max^2): 1e-8 at unit scale, 1e-2 for ||S||_max = 1e3)
RULE_CASES = {
    "exact": (_shear_with_defect(0.5, 0.0), True),
    "shear-1e3": (_shear_with_defect(1e3, 0.0), True),
    "under-unit": (_shear_with_defect(0.5, 0.9e-8), True),
    "over-unit": (_shear_with_defect(0.5, 1.1e-8), False),
    "under-1e3": (_shear_with_defect(1e3, 0.9e-2), True),
    "over-1e3": (_shear_with_defect(1e3, 1.1e-2), False),
    "nan": (_shear_with_defect(float("nan"), 0.0), False),
}


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_matrix_and_path_share_one_rule(name):
    S, accepted = RULE_CASES[name]

    def accepts(make):
        try:
            make()
        except BadInput:
            return False
        return True

    assert is_symplectic(S) is accepted
    assert accepts(lambda: SymplecticMatrix(S)) is accepted
    assert accepts(lambda: SymplecticPath((0.0, 1.0), (np.eye(2), S))) is accepted


def test_stacked_check_matches_single_matrices(rng):
    # SymplecticPath checks its samples as one stack; a stack passes iff
    # every matrix passes the rule on its own, written here as a loop body
    accepted = 0
    for n in (1, 2, 3):
        M = omega_matrix(n)
        for _ in range(40):
            A = np.diag(rng.uniform(-1, 1, n)) * 10 ** rng.uniform(0, 3)
            S = random_symplectic(rng, n).entries @ np.block(
                [[np.eye(n), np.zeros((n, n))], [A, np.eye(n)]]
            )
            # noise whose defect lands on either side of the rule
            S = S + rng.standard_normal(S.shape) * 10 ** rng.uniform(-10, -7) * np.abs(S).max()
            big = np.abs(S).max()
            alone = bool(np.abs(S.T @ M @ S - M).max() <= 1e-8 * max(1.0, big**2))
            accepted += alone
            assert is_symplectic(S) is alone
            assert is_symplectic(np.stack([np.eye(2 * n), S])) is alone
            assert is_symplectic(np.stack([S, S])) is alone
    assert 20 < accepted < 100


def test_symplectic_matrix_validates():
    with pytest.raises(BadInput):
        SymplecticMatrix(np.diag([2.0, 1.0]))
    SymplecticMatrix(np.eye(4))


def test_embed_unitary_anchors():
    n = 2
    ident = embed_unitary(np.eye(n))
    assert np.abs(ident.entries - np.eye(2 * n)).max() < 1e-14
    jmat = embed_unitary(1j * np.eye(n))
    assert np.abs(jmat.entries - omega_matrix(n)).max() < 1e-14
    alpha = 0.3
    rot = embed_unitary([[np.exp(1j * alpha)]])
    expected = np.array(
        [[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]]
    )
    assert np.abs(rot.entries - expected).max() < 1e-14


def test_embed_unitary_rejects_non_unitary():
    # the frame rule at TOL_SYM: 2e-9 off unitary passes SymplecticMatrix's
    # looser 1e-8 test, but not this one
    with pytest.raises(BadInput):
        embed_unitary(2 * np.eye(2))
    with pytest.raises(BadInput, match="^frame columns are not orthonormal$"):
        embed_unitary((1 + 1e-9) * np.eye(2))
    assert is_symplectic(np.eye(4) * (1 + 1e-9))
    with pytest.raises(BadInput, match="^a unitary must be a non-empty square matrix$"):
        embed_unitary(np.eye(2, 3))


def test_embedded_unitaries_are_symplectic(rng):
    for n in (1, 2, 3):
        for _ in range(25):
            u = random_unitary(rng, n)
            S = embed_unitary(u)
            assert is_symplectic(S.entries)


def test_direct_sum_acts_blockwise():
    # J (+) I maps x' to p' and fixes the second block
    J = SymplecticMatrix(omega_matrix(1))
    I = SymplecticMatrix(np.eye(2))
    T = direct_sum_symplectic(J, I).entries
    z = np.array([1.0, 0.0, 0.0, 0.0])  # (x', x'', p', p'')
    out = T @ z
    assert np.abs(out - np.array([0.0, 0.0, 1.0, 0.0])).max() < 1e-14


def test_direct_sum_composes(rng):
    for _ in range(10):
        a1, a2 = random_symplectic(rng, 1), random_symplectic(rng, 1)
        b1, b2 = random_symplectic(rng, 2), random_symplectic(rng, 2)
        lhs = (
            direct_sum_symplectic(a1, b1).entries
            @ direct_sum_symplectic(a2, b2).entries
        )
        rhs = direct_sum_symplectic(
            SymplecticMatrix(a1.entries @ a2.entries),
            SymplecticMatrix(b1.entries @ b2.entries),
        ).entries
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())
