"""Acceptance gate: fifteen exact-identity criteria over seeded random
instances in dimensions 1 through 5.

Each test prints a single PASS/FAIL line (bypassing capture) and then
asserts, so a red test always corresponds to a visible FAIL line.  All
comparisons are exact integer (or twice-value) equalities except the
winding quadrature cross-check, which is pinned at 1e-6 before rounding.
Where a criterion draws exactly what a registered ``maslov.verify`` check
body draws, it runs that body over its own dimensions instead of restating
the identity.
"""

import functools
import itertools
import math

import numpy as np

from maslov import (
    SymplecticMatrix,
    HalfInteger,
    SymmetricFamily,
    apply_symplectic,
    concat,
    concat_symplectic,
    coordinate_x,
    coordinate_xstar,
    deck_apply,
    direct_sum_frame,
    direct_sum_lift,
    frame_from_graph,
    graph_path,
    inert_index,
    intersection_dim,
    kashiwara_tau,
    keller_maslov,
    left_translate,
    lift_of,
    lift_path,
    mu_bar,
    mu_ell,
    mu_lagrangian,
    mu_symplectic,
    reverse,
    robbin_salamon,
    rotation_path,
    shear_path,
    souriau_m,
    spectral_flow,
    symplectic_path_from_algebra,
    unitary_path,
)
from maslov.errors import IllConditioned
from maslov.paths import rotation_unitaries
from maslov.random_gen import (
    random_algebra_element,
    random_frame,
    random_frame_intersecting,
    random_lagrangian_path,
    random_lift,
    random_symmetric,
    random_symplectic_path,
    random_unitary_family,
)
from maslov.verify import (
    check_change_of_reference,
    check_hormander,
    check_mu_bar_coboundary,
    check_mu_symplectic_endpoint_form,
    check_sp_cover_invariance,
    check_symplectic_invariance,
    check_tau_antisymmetry,
    check_tau_cocycle,
    check_tau_sp_invariance,
    direct_sum_path,
    mu_bar_via_companion,
    there_and_back,
    winding_integral,
)

DIMS = (1, 2, 3, 4, 5)
SEED = 1789


def _rng(criterion: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((SEED, criterion)))


def _report(capsys, num: int, desc: str, ok: bool):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _cycle_dims(count: int):
    return itertools.islice(itertools.cycle(DIMS), count)


def _holds(body, rng, count: int) -> bool:
    """Run a registered verify body once per dimension of _cycle_dims(count);
    every instance is drawn and checked even after a violation."""
    ok = True
    for n in _cycle_dims(count):
        try:
            body(rng, n)
        except AssertionError:
            ok = False
    return ok


def _bounded_symmetric(rng, n, floor=1e-3):
    while True:
        A = random_symmetric(rng, n)
        vals = np.linalg.eigvalsh(A)
        if np.abs(vals).min() >= floor:
            return A, int((vals > 0).sum() - (vals < 0).sum())


def test_criterion_01_tau_graph_signature(capsys):
    rng = _rng(1)
    ok = True
    for n in DIMS:
        for _ in range(200):
            A, sign = _bounded_symmetric(rng, n)
            tau = kashiwara_tau(
                coordinate_xstar(n), frame_from_graph(A), coordinate_x(n)
            ).tau
            ok = ok and tau == sign
    _report(capsys, 1, "tau(X*, graph A, X) = sign A (200 per dimension)", ok)


def test_criterion_02_tau_cocycle_antisymmetry_invariance(capsys):
    rng = _rng(2)
    ok = all(
        [
            _holds(check_tau_cocycle, rng, 1000),
            _holds(check_tau_antisymmetry, rng, 500),
            _holds(check_tau_sp_invariance, rng, 500),
        ]
    )
    _report(capsys, 2, "tau cocycle, antisymmetry, Sp-invariance (1000/500/500)", ok)


def test_criterion_03_mu_bar_coboundary(capsys):
    ok = _holds(check_mu_bar_coboundary, _rng(3), 500)
    _report(capsys, 3, "coboundary of the Leray index equals tau (500 triples)", ok)


def test_criterion_04_deck_equivariance(capsys):
    rng = _rng(4)
    ok = True
    for n in _cycle_dims(500):
        l1, l2 = random_lift(rng, n), random_lift(rng, n)
        base = mu_bar(l1, l2)
        k1 = int(rng.integers(-3, 4))
        k2 = int(rng.integers(-3, 4))
        got = mu_bar(deck_apply(k1, l1), deck_apply(k2, l2))
        ok = ok and got - base == 2 * (k1 - k2)
    for n in (1, 3, 5):
        l1, l2 = random_lift(rng, n), random_lift(rng, n)
        base = mu_bar(l1, l2)
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                got = mu_bar(deck_apply(k1, l1), deck_apply(k2, l2))
                ok = ok and got - base == 2 * (k1 - k2)
    _report(capsys, 4, "deck equivariance shift 2(k1 - k2), k in [-3, 3]", ok)


def test_criterion_05_companion_independence(capsys):
    rng = _rng(5)
    ok = True
    for n in itertools.islice(itertools.cycle((2, 3, 4, 5)), 200):
        f1 = random_frame(rng, n)
        f2 = random_frame_intersecting(rng, f1, int(rng.integers(1, n + 1)))
        l1 = lift_of(f1, int(rng.integers(-2, 3)))
        l2 = lift_of(f2, int(rng.integers(-2, 3)))
        base = mu_bar(l1, l2)
        done = 0
        while done < 20:
            cand = random_frame(rng, n)
            if (
                intersection_dim(cand, f1) != 0
                or intersection_dim(cand, f2) != 0
            ):
                continue
            comp = lift_of(cand, int(rng.integers(-2, 3)))
            ok = ok and mu_bar_via_companion(l1, l2, comp) == base
            done += 1
    _report(capsys, 5, "companion independence (200 pairs x 20 companions)", ok)


def test_criterion_06_inertia_cocycle(capsys):
    rng = _rng(6)
    ok = True
    checked = 0
    for n in itertools.cycle(DIMS):
        fs = [random_frame(rng, n) for _ in range(3)]
        if any(
            intersection_dim(fs[i], fs[j]) != 0
            for i, j in ((0, 1), (0, 2), (1, 2))
        ):
            continue
        lifts = [lift_of(f, int(rng.integers(-2, 3))) for f in fs]
        lhs = (
            souriau_m(lifts[0], lifts[1])
            - souriau_m(lifts[0], lifts[2])
            + souriau_m(lifts[1], lifts[2])
        )
        ok = ok and lhs == inert_index(*fs)
        checked += 1
        if checked >= 500:
            break
    _report(capsys, 6, "m-cocycle equals the index of inertia (500 triples)", ok)


def test_criterion_07_loop_axioms(capsys):
    rng = _rng(7)
    ok = keller_maslov(rotation_path(1, 0.0, math.pi)) == 1
    for n in (1, 2):
        for wind in range(-3, 4):
            gamma = rotation_path(n, 0.0, wind * math.pi)
            ok = ok and keller_maslov(gamma) == wind
            for ell in (
                coordinate_x(n),
                coordinate_xstar(n),
                frame_from_graph(random_symmetric(rng, n)),
                random_frame(rng, n),
            ):
                ok = ok and mu_lagrangian(gamma, ell) == 2 * wind
    for _ in range(30):
        n = int(rng.integers(1, 3))
        w1, w2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        loop = concat(
            rotation_path(n, 0.0, w1 * math.pi), rotation_path(n, 0.0, w2 * math.pi)
        )
        ok = ok and keller_maslov(loop) == w1 + w2
    _report(capsys, 7, "loop axioms: generator, L4, concatenation additivity", ok)


def test_criterion_08_spectral_flow_formula(capsys):
    rng = _rng(8)
    ok = True
    done = 0
    for n in itertools.cycle(DIMS):
        fam = SymmetricFamily.linear(
            random_symmetric(rng, n), random_symmetric(rng, n), samples=21
        )
        try:
            sf = spectral_flow(fam)
        except IllConditioned:
            continue
        ok = ok and mu_lagrangian(graph_path(fam), coordinate_x(n)) == sf
        ok = ok and mu_symplectic(shear_path(fam), coordinate_x(n)) == sf
        ok = ok and mu_lagrangian(graph_path(fam), coordinate_xstar(n)) == 0
        done += 1
        if done >= 200:
            break
    _report(capsys, 8, "spectral-flow formula and X* nullity (200 families)", ok)


def test_criterion_09_robbin_salamon(capsys):
    rng = _rng(9)
    fam = SymmetricFamily.linear(np.array([[-1.0]]), np.array([[1.0]]))
    ok = robbin_salamon(graph_path(fam), coordinate_x(1)) == HalfInteger(2)
    for n in _cycle_dims(100):
        lam = random_lagrangian_path(rng, n)
        ell = random_frame(rng, n)
        ok = ok and robbin_salamon(lam, ell).twice_value == mu_lagrangian(lam, ell)
    for n in (1, 2):
        for wind in (-3, -1, 2):
            gamma = rotation_path(n, 0.0, wind * math.pi)
            ok = ok and robbin_salamon(gamma, random_frame(rng, n)).twice_value == 2 * wind
    _report(capsys, 9, "Robbin-Salamon is half the canonical index; value 1 on RSF", ok)


def test_criterion_10_hormander(capsys):
    ok = _holds(check_hormander, _rng(10), 200)
    _report(capsys, 10, "Hormander signature form equals path form (200 quadruples)", ok)


def test_criterion_11_symplectic_invariance(capsys):
    rng = _rng(11)
    ok = all(
        [
            _holds(check_symplectic_invariance, rng, 300),
            _holds(check_sp_cover_invariance, rng, 100),
        ]
    )
    _report(capsys, 11, "symplectic and cover-level invariance (300 + 100)", ok)


def test_criterion_12_mu_ell_formulas(capsys):
    rng = _rng(12)
    ok = True
    for n in _cycle_dims(200):
        ell, ellp = random_frame(rng, n), random_frame(rng, n)
        s1p = random_symplectic_path(rng, n)
        Z2 = random_algebra_element(rng, n)
        s1 = s1p.end()
        # s2p on the grid certified for its left translate s1 . s2p
        grid = symplectic_path_from_algebra(Z2, start=s1, samples=17).times
        s2p = symplectic_path_from_algebra(Z2, samples=len(grid))
        prod = concat_symplectic(s1p, left_translate(s1, s2p))
        f1 = apply_symplectic(SymplecticMatrix(s1), ell)
        f12 = apply_symplectic(
            SymplecticMatrix(s1 @ s2p.end()), ell
        )
        ok = ok and mu_ell(prod, ell) == (
            mu_ell(s1p, ell) + mu_ell(s2p, ell) + kashiwara_tau(ell, f1, f12).tau
        )
        sl = apply_symplectic(SymplecticMatrix(s1), ell)
        slp = apply_symplectic(SymplecticMatrix(s1), ellp)
        ok = ok and mu_ell(s1p, ell) - mu_ell(s1p, ellp) == (
            kashiwara_tau(sl, ell, ellp).tau - kashiwara_tau(sl, slp, ellp).tau
        )
    ok = _holds(check_mu_symplectic_endpoint_form, rng, 50) and ok
    _report(capsys, 12, "product, base-change and endpoint formulas (200 + 50)", ok)


def test_criterion_13_direct_sums(capsys):
    rng = _rng(13)
    ok = True
    for n1, n2 in itertools.islice(
        itertools.cycle([(1, 1), (1, 2), (2, 1), (2, 2)]), 500
    ):
        l1a, l2a = random_lift(rng, n1), random_lift(rng, n1)
        l1b, l2b = random_lift(rng, n2), random_lift(rng, n2)
        ok = ok and mu_bar(
            direct_sum_lift(l1a, l1b), direct_sum_lift(l2a, l2b)
        ) == mu_bar(l1a, l2a) + mu_bar(l1b, l2b)
        ta = [random_frame(rng, n1) for _ in range(3)]
        tb = [random_frame(rng, n2) for _ in range(3)]
        summed = [direct_sum_frame(a, b) for a, b in zip(ta, tb)]
        ok = ok and (
            kashiwara_tau(*summed).tau
            == kashiwara_tau(*ta).tau + kashiwara_tau(*tb).tau
        )
    for n1, n2 in itertools.islice(
        itertools.cycle([(1, 1), (1, 2), (2, 1), (2, 2)]), 60
    ):
        family_a = random_unitary_family(rng, n1)
        family_b = random_unitary_family(rng, n2)
        lamA, lamB = unitary_path(*family_a, 17), unitary_path(*family_b, 17)
        summed = direct_sum_path(family_a, family_b)
        ellA, ellB = random_frame(rng, n1), random_frame(rng, n2)
        ok = ok and mu_lagrangian(
            summed, direct_sum_frame(ellA, ellB)
        ) == mu_lagrangian(lamA, ellA) + mu_lagrangian(lamB, ellB)
    _report(capsys, 13, "dimensional additivity under direct sums (500 + 60)", ok)


def test_criterion_14_change_of_reference(capsys):
    ok = _holds(check_change_of_reference, _rng(14), 300)
    _report(capsys, 14, "change-of-reference difference formula (300 instances)", ok)


def test_criterion_15_winding_cross_check(capsys):
    rng = _rng(15)
    ok = True
    count = 0
    for n in (1, 2):
        for wind in range(-3, 4):
            gamma = rotation_path(n, 0.0, wind * math.pi)
            family = functools.partial(rotation_unitaries, n, 0.0, wind * math.pi)
            ok = ok and abs(lift_path(gamma).winding() - winding_integral(family)) < 1e-6
            count += 1
    while count < 100:
        n = int(rng.integers(1, 4))
        u0, H = random_unitary_family(rng, n)
        lam = unitary_path(u0, H, 17)
        gamma = concat(lam, reverse(lam))
        loop = there_and_back(u0, H)
        ok = ok and abs(lift_path(gamma).winding() - winding_integral(loop)) < 1e-6
        count += 1
    _report(capsys, 15, "theta-lift winding matches quadrature within 1e-6 (100 loops)", ok)
