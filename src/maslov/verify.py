"""Named exact-identity checks over seeded random instances.

Each check draws its own instances from a seeded generator and states an
identity exactly (integer or half-integer comparisons; floats only where a
winding integral is cross-checked) through ``_expect``, which, unlike
``assert``, ``python -O`` keeps.  Most checks are a per-instance body
``check_*(rng, n)`` registered with ``per_dimension(check_id, count)``;
the registry supplies the dimension loop and the instance count, and the
acceptance tests run the same bodies over their own dimensions.  The few
checks with their own dimension pattern are ``runner(check_id)``
functions ``(rng, n_max) -> instances``.  ``CHECKS`` is consumed by the
command-line ``verify`` subcommand and by the test suite.

Checks deliberately call the library through module attributes (for
example ``signature.kashiwara_tau``) so that an injected corruption of a
single definition makes the dependent identities fail visibly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import derived, lagrangian, leray, paths, signature, symplectic
from .defaults import TOL_SYM
from .errors import BadInput, IllConditioned
from .random_gen import (
    random_algebra_element,
    random_frame,
    random_frame_intersecting,
    random_lagrangian_path,
    random_lift,
    random_symmetric,
    random_symplectic,
    random_symplectic_path,
    random_unitary,
    random_unitary_family,
    transported_path,
)

_PERM_SIGNS = [
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    instances: int
    detail: str = ""


def _dims(n_max: int) -> range:
    return range(1, max(1, n_max) + 1)


#: check id -> runner (rng, n_max) -> number of instances exercised
CHECKS: dict[str, Callable] = {}


def per_dimension(check_id: str, count: int):
    """Register ``body(rng, n)``, which draws and asserts one instance in
    dimension n, as a check of ``count`` instances in each dimension
    1..n_max.  The body is returned unchanged, so a test can run it over
    dimensions of its own."""

    def register(body):
        def run(rng, n_max):
            for n in _dims(n_max):
                for _ in range(count):
                    body(rng, n)
            return count * len(_dims(n_max))

        CHECKS[check_id] = run
        return body

    return register


def runner(check_id: str):
    """Register a check that draws its own dimensions and counts its own
    instances: ``fn(rng, n_max) -> instances``."""

    def register(fn):
        CHECKS[check_id] = fn
        return fn

    return register


def _expect(cond, detail="") -> None:
    """Raise AssertionError(detail) unless cond.  A check states its
    identities with this, not with ``assert``, so that ``python -O`` keeps
    them."""
    if not cond:
        raise AssertionError(detail)


# ---------------------------------------------------------------------------
# helpers shared with the tests


def winding_integral(family: Callable[[np.ndarray], np.ndarray], samples: int = 1024) -> float:
    """Winding of det w around a loop of planes u(t) X* by direct quadrature
    of d(det)/det, for ``family`` mapping a 1-d array of times to the
    (len(ts), n, n) stack of unitaries u there, evaluated at ``samples``
    equally spaced times of its own."""
    frames = lagrangian.unitary_frames(family(np.linspace(0.0, 1.0, samples)))
    lagrangian.check_frames(frames, TOL_SYM)
    dets = np.linalg.det(lagrangian._uut(frames))
    steps = np.angle(dets[1:] / dets[:-1])
    if not np.all(np.abs(steps) < math.pi / 2):
        raise ValueError("quadrature grid too coarse for the winding integral")
    total = 0.0
    for step in steps.tolist():
        total += step
    return total / (2 * math.pi)


def there_and_back(u0: np.ndarray, H: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The family t -> u0 exp(i (1 - |1 - 2t|) H), the loop that
    ``paths.concat(lam, paths.reverse(lam))`` samples for lam of (u0, H)."""
    return lambda ts: paths.unitary_family(u0, H, 1 - np.abs(1 - 2 * ts))


def direct_sum_path(family_a: tuple, family_b: tuple) -> paths.LagrangianPath:
    """The path t -> lamA(t) (+) lamB(t) of the unitary families (u0, H) of
    two random paths, each evaluated at the times of the certified grid of
    their sum, the family (u0A (+) u0B) exp(it (HA (+) HB)), whose phase
    moves at 2 |tr HA + tr HB|."""
    speed = 2 * abs(float(np.trace(family_a[1]).real + np.trace(family_b[1]).real))
    n = len(family_a[0]) + len(family_b[0])
    ts = np.linspace(0.0, 1.0, paths.certified_count(17, speed, n))
    fa, fb = (lagrangian.unitary_frames(paths.unitary_family(*f, ts)) for f in (family_a, family_b))
    return paths.LagrangianPath(tuple(ts), lagrangian.direct_sum_frames(fa, fb))


def sp_lift_action(sig: paths.SymplecticPath, lift: leray.LagrangianLift):
    """The action of the cover element over sig(1) (path from identity) on a
    cover point: transport the lift along the induced path."""
    return paths.lift_path(paths.induced_path(sig, lift.frame), theta_start=lift.theta).end


def mu_bar_via_companion(
    l1: leray.LagrangianLift,
    l2: leray.LagrangianLift,
    l3: leray.LagrangianLift | None = None,
) -> int:
    """mu_bar(l1, l3) - mu_bar(l2, l3) + tau(ell1, ell2, ell3) for a companion
    l3 transversal to both arguments (``leray.companion_lift`` by default): an
    oracle for ``leray.mu_bar`` that skips no eigenvalue at 1."""
    n = l1.n
    f1, f2 = l1.frame, l2.frame
    l3 = l3 if l3 is not None else leray.companion_lift(f1, f2)
    tau = signature.kashiwara_tau(f1, f2, l3.frame).tau
    # souriau_m decides each pair once and refuses one that is not
    # transversal; kashiwara_tau has already refused different dimensions
    try:
        m13 = leray.souriau_m(l1, l3)
        m23 = leray.souriau_m(l2, l3)
    except BadInput:
        raise BadInput("companion must be transversal to both arguments") from None
    return (2 * m13 - n) - (2 * m23 - n) + tau


def _transversal_frames(rng, n, k, given=()):
    """k random frames, redrawn together until they are pairwise transversal
    and each is transversal to every plane of given."""
    while True:
        fs = [random_frame(rng, n) for _ in range(k)]
        if all(
            lagrangian.intersection_dim(f, g) == 0
            for i, f in enumerate(fs)
            for g in fs[i + 1 :] + list(given)
        ):
            return fs


def _near_identity(rng, n):
    """exp(1e-5 i h) for a random Hermitian h, as V e^{1e-5 i Lambda} V^H."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vals, vecs = np.linalg.eigh((z + z.conj().T) / 2)
    return (vecs * np.exp(1e-5j * vals)) @ vecs.conj().T


# ---------------------------------------------------------------------------
# symplectic core


@per_dimension("omega-antisymmetry", 50)
def check_omega_antisymmetry(rng, n):
    z = np.concatenate((rng.standard_normal(n), rng.standard_normal(n)))
    zp = np.concatenate((rng.standard_normal(n), rng.standard_normal(n)))
    _expect(abs(symplectic.omega(z, zp) + symplectic.omega(zp, z)) <= 1e-12)
    _expect(abs(symplectic.omega(z, z)) <= 1e-12)


@per_dimension("embed-unitary-symplectic", 30)
def check_embed_unitary_symplectic(rng, n):
    u = random_unitary(rng, n)
    S = symplectic.embed_unitary(u)
    _expect(symplectic.is_symplectic(S.entries))


@runner("direct-sum-symplectic")
def check_direct_sum_symplectic(rng, n_max):
    count = 0
    for n1 in _dims(min(n_max, 2)):
        for n2 in _dims(min(n_max, 2)):
            for _ in range(10):
                a1, a2 = random_symplectic(rng, n1), random_symplectic(rng, n1)
                b1, b2 = random_symplectic(rng, n2), random_symplectic(rng, n2)
                lhs = (
                    symplectic.direct_sum_symplectic(a1, b1).entries
                    @ symplectic.direct_sum_symplectic(a2, b2).entries
                )
                rhs = symplectic.direct_sum_symplectic(
                    symplectic.SymplecticMatrix(a1.entries @ a2.entries),
                    symplectic.SymplecticMatrix(b1.entries @ b2.entries),
                ).entries
                _expect(np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max()))
                _expect(symplectic.is_symplectic(lhs))
                count += 1
    return count


# ---------------------------------------------------------------------------
# lagrangian


@per_dimension("souriau-roundtrip", 30)
def check_souriau_roundtrip(rng, n):
    w = lagrangian.souriau_w(random_frame(rng, n))
    back = lagrangian.souriau_w(lagrangian.frame_from_w(w))
    _expect(np.abs(back - w).max() <= 1e-8)


@runner("intersection-dim")
def check_intersection_dim(rng, n_max):
    count = 0
    for n in _dims(n_max):
        for k in range(n + 1):
            for _ in range(10):
                f1 = random_frame(rng, n)
                f2 = random_frame_intersecting(rng, f1, k)
                _expect(lagrangian.intersection_dim(f1, f2) == k)
                _expect(lagrangian.intersection_dim(f2, f1) == k)
                S = random_symplectic(rng, n)
                g1 = lagrangian.apply_symplectic(S, f1)
                g2 = lagrangian.apply_symplectic(S, f2)
                _expect(lagrangian.intersection_dim(g1, g2) == k)
                count += 1
    return count


@per_dimension("unitary-action", 20)
def check_unitary_action(rng, n):
    u = random_unitary(rng, n)
    S = symplectic.embed_unitary(u)
    img = lagrangian.apply_symplectic(S, lagrangian.coordinate_xstar(n))
    expected = lagrangian.frame_from_unitary(u)
    _expect(paths.same_plane(img, expected))


@per_dimension("transversal-companion", 15)
def check_transversal_companion(rng, n):
    f1 = random_frame(rng, n)
    f2 = random_frame_intersecting(rng, f1, int(rng.integers(0, n + 1)))
    f3 = lagrangian.transversal_companion(f1, f2)
    _expect(lagrangian.intersection_dim(f3, f1) == 0)
    _expect(lagrangian.intersection_dim(f3, f2) == 0)


# ---------------------------------------------------------------------------
# signature


@per_dimension("tau-antisymmetry", 20)
def check_tau_antisymmetry(rng, n):
    fs = [random_frame(rng, n) for _ in range(3)]
    base = signature.kashiwara_tau(*fs).tau
    for perm, sign in _PERM_SIGNS:
        got = signature.kashiwara_tau(*(fs[i] for i in perm)).tau
        _expect(got == sign * base, (perm, got, base))


@per_dimension("tau-cocycle", 30)
def check_tau_cocycle(rng, n):
    fs = [random_frame(rng, n) for _ in range(4)]
    tau = signature.Cochain(2, lambda a, b, c: signature.kashiwara_tau(a, b, c).tau)
    _expect(signature.coboundary(tau, fs) == 0)


@per_dimension("tau-sp-invariance", 20)
def check_tau_sp_invariance(rng, n):
    fs = [random_frame(rng, n) for _ in range(3)]
    S = random_symplectic(rng, n)
    moved = [lagrangian.apply_symplectic(S, f) for f in fs]
    _expect(signature.kashiwara_tau(*moved).tau == signature.kashiwara_tau(*fs).tau)


@runner("tau-direct-sum")
def check_tau_direct_sum(rng, n_max):
    count = 0
    for n1 in _dims(min(n_max, 2)):
        for n2 in _dims(min(n_max, 2)):
            for _ in range(10):
                ta = [random_frame(rng, n1) for _ in range(3)]
                tb = [random_frame(rng, n2) for _ in range(3)]
                summed = [
                    lagrangian.direct_sum_frame(a, b) for a, b in zip(ta, tb)
                ]
                _expect(
                    signature.kashiwara_tau(*summed).tau
                    == signature.kashiwara_tau(*ta).tau
                    + signature.kashiwara_tau(*tb).tau
                )
                count += 1
    return count


@per_dimension("tau-local-constancy", 15)
def check_tau_local_constancy(rng, n):
    fs = _transversal_frames(rng, n, 3)
    base = signature.kashiwara_tau(*fs).tau
    S = symplectic.embed_unitary(_near_identity(rng, n))
    moved = [lagrangian.apply_symplectic(S, f) for f in fs]
    dims_ok = all(
        lagrangian.intersection_dim(moved[i], moved[j])
        == lagrangian.intersection_dim(fs[i], fs[j])
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    _expect(dims_ok and signature.kashiwara_tau(*moved).tau == base)


# ---------------------------------------------------------------------------
# leray


@per_dimension("mu-bar-antisymmetry", 20)
def check_mu_bar_antisymmetry(rng, n):
    l1, l2 = random_lift(rng, n), random_lift(rng, n)
    _expect(leray.mu_bar(l1, l2) == -leray.mu_bar(l2, l1))
    l3 = random_lift(rng, n)
    _expect(leray.mu_bar(l3, l3) == 0)


@per_dimension("mu-bar-coboundary", 25)
def check_mu_bar_coboundary(rng, n):
    lifts = [random_lift(rng, n) for _ in range(3)]
    frames = [l.frame for l in lifts]
    lhs = (
        leray.mu_bar(lifts[0], lifts[1])
        - leray.mu_bar(lifts[0], lifts[2])
        + leray.mu_bar(lifts[1], lifts[2])
    )
    _expect(lhs == signature.kashiwara_tau(*frames).tau)


@per_dimension("deck-equivariance", 10)
def check_deck_equivariance(rng, n):
    l1, l2 = random_lift(rng, n), random_lift(rng, n)
    base = leray.mu_bar(l1, l2)
    for k1 in range(-3, 4):
        for k2 in (-3, 0, 2):
            shifted = leray.mu_bar(leray.deck_apply(k1, l1), leray.deck_apply(k2, l2))
            _expect(shifted - base == 2 * (k1 - k2))


@per_dimension("companion-independence", 8)
def check_companion_independence(rng, n):
    f1 = random_frame(rng, n)
    f2 = random_frame_intersecting(rng, f1, int(rng.integers(1, n + 1)))
    l1 = leray.lift_of(f1, int(rng.integers(-2, 3)))
    l2 = leray.lift_of(f2, int(rng.integers(-2, 3)))
    base = leray.mu_bar(l1, l2)
    for _ in range(6):
        (cand,) = _transversal_frames(rng, n, 1, (f1, f2))
        comp = leray.lift_of(cand, int(rng.integers(-2, 3)))
        _expect(mu_bar_via_companion(l1, l2, comp) == base)


@per_dimension("inert-cocycle", 15)
def check_inert_cocycle(rng, n):
    fs = _transversal_frames(rng, n, 3)
    lifts = [leray.lift_of(f, int(rng.integers(-1, 2))) for f in fs]
    lhs = (
        leray.souriau_m(lifts[0], lifts[1])
        - leray.souriau_m(lifts[0], lifts[2])
        + leray.souriau_m(lifts[1], lifts[2])
    )
    _expect(lhs == signature.inert_index(*fs))


@per_dimension("mu-bar-local-constancy", 10)
def check_mu_bar_local_constancy(rng, n):
    f1, f2 = _transversal_frames(rng, n, 2)
    l1 = leray.lift_of(f1, 0)
    l2 = leray.lift_of(f2, 0)
    base = leray.mu_bar(l1, l2)
    u = lagrangian.frame_unitary(f1)
    up = u @ _near_identity(rng, n)
    f1p = lagrangian.frame_from_unitary(up)
    # continuous update of theta: nearest argument to the old one
    ang = float(np.angle(np.linalg.det(lagrangian.souriau_w(f1p))))
    theta = l1.theta + (ang - l1.theta + math.pi) % (2 * math.pi) - math.pi
    l1p = leray.LagrangianLift(f1p, theta)
    _expect(lagrangian.intersection_dim(f1p, f2) == 0)
    _expect(leray.mu_bar(l1p, l2) == base)


# ---------------------------------------------------------------------------
# paths


@runner("loop-axioms")
def check_loop_axioms(rng, n_max):
    count = 0
    for n in (1, 2) if n_max >= 2 else (1,):
        for wind in range(-3, 4):
            gamma = paths.rotation_path(n, 0.0, wind * math.pi)
            _expect(paths.keller_maslov(gamma) == wind)
            for ell in (
                lagrangian.coordinate_x(n),
                lagrangian.coordinate_xstar(n),
                random_frame(rng, n),
            ):
                _expect(paths.mu_lagrangian(gamma, ell) == 2 * wind)
            count += 1
        g1 = paths.rotation_path(n, 0.0, 2 * math.pi)
        g2 = paths.rotation_path(n, 0.0, -math.pi * 4)
        _expect(paths.keller_maslov(paths.concat(g1, g2)) == 2 - 4)
        count += 1
    return count


@per_dimension("concat-additivity", 10)
def check_concat_additivity(rng, n):
    lam1 = random_lagrangian_path(rng, n)
    lam2 = paths.path_joining(lam1.end(), random_frame(rng, n))
    ell = random_frame(rng, n)
    _expect(paths.mu_lagrangian(
        paths.concat(lam1, lam2), ell
    ) == paths.mu_lagrangian(lam1, ell) + paths.mu_lagrangian(lam2, ell))
    back = paths.reverse(lam1)
    _expect(paths.mu_lagrangian(back, ell) == -paths.mu_lagrangian(lam1, ell))


@per_dimension("reparametrization", 8)
def check_reparametrization(rng, n):
    u0, H = random_unitary_family(rng, n)
    lam = paths.unitary_path(u0, H, 17)
    ell = random_frame(rng, n)
    base = paths.mu_lagrangian(lam, ell)
    warp = lambda t: t * t * (3 - 2 * t)  # monotone, fixes 0 and 1
    # warp' <= 3/2, so the warped family moves at most 3/2 as fast
    speed = 3 * abs(float(np.trace(H).real))
    ts = np.linspace(0.0, 1.0, paths.certified_count(21, speed, n))
    frames = lagrangian.unitary_frames(paths.unitary_family(u0, H, warp(ts)))
    warped = paths.LagrangianPath(tuple(ts), frames)
    _expect(paths.mu_lagrangian(warped, ell) == base)


@per_dimension("change-of-reference", 15)
def check_change_of_reference(rng, n):
    lam = random_lagrangian_path(rng, n)
    ell, ellp = random_frame(rng, n), random_frame(rng, n)
    lhs = paths.mu_lagrangian(lam, ell) - paths.mu_lagrangian(lam, ellp)
    rhs = (
        signature.kashiwara_tau(lam.end(), ell, ellp).tau
        - signature.kashiwara_tau(lam.start(), ell, ellp).tau
    )
    _expect(lhs == rhs)


@runner("triple-signature-paths")
def check_triple_signature_paths(rng, n_max):
    """Triangle of connecting paths: the index sum around the triangle,
    corrected by twice the loop index of the closure, is twice the
    Kashiwara signature of the triple."""
    count = 0
    for n in _dims(min(n_max, 2)):
        for _ in range(10):
            l0, l1, l2 = (random_frame(rng, n) for _ in range(3))
            p01 = paths.path_joining(l0, l1)
            p12 = paths.path_joining(l1, l2)
            p20 = paths.path_joining(l2, l0)
            closure = paths.concat(paths.concat(p01, p12), p20)
            m = paths.keller_maslov(closure)
            total = (
                paths.mu_lagrangian(p01, l2)
                + paths.mu_lagrangian(p12, l0)
                + paths.mu_lagrangian(p20, l1)
            )
            _expect(total - 2 * m == 2 * signature.kashiwara_tau(l0, l1, l2).tau)
            count += 1
    return count


@per_dimension("symplectic-invariance", 10)
def check_symplectic_invariance(rng, n):
    u0, H = random_unitary_family(rng, n)
    lam = paths.unitary_path(u0, H, 17)
    ell = random_frame(rng, n)
    S = random_symplectic(rng, n)
    moved = transported_path(S, u0, H)
    moved_ell = lagrangian.apply_symplectic(S, ell)
    _expect(paths.mu_lagrangian(moved, moved_ell) == paths.mu_lagrangian(lam, ell))


@per_dimension("sp-cover-invariance", 8)
def check_sp_cover_invariance(rng, n):
    sig = random_symplectic_path(rng, n)
    l1, l2 = random_lift(rng, n), random_lift(rng, n)
    moved1 = sp_lift_action(sig, l1)
    moved2 = sp_lift_action(sig, l2)
    _expect(leray.mu_bar(moved1, moved2) == leray.mu_bar(l1, l2))


@per_dimension("mu-ell-product", 10)
def check_mu_ell_product(rng, n):
    ell = random_frame(rng, n)
    s1p = random_symplectic_path(rng, n)
    Z2 = random_algebra_element(rng, n)
    s1 = s1p.end()
    s2p = paths.symplectic_path_from_algebra(Z2, samples=17)
    # the left translate s1 . s2p, on its own certified grid
    prod = paths.concat_symplectic(
        s1p, paths.symplectic_path_from_algebra(Z2, start=s1, samples=17)
    )
    f1 = lagrangian.apply_symplectic(symplectic.SymplecticMatrix(s1), ell)
    f12 = lagrangian.apply_symplectic(
        symplectic.SymplecticMatrix(s1 @ s2p.end()), ell
    )
    _expect(paths.mu_ell(prod, ell) == (
        paths.mu_ell(s1p, ell)
        + paths.mu_ell(s2p, ell)
        + signature.kashiwara_tau(ell, f1, f12).tau
    ))


@per_dimension("mu-ell-base-change", 10)
def check_mu_ell_base_change(rng, n):
    ell, ellp = random_frame(rng, n), random_frame(rng, n)
    sp = random_symplectic_path(rng, n)
    Sm = symplectic.SymplecticMatrix(sp.end())
    sl = lagrangian.apply_symplectic(Sm, ell)
    slp = lagrangian.apply_symplectic(Sm, ellp)
    lhs = paths.mu_ell(sp, ell) - paths.mu_ell(sp, ellp)
    rhs = (
        signature.kashiwara_tau(sl, ell, ellp).tau
        - signature.kashiwara_tau(sl, slp, ellp).tau
    )
    _expect(lhs == rhs)


@per_dimension("mu-symplectic-endpoint-form", 8)
def check_mu_symplectic_endpoint_form(rng, n):
    ell, ellp = random_frame(rng, n), random_frame(rng, n)
    s01 = random_symplectic_path(rng, n)
    s12 = random_symplectic_path(rng, n, start=s01.end())
    lhs = paths.mu_symplectic(s12, ell)
    prod = paths.concat_symplectic(s01, s12)
    _expect(lhs == paths.mu_ell(prod, ell) - paths.mu_ell(s01, ell))

    def correction(s):
        Sm = symplectic.SymplecticMatrix(s)
        a = lagrangian.apply_symplectic(Sm, ell)
        b = lagrangian.apply_symplectic(Sm, ellp)
        return (
            signature.kashiwara_tau(a, ell, ellp).tau
            - signature.kashiwara_tau(a, b, ellp).tau
        )

    rhs = correction(s12.end()) - correction(s12.start())
    _expect(lhs - paths.mu_symplectic(s12, ellp) == rhs)


@runner("winding-integral")
def check_winding_integral(rng, n_max):
    count = 0
    for n in (1, 2) if n_max >= 2 else (1,):
        for wind in (-2, -1, 1, 3):
            gamma = paths.rotation_path(n, 0.0, wind * math.pi)
            lifted = paths.lift_path(gamma)
            family = functools.partial(paths.rotation_unitaries, n, 0.0, wind * math.pi)
            _expect(abs(lifted.winding() - winding_integral(family)) < 1e-6)
            count += 1
        for _ in range(4):
            u0, H = random_unitary_family(rng, n)
            lam = paths.unitary_path(u0, H, 17)
            gamma = paths.concat(lam, paths.reverse(lam))
            lifted = paths.lift_path(gamma)
            _expect(abs(lifted.winding() - winding_integral(there_and_back(u0, H))) < 1e-6)
            _expect(paths.keller_maslov(gamma) == 0)
            count += 1
    return count


# ---------------------------------------------------------------------------
# derived


@runner("spectral-flow")
def check_spectral_flow(rng, n_max):
    count = 0
    for n in _dims(n_max):
        for _ in range(10):
            A0 = random_symmetric(rng, n)
            A1 = random_symmetric(rng, n)
            fam = derived.SymmetricFamily.linear(A0, A1)
            try:
                sf = derived.spectral_flow(fam)
            except IllConditioned:
                continue  # near-singular endpoint; redraw implicitly
            _expect(derived.spectral_flow_path_index(fam) == sf)
            _expect(paths.mu_lagrangian(
                derived.graph_path(fam), lagrangian.coordinate_xstar(n)
            ) == 0)
            sig = derived.shear_path(fam)
            _expect(paths.mu_symplectic(sig, lagrangian.coordinate_x(n)) == sf)
            count += 1
    return count


@runner("robbin-salamon")
def check_robbin_salamon(rng, n_max):
    count = 0
    for n in _dims(n_max):
        for _ in range(10):
            lam = random_lagrangian_path(rng, n)
            ell = random_frame(rng, n)
            rs = derived.robbin_salamon(lam, ell)
            _expect(rs.twice_value == paths.mu_lagrangian(lam, ell))
            lam2 = paths.path_joining(lam.end(), random_frame(rng, n))
            both = derived.robbin_salamon(paths.concat(lam, lam2), ell)
            _expect(both.twice_value == rs.twice_value + derived.robbin_salamon(
                lam2, ell
            ).twice_value)
            count += 1
    fam = derived.SymmetricFamily.linear(np.array([[-1.0]]), np.array([[1.0]]))
    _expect(derived.robbin_salamon(
        derived.graph_path(fam), lagrangian.coordinate_x(1)
    ) == derived.HalfInteger(2))
    for wind in (-2, 1, 3):
        gamma = paths.rotation_path(1, 0.0, wind * math.pi)
        _expect(derived.robbin_salamon(
            gamma, random_frame(rng, 1)
        ).twice_value == 2 * wind)
        count += 1
    return count


@per_dimension("hormander", 10)
def check_hormander(rng, n):
    f1, f2, f3, f4 = (random_frame(rng, n) for _ in range(4))
    xi = derived.hormander_xi(f1, f2, f3, f4)
    lam34 = paths.path_joining(f3, f4)
    path_form = (
        derived.robbin_salamon(lam34, f2).twice_value
        - derived.robbin_salamon(lam34, f1).twice_value
    )
    _expect(xi.twice_value == path_form)


@runner("direct-sums")
def check_direct_sums(rng, n_max):
    count = 0
    for n1 in _dims(min(n_max, 2)):
        for n2 in _dims(min(n_max, 2)):
            for _ in range(8):
                l1a, l2a = random_lift(rng, n1), random_lift(rng, n1)
                l1b, l2b = random_lift(rng, n2), random_lift(rng, n2)
                _expect(leray.mu_bar(
                    derived.direct_sum_lift(l1a, l1b),
                    derived.direct_sum_lift(l2a, l2b),
                ) == leray.mu_bar(l1a, l2a) + leray.mu_bar(l1b, l2b))
                family_a = random_unitary_family(rng, n1)
                family_b = random_unitary_family(rng, n2)
                lamA = paths.unitary_path(*family_a, 17)
                lamB = paths.unitary_path(*family_b, 17)
                summed = direct_sum_path(family_a, family_b)
                ellA, ellB = random_frame(rng, n1), random_frame(rng, n2)
                _expect(paths.mu_lagrangian(
                    summed, lagrangian.direct_sum_frame(ellA, ellB)
                ) == paths.mu_lagrangian(lamA, ellA) + paths.mu_lagrangian(lamB, ellB))
                count += 1
    return count


def run_all(seed: int = 42, n_max: int = 3) -> list[CheckResult]:
    """Run every registered check with an independent seeded generator.

    Instances are drawn per check from a child seed, so results do not
    depend on registry order.
    """
    results = []
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(CHECKS))
    for (check_id, fn), child in zip(sorted(CHECKS.items()), children):
        rng = np.random.default_rng(child)
        try:
            instances = fn(rng, n_max)
            results.append(CheckResult(check_id, True, instances))
        except AssertionError as exc:
            results.append(CheckResult(check_id, False, 0, f"identity violated: {exc}"))
        except Exception as exc:
            results.append(
                CheckResult(check_id, False, 0, f"{type(exc).__name__}: {exc}")
            )
    return results
