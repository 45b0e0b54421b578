import math

import numpy as np
import pytest

from maslov import (
    BadInput,
    LagrangianFrame,
    LagrangianLift,
    LagrangianPath,
    SymmetricFamily,
    SymplecticPath,
    Undersampled,
    apply_symplectic,
    concat,
    concat_symplectic,
    coordinate_x,
    coordinate_xstar,
    deck_apply,
    frame_from_graph,
    induced_path,
    kashiwara_tau,
    keller_maslov,
    lift_of,
    lift_path,
    mu_ell,
    mu_lagrangian,
    mu_symplectic,
    path_joining,
    reverse,
    rotation_path,
    souriau_w,
    symplectic_path_from_algebra,
    unitary_path,
)
from maslov import cli, lagrangian, paths
from maslov.defaults import TOL_SYM
from maslov.lagrangian import det_phase, unitary_frames
from maslov.paths import same_plane
from maslov.random_gen import (
    random_frame,
    random_lagrangian_path,
    random_symplectic,
    random_symplectic_path,
    random_unitary_family,
)
from maslov.verify import there_and_back, winding_integral


def constant_path(frame, samples=5):
    ts = tuple(np.linspace(0.0, 1.0, samples))
    return LagrangianPath(ts, np.broadcast_to(frame.frame, (samples,) + frame.frame.shape), frame.tol)


def test_path_validation():
    f = coordinate_x(1)
    with pytest.raises(BadInput):
        LagrangianPath((0.0, 0.5), (f.frame, f.frame))  # does not end at 1
    with pytest.raises(BadInput):
        LagrangianPath((0.0, 0.7, 0.4, 1.0), (f.frame,) * 4)


def test_lift_constant_and_rotations():
    lifted = lift_path(constant_path(coordinate_xstar(1)))
    assert lifted.winding() == 0.0

    lam = rotation_path(1, 0.0, math.pi)
    lifted = lift_path(lam)
    assert abs(lifted.winding() - 1.0) < 1e-9

    lam = rotation_path(1, 0.0, 2 * math.pi)
    assert abs(lift_path(lam).winding() - 2.0) < 1e-9


def test_lift_branch_and_theta_start():
    lam = rotation_path(1, 0.0, math.pi)
    # sheet 1 is the start lift's theta on that sheet
    l0 = lift_path(lam)
    l1 = lift_path(lam, theta_start=lift_of(lam.start(), 1).theta)
    assert abs(l1.start.theta - l0.start.theta - 2 * math.pi) < 1e-12
    assert abs(l1.winding() - l0.winding()) < 1e-12
    shifted = lift_path(lam, theta_start=l0.start.theta - 2 * math.pi)
    assert shifted.start.theta == l0.start.theta - 2 * math.pi
    assert abs(shifted.winding() - l0.winding()) < 1e-12
    with pytest.raises(BadInput):
        lift_path(lam, theta_start=1.0)
    # the start lift checks theta_start at TOL_PHASE, so lift_path itself
    # rejects an argument that is off by 1e-7
    with pytest.raises(BadInput):
        lift_path(lam, theta_start=l0.start.theta + 1e-7)


def _sampled_rotation(samples):
    lam = rotation_path(2, 0.0, 3 * math.pi, samples)
    return LagrangianPath(lam.times, lam.frames)


LIFT_PATHS = {
    "sampled-17": lambda: _sampled_rotation(17),
    "sampled-65": lambda: _sampled_rotation(65),
}


@pytest.mark.parametrize("name", sorted(LIFT_PATHS))
def test_lift_builds_souriau_matrices_for_the_ends_only(name, monkeypatch):
    # the samples are reduced to u u^t (and det) in one batch; the end lifts
    # reuse the two ends' w's and dets from the sample stack, so no end
    # computes a w of its own or goes through LagrangianLift's check
    lam = LIFT_PATHS[name]()
    calls = {"stacked w": 0, "single w": 0, "LagrangianLift": 0}
    uut = lagrangian._uut
    post_init = LagrangianLift.__post_init__

    def counted_uut(F):
        calls["stacked w" if F.ndim == 3 else "single w"] += 1
        return uut(F)

    def counted_post_init(self):
        calls["LagrangianLift"] += 1
        post_init(self)

    monkeypatch.setattr(lagrangian, "_uut", counted_uut)
    monkeypatch.setattr(paths, "_uut", counted_uut)
    monkeypatch.setattr(LagrangianLift, "__post_init__", counted_post_init)
    lifted = lift_path(lam)
    assert lifted.sample_count == len(lam.times) > 2
    assert calls == {"stacked w": 1, "single w": 0, "LagrangianLift": 0}
    assert np.array_equal(lifted.start.w, souriau_w(lam.start()))
    assert np.array_equal(lifted.end.w, souriau_w(lam.end()))


def _frame_error(F, n):
    """The larger of the orthonormality and isotropy defects of [X; P]."""
    X, P = F[:n], F[n:]
    orth = np.abs(X.T @ X + P.T @ P - np.eye(n)).max()
    return max(orth, np.abs(X.T @ P - P.T @ X).max())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_end_lifts_skip_only_checks_that_would_pass(n, rng):
    # the end lifts reuse the frames, w's and dets of a stack checked at
    # one tol per frame; frames pushed to 0.9 of their tol pass the
    # LagrangianFrame and LagrangianLift checks they skip, with the same w
    F = random_frame(rng, n).frame
    tol = np.array([TOL_SYM, 1e-7, 1e-6, TOL_SYM])
    stack = []
    for t in tol:
        D = rng.standard_normal((2 * n, n))
        # the defect is linear in a perturbation this small
        G = F + 0.9 * t / _frame_error(F + t * D, n) * t * D
        assert 0.8 * t < _frame_error(G, n) <= t
        stack.append(G)
    stack = np.array(stack)
    lam = LagrangianPath(tuple(np.linspace(0.0, 1.0, len(tol))), stack, tol)
    closed = paths.LiftedPath.from_phase_change(stack[[0, -1]], tol[[0, -1]], 0.0)
    for lifted in (lift_path(lam), closed):
        for k, lift in zip((0, -1), (lifted.start, lifted.end)):
            frame = LagrangianFrame(stack[k], float(tol[k]))
            assert np.array_equal(lift.frame.frame, frame.frame) and lift.frame.tol == frame.tol
            assert np.array_equal(lift.w, frame.w) and not lift.w.flags.writeable
            assert LagrangianLift(frame, lift.theta).theta == lift.theta
    assert closed.end.theta == closed.start.theta == lift_path(lam).start.theta


def _off_theta_lift_path():
    lam = rotation_path(1, 0.0, 1.0)
    return lift_path(lam, theta_start=lift_path(lam).start.theta + 1e-6)


def _off_theta_closed_form():
    # a quarter turn of w = e^{i theta} I in n = 1 changes arg det w by pi/2
    frames = lagrangian.unitary_frames(np.exp(0.5j * np.array([[[0.0]], [[math.pi / 2]]])))
    assert paths.LiftedPath.from_phase_change(frames, TOL_SYM, math.pi / 2).winding() == 0.25
    return paths.LiftedPath.from_phase_change(frames, TOL_SYM, math.pi / 2 + 1e-3)


THETA_OFF = {
    "lift-path-theta-start": _off_theta_lift_path,
    "closed-form-phase-change": _off_theta_closed_form,
    "leray-branch-1e15": lambda: cli.compute_report(
        {
            "n": 2,
            "index": "leray",
            "lifts": [{"plane": "coordinate_x", "branch": 10**15}, {"plane": "coordinate_xstar"}],
        }
    ),
}


@pytest.mark.parametrize("name", sorted(THETA_OFF))
def test_theta_rule_reads_the_reused_dets(name):
    # the theta rule runs once per lift, on the det its caller took, and
    # still refuses a theta that is not an argument of det w
    with pytest.raises(BadInput, match="^theta is not an argument of det w within tolerance$"):
        THETA_OFF[name]()


def test_undersampled_without_generator():
    # two samples a quarter-turn of det apart are fine, a half-turn is not
    f0 = coordinate_xstar(1)
    f1 = coordinate_x(1)
    with pytest.raises(Undersampled):
        lift_path(LagrangianPath((0.0, 1.0), (f0.frame, f1.frame)))
    # the loop index lifts before it checks closedness, so this open path
    # is undersampled rather than rejected as open
    with pytest.raises(Undersampled):
        keller_maslov(LagrangianPath((0.0, 1.0), (f0.frame, f1.frame)))


def _reference_lift(lam):
    """The per-sample loop the stacked lift replaced: one validated frame
    and one det_phase per sample, each step wrapped and tested alone.
    Returns (end theta, sample count), or (None, i) for the first step i,
    from sample i - 1 to sample i, that is not below pi/2."""
    angs = [float(det_phase(LagrangianFrame(F).frame)) for F in lam.frames]
    theta = angs[0]
    for i in range(1, len(angs)):
        d = paths._wrap(angs[i] - angs[i - 1])
        if not abs(d) < paths.MAX_PHASE_STEP:
            return None, i
        theta += d
    return theta, len(angs)


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_lift_matches_reference_loop(n):
    rng = np.random.default_rng(1000 + n)
    outcomes = []
    for samples in (3, 5, 9, 17, 33):
        for _ in range(3):
            # a random family on a grid of the given size, not certified
            ts = np.linspace(0.0, 1.0, samples)
            lam = LagrangianPath(tuple(ts), unitary_frames(paths.unitary_family(*random_unitary_family(rng, n), ts)))
            theta, mark = _reference_lift(lam)
            if theta is not None:
                lifted = lift_path(lam)
                assert lifted.start.theta == float(det_phase(lam.frames[0]))
                assert lifted.end.theta == theta  # bit for bit
                assert lifted.sample_count == mark == samples
                outcomes.append("lifted")
                continue
            with pytest.raises(Undersampled):
                lift_path(lam)
            # the same first bad step: the samples before it lift, and
            # adding its end sample makes the lift fail
            head = lambda k: LagrangianPath(tuple(np.linspace(0.0, 1.0, k)), lam.frames[:k])
            if mark >= 2:
                assert lift_path(head(mark)).sample_count == mark
            with pytest.raises(Undersampled):
                lift_path(head(mark + 1))
            outcomes.append("undersampled")
    assert set(outcomes) == {"lifted", "undersampled"}


def test_rotation_grid_matches_the_quarter_turn_formula():
    # floor(2 |da| / target) + 2 samples for target = MAX_PHASE_STEP less
    # the slack: every step 2 |da| / (N - 1) stays below target, and one
    # sample fewer would not; checked one ulp around each k target / 2
    for n in (1, 2):
        target = paths.MAX_PHASE_STEP - paths.phase_slack(n)
        assert 0 < paths.phase_slack(n) < 1e-8
        edges = np.arange(10**4 + 1) * target / 2
        sweeps = np.concatenate([np.nextafter(edges, -math.inf), edges, np.nextafter(edges, math.inf)])
        for da in sweeps.tolist():
            count = paths.certified_count(2, 2 * abs(da), n)
            assert count == math.floor(2 * abs(da) / target) + 2
            assert 2 * abs(da) / (count - 1) < paths.MAX_PHASE_STEP
            if count > 2:
                assert 2 * abs(da) / (count - 2) >= target * (1 - 1e-15)
    lam = rotation_path(1, 0.0, 2.3 * math.pi, samples=2)
    assert len(lam.times) == paths.certified_count(2, 4.6 * math.pi, 1) == 11


def test_keller_maslov_anchors():
    assert keller_maslov(rotation_path(1, 0.0, math.pi)) == 1
    assert keller_maslov(constant_path(coordinate_x(2))) == 0
    g1 = rotation_path(1, 0.0, 2 * math.pi)
    g2 = rotation_path(1, 0.0, -3 * math.pi)
    assert keller_maslov(concat(g1, g2)) == -1
    with pytest.raises(BadInput):
        keller_maslov(rotation_path(1, 0.0, 0.5))


def test_winding_in_dimension_two():
    # n = 2 loop of winding 3
    assert keller_maslov(rotation_path(2, 0.0, 3 * math.pi)) == 3


def test_mu_lagrangian_anchors(rng):
    # stratum paths give zero
    assert mu_lagrangian(constant_path(random_frame(rng, 2)), random_frame(rng, 2)) == 0
    # loops give twice the loop index
    for wind in (-2, 1, 3):
        gamma = rotation_path(1, 0.0, wind * math.pi)
        assert mu_lagrangian(gamma, frame_from_graph(np.array([[0.4]]))) == 2 * wind
    # spectral-flow anchor: graph path of A(t) = 2t - 1 against X
    ts = np.linspace(0.0, 1.0, 21)
    frames = np.array([frame_from_graph(np.array([[2 * t - 1.0]])).frame for t in ts])
    lam = LagrangianPath(tuple(ts), frames)
    assert mu_lagrangian(lam, coordinate_x(1)) == 2


def test_concat_and_reverse(rng):
    for n in (1, 2):
        lam = random_lagrangian_path(rng, n)
        lam2 = path_joining(lam.end(), random_frame(rng, n))
        ell = random_frame(rng, n)
        assert mu_lagrangian(concat(lam, lam2), ell) == mu_lagrangian(
            lam, ell
        ) + mu_lagrangian(lam2, ell)
        assert mu_lagrangian(reverse(lam), ell) == -mu_lagrangian(lam, ell)
        loop = concat(lam, reverse(lam))
        assert keller_maslov(loop) == 0
    with pytest.raises(BadInput):
        concat(rotation_path(1, 0.0, 1.0), rotation_path(1, 2.0, 3.0))


def test_path_joining_endpoints(rng):
    for n in (1, 2, 3):
        fa, fb = random_frame(rng, n), random_frame(rng, n)
        lam = path_joining(fa, fb)
        assert same_plane(lam.start(), fa)
        assert same_plane(lam.end(), fb)


def _shear_stack(A):
    """[[1, 0], [a, 1]] for each entry a of a 1-d array A (n = 1)."""
    S = np.tile(np.eye(2), (len(A), 1, 1))
    S[:, 1, 0] = A
    return S


def _rotation_stack(ts):
    """The full rotation loop t -> R(2 pi t) of Sp(1) at the times ts."""
    c, s = np.cos(2 * math.pi * ts), np.sin(2 * math.pi * ts)
    return np.stack((np.stack((c, -s), -1), np.stack((s, c), -1)), -2)


def test_mu_symplectic_anchors():
    n = 1
    eye = np.eye(2 * n)
    const = SymplecticPath((0.0, 1.0), (eye, eye))
    assert mu_symplectic(const, coordinate_x(n)) == 0

    ts = np.linspace(0.0, 1.0, 21)
    sig = SymplecticPath(tuple(ts), _shear_stack(2 * ts - 1.0))
    assert mu_symplectic(sig, coordinate_x(n)) == 2

    # full rotation loop in Sp(1): induced loop winds twice
    loop = SymplecticPath(tuple(ts), _rotation_stack(ts))
    for ell in (coordinate_x(1), coordinate_xstar(1), frame_from_graph(np.array([[0.7]]))):
        assert mu_symplectic(loop, ell) == 4


def test_mu_ell_requires_identity_start(rng):
    sig = random_symplectic_path(rng, 1, start=random_symplectic(rng, 1).entries)
    with pytest.raises(BadInput):
        mu_ell(sig, coordinate_x(1))


@pytest.mark.parametrize(
    "eps, matches",
    [(paths.PLANE_MATCH_TOL, True), (np.nextafter(paths.PLANE_MATCH_TOL, 1.0), False)],
)
def test_identity_start_and_catenation_share_the_matching_rule(eps, matches):
    # both compare the shear [[I, 0], [eps I, I]] with I at PLANE_MATCH_TOL
    S = np.eye(4)
    S[2:, :2] = eps * np.eye(2)
    sheared = SymplecticPath((0.0, 1.0), np.stack([S] * 2))
    for call in (
        lambda: mu_ell(sheared, coordinate_x(2)),
        lambda: concat_symplectic(_identity_path(2), sheared),
    ):
        if matches:
            call()
        else:
            with pytest.raises(BadInput):
                call()


#: 2 pi J, whose algebra path is the full rotation loop R(2 pi t) of Sp(1)
TURN = 2 * math.pi * np.array([[0.0, -1.0], [1.0, 0.0]])


def test_mu_ell_anchors(rng):
    ts = np.linspace(0.0, 1.0, 21)
    sig = SymplecticPath(tuple(ts), _shear_stack(ts))
    assert mu_ell(sig, coordinate_x(1)) == mu_symplectic(sig, coordinate_x(1)) == 1

    # appending a full loop adds 4: the loop R(2 pi t) = exp(2 pi t J),
    # translated by base.end(), on the translate's certified grid
    base = random_symplectic_path(rng, 1)
    appended = concat_symplectic(base, symplectic_path_from_algebra(TURN, base.end()))
    ell = random_frame(rng, 1)
    assert mu_ell(appended, ell) == mu_ell(base, ell) + 4


def test_translated_loop_is_certified_where_the_loops_grid_aliased():
    # S = diag(10, 1/10): cond_2(S) = 100 takes the loop's 33 samples to 802.
    # On the loop's own 33 samples S . loop aliases for the graph of 0.7:
    # the appended path reads -1, base's index, losing the loop's 4
    base = symplectic_path_from_algebra(np.diag([math.log(10.0), -math.log(10.0)]))
    translate = symplectic_path_from_algebra(TURN, start=base.end())
    assert len(translate.times) == 802
    appended = concat_symplectic(base, translate)
    for ell, alone, total in (
        (frame_from_graph([[0.7]]), -1, 3),
        (coordinate_x(1), 0, 4),
        (coordinate_xstar(1), 0, 4),
    ):
        assert mu_ell(base, ell) == alone
        assert mu_ell(appended, ell) == total


def test_induced_path_matches_action(rng):
    n = 2
    sig = random_symplectic_path(rng, n)
    ell = random_frame(rng, n)
    lam = induced_path(sig, ell)
    from maslov import SymplecticMatrix

    end = apply_symplectic(SymplecticMatrix(sig.end()), ell)
    assert same_plane(lam.end(), end)


def test_symplectic_path_from_algebra_validates():
    with pytest.raises(BadInput):
        symplectic_path_from_algebra(np.eye(2))


def test_algebra_membership_fails_on_nan():
    # the membership test is the symmetric rule on M Z, whose `not err <= tol`
    # fails on NaN before any sample is taken
    Z = np.zeros((2, 2))
    Z[0, 1] = math.nan
    with pytest.raises(BadInput, match="generator is not in the symplectic Lie algebra"):
        symplectic_path_from_algebra(Z)


def _identity_path(n):
    return SymplecticPath((0.0, 1.0), np.stack([np.eye(2 * n)] * 2))


DIMENSION_MISMATCHES = {
    "concat-symplectic": lambda: concat_symplectic(_identity_path(1), _identity_path(2)),
    "path-joining": lambda: path_joining(coordinate_x(1), coordinate_x(2)),
    "algebra-odd": lambda: symplectic_path_from_algebra(np.zeros((3, 3))),
    "algebra-start": lambda: symplectic_path_from_algebra(np.zeros((2, 2)), start=np.eye(4)),
    "same-plane": lambda: same_plane(coordinate_x(2), coordinate_x(3)),
    "concat": lambda: concat(rotation_path(2, 0.0, 1.0), rotation_path(3, 0.0, 1.0)),
    "linear-family": lambda: SymmetricFamily.linear([[3.0]], np.diag([1.0, -2.0])),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_MISMATCHES))
def test_dimension_mismatch_is_bad_input(name):
    # each raised numpy's ValueError, or (linear-family) broadcast the 1 x 1
    # endpoint to a 2 x 2 family whose graph path had an index
    with pytest.raises(BadInput):
        DIMENSION_MISMATCHES[name]()


#: the two entries that read a sheet number k
SHEET_SITES = {
    "lift": lambda k: lift_of(coordinate_x(1), k),
    "deck": lambda k: deck_apply(k, lift_of(coordinate_x(1))),
}


#: caller scalars outside the rule (a finite int or float, not a bool; an
#: int for counts, n and sheet numbers)
BAD_SCALARS = {
    # lifted from 0 through float("0.0")
    "lift-theta-start-string": lambda: lift_path(rotation_path(1, 0.0, 1.0), theta_start="0.0"),
    "lift-theta-start-nan": lambda: lift_path(rotation_path(1, 0.0, 1.0), theta_start=math.nan),
    # a sheet number k, read by one rule in lift_of and deck_apply: 0.5 was
    # "theta is not an argument of det w", True added 2 pi, "1" raised
    # TypeError and 10**400 OverflowError; 10**308 makes 2 pi k infinite
    **{
        f"{site}-branch-{name}": lambda site=site, k=k: SHEET_SITES[site](k)
        for site in SHEET_SITES
        for name, k in [
            ("float", 0.5),
            ("bool", True),
            ("string", "1"),
            ("numpy-int", np.int64(1)),
            ("overflow", 10**400),
            ("infinite-turns", 10**308),
        ]
    },
    # TypeError from alpha_end - alpha_start
    "rotation-alpha-start-string": lambda: rotation_path(1, "0", 1.0),
    "rotation-alpha-end-inf": lambda: rotation_path(1, 0.0, math.inf),
    "rotation-n-float": lambda: rotation_path(1.0, 0.0, 1.0),
    "rotation-n-zero": lambda: rotation_path(0, 0.0, 1.0),
    "rotation-samples-float": lambda: rotation_path(1, 0.0, 1.0, 33.0),
    "rotation-samples-numpy": lambda: rotation_path(1, 0.0, 1.0, np.int64(33)),
    "unitary-family-samples-bool": lambda: unitary_path(np.eye(1), np.zeros((1, 1)), True),
    "unitary-family-samples-over-cap": lambda: unitary_path(
        np.eye(1), np.zeros((1, 1)), paths.MAX_SAMPLES + 1
    ),
    # TypeError from linspace for "3" and 2.5, the time-grid message for 1
    "algebra-samples-string": lambda: symplectic_path_from_algebra(np.zeros((2, 2)), samples="3"),
    "algebra-samples-float": lambda: symplectic_path_from_algebra(np.zeros((2, 2)), samples=2.5),
    "algebra-samples-one": lambda: symplectic_path_from_algebra(np.zeros((2, 2)), samples=1),
    "phase-change-nan": lambda: paths.LiftedPath.from_phase_change(
        np.stack([coordinate_x(1).frame] * 2), TOL_SYM, math.nan
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SCALARS))
def test_caller_scalars_are_bad_input(name):
    with pytest.raises(BadInput):
        BAD_SCALARS[name]()


def test_change_of_reference(rng):
    for n in (1, 2, 3):
        lam = random_lagrangian_path(rng, n)
        ell, ellp = random_frame(rng, n), random_frame(rng, n)
        assert mu_lagrangian(lam, ell) - mu_lagrangian(lam, ellp) == (
            kashiwara_tau(lam.end(), ell, ellp).tau
            - kashiwara_tau(lam.start(), ell, ellp).tau
        )


def test_triangle_signature_with_closure(rng):
    """Sum of the three triangle indices minus twice the closure loop index
    equals twice the Kashiwara signature."""
    for n in (1, 2):
        for _ in range(5):
            l0, l1, l2 = (random_frame(rng, n) for _ in range(3))
            p01, p12, p20 = (
                path_joining(l0, l1),
                path_joining(l1, l2),
                path_joining(l2, l0),
            )
            m = keller_maslov(concat(concat(p01, p12), p20))
            total = (
                mu_lagrangian(p01, l2)
                + mu_lagrangian(p12, l0)
                + mu_lagrangian(p20, l1)
            )
            assert total - 2 * m == 2 * kashiwara_tau(l0, l1, l2).tau


def test_winding_integral_cross_check(rng):
    for n in (1, 2):
        for wind in (-1, 2):
            gamma = rotation_path(n, 0.0, wind * math.pi)
            family = lambda ts: paths.rotation_unitaries(n, 0.0, wind * math.pi, ts)
            assert abs(lift_path(gamma).winding() - winding_integral(family)) < 1e-6
        u0, H = random_unitary_family(rng, n)
        lam = unitary_path(u0, H)
        gamma = concat(lam, reverse(lam))
        assert abs(lift_path(gamma).winding() - winding_integral(there_and_back(u0, H))) < 1e-6
