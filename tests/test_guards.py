"""The guarded decisions against their former numpy formulations.

Each ``reference_*`` function restates a rule as it read before it was
moved onto Python floats (``corank``'s band and count, ``sign_counts``,
``_number``), onto one Gram product (``check_frames``) or behind the
transversality certificate (``mu_bar``, whose corank SVD came first).  The
rules must give the same verdicts, counts and messages on values at and
one ulp around every threshold, on NaN and on empty input.

``reference_intersection_dim`` keeps the former two-route intersection
rule, whose frame-kernel corank [F1 | -F2] now lives here only.  The one
rule must never decide a different integer; where it decides a pair that
the two routes refused, 50-digit principal angles must agree with it.
"""

import math

import mpmath
import numpy as np
import pytest

from maslov import cli, constructions, lagrangian, leray, signature
from maslov.defaults import AMBIGUITY_DECADE, TOL_RANK_BASE, TOL_ROUND, TOL_SIG_BASE, TOL_SYM
from maslov.errors import BadInput, IllConditioned, MaslovError, numeric_array
from maslov.random_gen import random_frame, random_frame_intersecting, random_lift


def reference_corank(sigma, tol_rank, what):
    """corank's band and count on the singular values sigma, in numpy."""
    t = tol_rank * max(1.0, float(sigma.max(initial=0.0)))
    if np.any((sigma > t / AMBIGUITY_DECADE) & (sigma < t * AMBIGUITY_DECADE)):
        raise IllConditioned(
            f"singular value inside the ambiguity band around tol={t:g} in {what}"
        )
    return int(np.count_nonzero(sigma <= t)), t


def reference_sign_counts(vals, tol_sig, what):
    mags = np.abs(vals)
    t = tol_sig * max(1.0, float(mags.max(initial=0.0)))
    if np.any((mags > t) & (mags < t * AMBIGUITY_DECADE)):
        raise IllConditioned(
            f"eigenvalue inside the ambiguity band around tol={t:g} in {what}; "
            "inputs are too close to a stratum change"
        )
    pos = int(np.count_nonzero(vals > t))
    neg = int(np.count_nonzero(vals < -t))
    return pos, neg, len(vals) - pos - neg


def reference_check_frames(F, tol):
    n = F.shape[-1]
    X, P = F[..., :n, :], F[..., n:, :]
    Xt = X.swapaxes(-1, -2)
    Pt = P.swapaxes(-1, -2)
    orth = np.abs(Xt @ X + Pt @ P - np.eye(n)).max(axis=(-2, -1)) <= tol
    ok = orth & (np.abs(Xt @ P - Pt @ X).max(axis=(-2, -1)) <= tol)
    if ok if ok.ndim == 0 else ok.all():
        return
    if np.ravel(orth)[np.argmin(np.ravel(ok))]:
        raise BadInput("frame does not span an isotropic subspace")
    raise BadInput("frame columns are not orthonormal")


def reference_matrix(data, shape, what):
    arr = numeric_array(data, what)
    if arr.shape != shape:
        raise BadInput(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadInput(f"{what}: entries must be finite")
    return arr


def reference_number(data, what, integer=False):
    x = float(reference_matrix(data, (), what))
    if integer and not x.is_integer():
        raise BadInput(f"{what}: expected an integer, got {data!r}")
    return int(x) if integer else x


def reference_mu_bar(l1, l2, tol_round=TOL_ROUND, tol_rank=TOL_RANK_BASE):
    """mu_bar with corank's SVD first, on every pair."""
    if l1.n != l2.n:
        raise BadInput("lifts live in different dimensions")
    k, t = lagrangian.corank(l1.w - l2.w, tol_rank, "w-difference corank")
    lam = np.linalg.eigvals(l1.w @ l2.w.conj())
    at_one = np.abs(lam - 1) <= t
    count = int(np.count_nonzero(at_one))
    if count != k:
        raise IllConditioned(
            f"{count} eigenvalues within {t:g} of 1 but intersection dimension {k}"
        )
    phases = np.angle(-(lam[~at_one] if k else lam))
    value = (l1.theta - l2.theta - float(phases.sum())) / math.pi
    message = "index residual {:.3g} exceeds tol_round; the pair is nearly non-transversal"
    return leray.nearest_integer(value, tol_round, IllConditioned, message)


def reference_intersection_dim(ell1, ell2, tol_rank=TOL_RANK_BASE):
    """dim(ell1 /\\ ell2) as the corank of w1 - w2, cross-validated against
    the frame-kernel corank of [F1 | -F2]; a mismatch raises IllConditioned."""
    if ell1.n != ell2.n:
        raise BadInput("planes live in different dimensions")
    k_w, _ = lagrangian.corank(ell1.w - ell2.w, tol_rank, "w-difference corank")
    kernel = np.hstack([ell1.frame, -ell2.frame])
    k_f, _ = lagrangian.corank(kernel, tol_rank, "frame-kernel corank")
    if k_w != k_f:
        raise IllConditioned(f"corank disagreement between routes ({k_w} vs {k_f})")
    return k_w


def outcome(fn, *args):
    """What fn(*args) gives: ("value", result, its type) or the error's
    class and message."""
    try:
        result = fn(*args)
    except MaslovError as exc:
        return type(exc).__name__, str(exc)
    return "value", result, type(result)


def around(x):
    """x and the floats one ulp below and above it."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def edges(t):
    """t / AMBIGUITY_DECADE, t and t * AMBIGUITY_DECADE, each one ulp either side."""
    return [v for e in (t / AMBIGUITY_DECADE, t, t * AMBIGUITY_DECADE) for v in around(e)]


#: the largest singular value or |eigenvalue| of a case (1.0 and below leave
#: t at the base tolerance), and the extra values beside it
SCALES = (None, 0.5, 1.0, 3.0)


def _value_sets(base):
    """Value arrays with one value at each band edge of the threshold that
    base * max(1, scale) gives, NaN in several places, and empty."""
    out = [np.array([])]
    for scale in SCALES:
        t = base * max(1.0, scale or 0.0)
        head = [] if scale is None else [scale]
        out += [np.array(head + [v]) for v in edges(t)]
        out.append(np.array(head + edges(t)))
    # with a NaN, numpy's largest value is NaN, so t is the base tolerance:
    # 0.3 * base (corank's band) or 2 * base (sign_counts') is then in the
    # band, but not in the band of 5 * base, the t the 5.0 beside it gives
    nans = [[math.nan], [math.nan] * 3]
    for v in (0.3 * base, 2 * base):
        nans += [[math.nan, 5.0, v], [5.0, math.nan, v], [5.0, v, math.nan]]
    out += [np.array(v) for v in nans]
    return out


CORANK_CASES = _value_sets(TOL_RANK_BASE)


def test_corank_decides_as_its_numpy_form(monkeypatch):
    for case in CORANK_CASES:
        # the rule's own SVD is replaced by the case's singular values
        sigma = np.abs(case)
        monkeypatch.setattr(np.linalg, "svd", lambda m, compute_uv=False: sigma)
        got = outcome(lagrangian.corank, None, TOL_RANK_BASE, "m")
        assert got == outcome(reference_corank, sigma, TOL_RANK_BASE, "m"), sigma


def test_corank_band_edges_at_the_default_tolerance(monkeypatch):
    # t = 1e-8 and the open band (1e-9, 1e-7) holds t; None: IllConditioned
    table = [
        (1e-9, (1, 1, None)),
        (1e-8, (None, None, None)),
        (1e-7, (None, 0, 0)),
    ]
    for edge, coranks in table:
        for v, corank in zip(around(edge), coranks):
            sigma = np.array([1.0, v])
            monkeypatch.setattr(np.linalg, "svd", lambda m, compute_uv=False: sigma)
            if corank is None:
                with pytest.raises(IllConditioned):
                    lagrangian.corank(None, TOL_RANK_BASE, "m")
            else:
                assert lagrangian.corank(None, TOL_RANK_BASE, "m") == (corank, 1e-8)


def test_corank_on_real_singular_values(rng):
    for n in (1, 2, 4, 8):
        for rank in range(n + 1):
            m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
            sigma = np.linalg.svd(m, compute_uv=False)
            got = outcome(lagrangian.corank, m, TOL_RANK_BASE, "m")
            assert got == outcome(reference_corank, sigma, TOL_RANK_BASE, "m")
            assert got[:2] == ("value", (n - rank, got[1][1]))


SIGN_CASES = _value_sets(TOL_SIG_BASE)
SIGN_CASES += [-v for v in SIGN_CASES] + [np.array([-3.0, 2.0, 1e-9, -1e-9, 5e-9, -3e-8])]


def test_sign_counts_decide_as_their_numpy_form():
    for vals in SIGN_CASES:
        got = outcome(signature.sign_counts, vals, TOL_SIG_BASE, "the form")
        assert got == outcome(reference_sign_counts, vals, TOL_SIG_BASE, "the form"), vals


def test_sign_counts_are_ints():
    pos, neg, null = signature.sign_counts(np.array([2.0, -1.0, 0.0]), TOL_SIG_BASE, "f")
    assert (pos, neg, null) == (1, 1, 1)
    assert all(type(c) is int for c in (pos, neg, null))


def _frame(orth=0.0, iso=0.0):
    """A 4 x 2 frame whose orthonormality defect is orth and whose
    isotropy defect is iso, both in the max-norm (orth up to rounding)."""
    F = np.zeros((4, 2))
    F[0, 0], F[1, 1] = math.sqrt(1.0 + orth), 1.0
    F[2, 1] = iso  # P = [[0, iso], [0, 0]]: X^T P - P^T X has entries +-iso
    return F


FACTORS = (0.5, 0.999, 1.001, 2.0)


@pytest.mark.parametrize("check", ["orth", "iso"])
@pytest.mark.parametrize("factor", FACTORS)
def test_frame_verdicts_at_the_tolerance(check, factor):
    F = _frame(**{check: factor * TOL_SYM})
    got = outcome(lagrangian.check_frames, F, TOL_SYM)
    assert got == outcome(reference_check_frames, F, TOL_SYM)
    if factor < 1:
        assert got == ("value", None, type(None))
    else:
        name = "isotropic subspace" if check == "iso" else "orthonormal"
        assert got[0] == "BadInput" and name in got[1]


STACKS = {
    "all-pass": [("orth", 0.999), ("iso", 0.5), ("iso", 0.999)],
    "orth-first": [("iso", 0.5), ("orth", 1.001), ("iso", 2.0)],
    "iso-first": [("orth", 0.999), ("iso", 1.001), ("orth", 2.0)],
    "both-in-one": [("both", 2.0), ("iso", 2.0)],
    "nan": [("orth", 0.5), ("nan", 1.0), ("iso", 2.0)],
}


def _stack(entries):
    frames = []
    for check, factor in entries:
        if check == "both":
            frames.append(_frame(factor * TOL_SYM, factor * TOL_SYM))
        elif check == "nan":
            frames.append(_frame(iso=math.nan))
        else:
            frames.append(_frame(**{check: factor * TOL_SYM}))
    return np.array(frames)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_frame_stacks_name_the_first_failing_frame(name):
    F = _stack(STACKS[name])
    for tol in (TOL_SYM, np.full(len(F), TOL_SYM)):
        got = outcome(lagrangian.check_frames, F, tol)
        assert got == outcome(reference_check_frames, F, tol)
    expected = {
        "all-pass": None,
        "orth-first": "frame columns are not orthonormal",
        "iso-first": "frame does not span an isotropic subspace",
        "both-in-one": "frame columns are not orthonormal",
        "nan": "frame columns are not orthonormal",  # P^T P is NaN too
    }[name]
    assert got == (("value", None, type(None)) if expected is None else ("BadInput", expected))


def test_frame_rule_on_random_frames(rng):
    # unitary frames, checked alone and as one stack, with per-frame tols
    for n in (1, 2, 4, 8):
        u, _ = np.linalg.qr(rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n)))
        F = lagrangian.unitary_frames(u)
        tol = np.array([1e-14, 1e-15, 1e-16, TOL_SYM, 0.0])
        for k in range(len(F)):
            assert outcome(lagrangian.check_frames, F[k], tol[k]) == outcome(
                reference_check_frames, F[k], tol[k]
            )
        assert outcome(lagrangian.check_frames, F, tol) == outcome(reference_check_frames, F, tol)


SCALARS = {
    "int": 2,
    "float": 2.0,
    "negative-zero": -0.0,
    "fraction": 2.5,
    "bool": True,
    "string": "2",
    "none": None,
    "list": [2],
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -math.inf,
    "beyond-float": 10**400,
    "beyond-int64": 2**64,
    "numpy-int": np.int64(2),
    "numpy-float": np.float64(2.0),
}


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("name", sorted(SCALARS))
def test_number_decides_as_its_numpy_form(name, integer):
    value = SCALARS[name]
    got = outcome(cli._number, value, "x", integer)
    assert got == outcome(reference_number, value, "x", integer)


def _field_job(field, value):
    if field == "n":
        return {"n": value, "index": "leray", "lifts": [{"plane": "coordinate_x"}] * 2}
    if field == "branch":
        lifts = [{"plane": "coordinate_x", "branch": value}, {"plane": "coordinate_xstar"}]
        return {"n": 1, "index": "leray", "lifts": lifts}
    path = {"kind": "rotation", "alpha_end": value}
    return {"n": 1, "index": "keller-maslov", "path": path}


def _report_outcome(job):
    try:
        with np.errstate(all="ignore"):
            return "value", cli.compute_report(job)["value"]
    except MaslovError as exc:
        return exc.code, str(exc)


#: the exact outcome of n set to each value
N_OUTCOMES = {
    "int": ("value", 0),
    "float": ("value", 0),
    "negative-zero": ("BAD_INPUT", "n must lie in [1, 256]"),
    "fraction": ("BAD_INPUT", "n: expected an integer, got 2.5"),
    "bool": ("BAD_INPUT", "n: entries must be numbers"),
    "string": ("BAD_INPUT", "n: entries must be numbers"),
    "none": ("BAD_INPUT", "n: entries must be numbers"),
    "list": ("BAD_INPUT", "n: expected shape (), got (1,)"),
    "nan": ("BAD_INPUT", "n: entries must be finite"),
    "inf": ("BAD_INPUT", "n: entries must be finite"),
    "minus-inf": ("BAD_INPUT", "n: entries must be finite"),
    "beyond-float": ("BAD_INPUT", "n: not a numeric array (int too large to convert to float)"),
    "beyond-int64": ("BAD_INPUT", "n must lie in [1, 256]"),
    "numpy-int": ("value", 0),
    "numpy-float": ("value", 0),
}


@pytest.mark.parametrize("field", ["n", "branch", "alpha_end"])
@pytest.mark.parametrize("name", sorted(SCALARS))
def test_scalar_job_fields_keep_their_outcomes(field, name, monkeypatch):
    job = _field_job(field, SCALARS[name])
    got = _report_outcome(job)
    monkeypatch.setattr(cli, "_number", reference_number)
    monkeypatch.setattr(cli, "_matrix", reference_matrix)
    assert got == _report_outcome(job)
    if field == "n":
        assert got == N_OUTCOMES[name]


def _same_mu_bar(l1, l2, tol_rank=TOL_RANK_BASE):
    got = outcome(leray.mu_bar, l1, l2, TOL_ROUND, tol_rank)
    assert got == outcome(reference_mu_bar, l1, l2, TOL_ROUND, tol_rank)
    return got


def _turned(ell, eps):
    """The plane e^{i eps} w of ell = [X; P], whose u is e^{i eps / 2} u:
    each eigenvalue of w1 conj(w) for this w is turned by e^{-i eps}."""
    return lagrangian.frame_from_unitary(lagrangian.frame_unitary(ell) * np.exp(0.5j * eps))


def _stratum_pairs(rng, n, S=None):
    """(l1, l2) for k = 1..n: l2's plane meets l1's in k directions, turned
    so that those eigenvalues of w1 conj(w2) lie at distances around the
    certificate's margin M and corank's band edges t / 10 and 10 t; with a
    symplectic S, both planes are moved by it first (which keeps k)."""
    for k in range(1, n + 1):
        f1 = random_frame(rng, n)
        f2 = random_frame_intersecting(rng, f1, k)
        if S is not None:
            f1, f2 = (lagrangian.apply_symplectic(S, f) for f in (f1, f2))
        l1 = leray.lift_of(f1, int(rng.integers(-2, 3)))
        margin = lagrangian.transversal_margin(f1, f2, TOL_RANK_BASE)
        sigma = np.linalg.svd(f1.w - f2.w, compute_uv=False)
        t = TOL_RANK_BASE * max(1.0, float(sigma.max()))
        yield l1, leray.lift_of(f2)
        for d in (margin / 2, margin, 2 * margin, t / AMBIGUITY_DECADE, t * AMBIGUITY_DECADE):
            for dist in (d * 0.999, d, d * 1.001):
                if dist < 2:
                    eps = 2 * math.asin(dist / 2)  # |e^{-i eps} - 1| = dist
                    yield l1, leray.lift_of(_turned(f2, eps), int(rng.integers(-2, 3)))


def test_mu_bar_certificate_on_transversal_pairs(rng):
    for n in range(1, 9):
        for _ in range(30):
            got = _same_mu_bar(random_lift(rng, n), random_lift(rng, n))
            assert got[0] == "value"


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_mu_bar_certificate_on_strata(rng, n):
    kinds = set()
    for l1, l2 in _stratum_pairs(rng, n):
        kinds.add(_same_mu_bar(l1, l2)[0])
    # the band edges and the margin cover a value and IllConditioned
    assert kinds == {"value", "IllConditioned"}


def _stretch(n, s):
    """The symplectic diag(L, L^-T) with L = diag(s, 1, ..., 1)."""
    L = np.eye(n)
    L[0, 0] = s
    return np.block([[L, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(L).T]])


@pytest.mark.parametrize("s", [30.0, 1e3, 1e5])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_mu_bar_certificate_after_ill_conditioned_transport(rng, n, s):
    # the transported frames' tol, 100 TOL_SYM ||S||_F^2, widens M
    S = _stretch(n, s)
    for _ in range(10):
        f1, f2 = (lagrangian.apply_symplectic(S, random_frame(rng, n)) for _ in range(2))
        _same_mu_bar(leray.lift_of(f1), leray.lift_of(f2))
    for l1, l2 in _stratum_pairs(rng, n, S):
        _same_mu_bar(l1, l2)


@pytest.mark.parametrize(
    "tol_rank", [math.nan, -1.0, -math.inf, 0.0, -0.0, math.inf, 1e308, 1e-300]
)
def test_mu_bar_certificate_on_direct_tolerances(rng, tol_rank):
    # a library call may pass any tol_rank: a NaN one makes M NaN, and at
    # a zero or negative one the certificate decides as corank does
    for n in (1, 2, 4):
        for _ in range(5):
            _same_mu_bar(random_lift(rng, n), random_lift(rng, n), tol_rank)
        f = random_frame(rng, n)
        _same_mu_bar(leray.lift_of(f), leray.lift_of(f, 1), tol_rank)
        for l1, l2 in _stratum_pairs(rng, n):
            _same_mu_bar(l1, l2, tol_rank)


def test_mu_bar_takes_an_svd_only_near_the_cycle(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    f1 = random_frame(rng, 3)
    l1, l2 = leray.lift_of(f1), random_lift(rng, 3)
    leray.mu_bar(l1, l2)
    assert len(calls) == 0
    leray.mu_bar(l1, leray.lift_of(random_frame_intersecting(rng, f1, 1)))
    assert len(calls) == 1


def _exact_intersection_dim(ell1, ell2, tol_rank=TOL_RANK_BASE):
    """The number of principal angles theta of the two planes, from 50-digit
    orthonormal bases of their frames' spans, with 2 sin theta (the
    distance of the eigenvalue e^{2 i theta} of w1 conj(w2) from 1) at most
    the corank threshold t = tol_rank * max(1, largest 2 sin theta)."""
    with mpmath.workdps(50):
        Q1, _ = mpmath.qr(mpmath.matrix(ell1.frame.tolist()))
        Q2, _ = mpmath.qr(mpmath.matrix(ell2.frame.tolist()))
        n = ell1.n
        Q1, Q2 = Q1[:, :n], Q2[:, :n]
        sines = mpmath.svd_r((mpmath.eye(2 * n) - Q1 * Q1.T) * Q2, compute_uv=False)
        dist = [2 * s for s in sines]
        t = tol_rank * max(1, max(dist))
        return sum(d <= t for d in dist)


@pytest.mark.parametrize("s", [None, 30.0, 1e3, 1e5])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_one_intersection_rule_against_the_two_routes(rng, n, s):
    kinds = []
    for l1, l2 in _stratum_pairs(rng, n, None if s is None else _stretch(n, s)):
        f1, f2 = l1.frame, l2.frame
        got = outcome(lagrangian.intersection_dim, f1, f2)
        ref = outcome(reference_intersection_dim, f1, f2)
        kinds.append((got[0], ref[0]))
        if got[0] == ref[0] == "value":
            assert got == ref
        elif got[0] == "value":
            # a pair in the frame-kernel route's band alone, whose singular
            # values sqrt(2) sin(theta / 2) sit 0.45 decades below 2 sin theta
            assert got[1] == _exact_intersection_dim(f1, f2)
    assert {("value", "value"), ("value", "IllConditioned")} <= set(kinds)


def test_the_one_rule_takes_an_svd_only_near_the_cycle(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    fs = [random_frame(rng, 3) for _ in range(3)]
    signature.inert_index(*fs)
    assert len(calls) == 0
    assert lagrangian.intersection_dim(fs[0], random_frame_intersecting(rng, fs[0], 1)) == 1
    assert len(calls) == 1
    leray.souriau_m(leray.lift_of(fs[1]), leray.lift_of(fs[2], 1))
    constructions.transversal_companion(fs[1], fs[2])
    assert len(calls) == 1
