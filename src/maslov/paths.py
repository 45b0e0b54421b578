"""Sampled Lagrangian and symplectic paths, continuous lifting of the
determinant phase, the loop winding index, and the canonical intersection
indices for paths.

Paths are ordered samples on [0, 1], held as one (N, 2n, n) or (N, 2n, 2n)
array (a Lagrangian path's samples are frames in the layout of
``LagrangianFrame.frame``, which only ``lagrangian`` splits into blocks).
``lift_path`` unwraps arg det w along the samples as one vector, and every
step must stay below MAX_PHASE_STEP or the lift fails loudly (UNDERSAMPLED):
nothing is interpolated, since interpolation between Lagrangian frames is
not canonical.

Every path the library builds is sampled on a certified grid: its
constructor bounds the speed of arg det w along the exact path (a unitary
family: 2 |tr H|; a linear symmetric family: 2 ||A1 - A0||_*; an algebra
path: 2 ||S0 Z S0^-1||_(n)) and raises the caller's ``samples``, a minimum,
to ``certified_count``, on which every step provably moves the phase by
less than MAX_PHASE_STEP less the rounding slack ``phase_slack``.
``concat``, ``reverse`` and ``concat_symplectic`` keep their parts' grids;
``left_translate`` keeps its path's grid, which S can make too coarse.  A
caller's samples carry no certificate: the step test is their guard.

Where the change of arg det w along a path is known in closed form from its
two ends, the path is not sampled at all: ``LiftedPath.from_phase_change``
builds its lift from the two end frames and that change.  The command line
lifts its graph, shear and rotation paths so.

A lift validates once: ``LagrangianPath`` checks its frames as one stack,
``lift_path`` and ``from_phase_change`` take u u^t and det of that stack
once, and the two end lifts reuse its checked frames, w's and dets.

Numpy only: ``path_joining`` takes its eigenbasis from ``lagrangian._eigenbasis``
and ``symplectic_path_from_algebra`` its exponentials from the batched ``_expm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .defaults import PLANE_MATCH_TOL, TOL_RANK_BASE, TOL_ROUND, TOL_SYM
from .errors import BadInput, Undersampled, numeric_array, scalar
from .lagrangian import (
    LagrangianFrame,
    _checked_frames,
    _eigenbasis,
    _uut,
    check_frames,
    frame_unitary,
    is_symmetric,
    transport_frames,
    unitarity_bound,
    unitary_frames,
)
from .leray import LagrangianLift, _lift, lift_of, mu_bar, nearest_integer
from .symplectic import is_symplectic, omega_matrix

#: step acceptance bound for the determinant phase (margin against aliasing)
MAX_PHASE_STEP = math.pi / 2

#: hard cap on the samples of a certified grid and of a lift
MAX_SAMPLES = 10**6


def sample_count(samples) -> int:
    """The one rule for a caller's sample count: an int by the scalar intake
    rule, in [2, MAX_SAMPLES]."""
    if not 2 <= scalar(samples, "samples", integer=True) <= MAX_SAMPLES:
        raise BadInput(f"samples must lie in [2, {MAX_SAMPLES}]")
    return samples


def phase_slack(n: int) -> float:
    """2 n arcsin(min(1, B)) for B = ``unitarity_bound(n, TOL_SYM)``: how far
    rounding can move a phase step that ``lift_path`` computes between two
    samples of a library path away from the step of the exact path.

    Every library constructor computes its samples within TOL_SYM, entrywise,
    of a frame F of the exact plane: unitary and graph frames to a few n eps,
    a frame transported by S to a few n eps cond_2(S), below TOL_SYM while
    n cond_2(S) stays under about 1e5 (beyond it the step test is the guard).
    Then for u = P - iX, ||u' - u||_2 <= ||u' - u||_F <= sqrt(2) n TOL_SYM,
    and w' - w = (u' - u) u'^t + u (u' - u)^t has norm at most
    sqrt(2) n TOL_SYM (2 + sqrt(2) n TOL_SYM) <= 10 n TOL_SYM <= B; the
    rounding of u u^t and of det sits in B >= 1e-9 n, as in
    ``lagrangian.transversal_margin``.  det w' = det w det(I + w^H (w' - w)),
    and each eigenvalue of the second factor lies within B of 1, so it moves
    the argument by at most arcsin B: a sample's arg det w is off by at most
    n arcsin B, and a step, which has two ends, by twice that.  From B >= 1
    on the slack is n pi >= MAX_PHASE_STEP, and no grid is certified."""
    return 2 * n * math.asin(min(1.0, unitarity_bound(n, TOL_SYM)))


def certified_count(samples, speed: float, n: int) -> int:
    """The sample count of a library path in dimension n whose arg det w
    moves by at most ``speed`` per unit time: the larger of ``samples``
    (``sample_count``) and floor(speed / target) + 2, for target =
    MAX_PHASE_STEP - ``phase_slack(n)``.

    The N equally spaced times on [0, 1] then have N - 1 > speed / target
    steps, so each step moves the exact phase by less than target and the
    computed one by less than MAX_PHASE_STEP; the rounding of the speed and
    of the count, a few ulps of target, sits in the slack.  A count beyond
    MAX_SAMPLES (an infinite or NaN speed included) raises Undersampled
    before anything is allocated."""
    samples = sample_count(samples)
    target = MAX_PHASE_STEP - phase_slack(n)
    ratio = speed / target if target > 0 else math.inf
    # a float comparison, so an infinite (or NaN) count fails it too
    if not ratio + 2 <= MAX_SAMPLES:
        raise Undersampled("certified grid needs more than MAX_SAMPLES samples")
    return max(samples, math.floor(ratio) + 2)


def _ky_fan(Y: np.ndarray, k: int) -> float:
    """The sum of the k largest singular values of Y (one SVD), or inf when
    Y has an entry that is not finite."""
    if not np.isfinite(Y).all():
        return math.inf
    return float(np.linalg.svd(Y, compute_uv=False)[:k].sum())


def _sampled(path, field: str, layout: str, shape_ok: Callable[[int, int], bool]) -> np.ndarray:
    """The checks every sampled path shares, by the intake rule: strictly
    increasing times from 0 to 1, and in ``field`` one (N, r, c) stack of the
    given layout with c >= 1 and shape_ok(r, c), one sample per time.  Both
    are stored, the stack as a read-only copy returned for the class's rule."""
    ts = numeric_array(path.times, "times")
    if ts.ndim != 1 or len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
        raise BadInput("path samples must start at t=0 and end at t=1")
    if not np.all(ts[1:] > ts[:-1]):
        raise BadInput("sample times must be strictly increasing")
    object.__setattr__(path, "times", tuple(ts.tolist()))
    stack = np.array(numeric_array(getattr(path, field), field))
    if stack.ndim != 3 or stack.shape[2] == 0 or not shape_ok(*stack.shape[1:]):
        raise BadInput(f"{field} must be one {layout} stack with n >= 1")
    if len(stack) != len(ts):
        raise BadInput(f"{field}: one sample per time required")
    stack.setflags(write=False)
    object.__setattr__(path, field, stack)
    return stack


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """Samples of a Lagrangian path.

    ``frames`` is one read-only (N, 2n, n) stack of frames, the layout of
    ``LagrangianFrame.frame``, validated here in one batch by
    ``lagrangian.check_frames`` at ``tol``: a float, or one per sample (read
    back as one per sample).
    """

    times: tuple
    frames: np.ndarray
    tol: float | np.ndarray = TOL_SYM

    #: always None: perfbench/tracing.py wraps __post_init__ and reads this
    #: attribute, so both stay until the next benchmark change (ROADMAP
    #: item 1) drops that hook
    generator = None

    def __post_init__(self):
        frames = _sampled(self, "frames", "(N, 2n, n)", lambda r, c: r == 2 * c)
        try:
            tol = np.array(np.broadcast_to(numeric_array(self.tol, "tol"), len(frames)))
        except ValueError:
            raise BadInput("tol must be a float or one per frame") from None
        check_frames(frames, tol)
        tol.setflags(write=False)
        object.__setattr__(self, "tol", tol)

    @property
    def n(self) -> int:
        return self.frames.shape[-1]

    def _frame(self, k: int) -> LagrangianFrame:
        return LagrangianFrame(self.frames[k], float(self.tol[k]))

    def start(self) -> LagrangianFrame:
        return self._frame(0)

    def end(self) -> LagrangianFrame:
        return self._frame(-1)


@dataclass(frozen=True, eq=False)
class SymplecticPath:
    """Samples of a symplectic path: ``matrices`` is one read-only
    (N, 2n, 2n) array, validated here in one batch by ``is_symplectic``."""

    times: tuple
    matrices: np.ndarray

    def __post_init__(self):
        mats = _sampled(self, "matrices", "(N, 2n, 2n)", lambda r, c: r == c and c % 2 == 0)
        if not is_symplectic(mats):
            raise BadInput("path sample is not symplectic")

    @property
    def n(self) -> int:
        return self.matrices.shape[-1] // 2

    def start(self) -> np.ndarray:
        return self.matrices[0]

    def end(self) -> np.ndarray:
        return self.matrices[-1]


def same_plane(f1: LagrangianFrame, f2: LagrangianFrame) -> bool:
    if f1.n != f2.n:
        raise BadInput("planes live in different dimensions")
    return _matches(f1.w, f2.w)


def _matches(a: np.ndarray, b: np.ndarray) -> bool:
    """The one matching rule, for two w matrices or two symplectic matrices:
    ||a - b||_max <= PLANE_MATCH_TOL; a NaN entry fails."""
    return float(np.abs(a - b).max()) <= PLANE_MATCH_TOL


def _rescale(times: Sequence[float], a: float, b: float) -> list[float]:
    return [a + (b - a) * t for t in times]


def concat(lam: LagrangianPath, lam2: LagrangianPath) -> LagrangianPath:
    """Time-rescaled concatenation (lam(2t), lam2(2t - 1)), on the two
    grids: the samples, and so the phase steps, are the parts'."""
    if not same_plane(lam.end(), lam2.start()):
        raise BadInput("paths are not consecutive: endpoint planes differ")
    times = _rescale(lam.times, 0.0, 0.5) + _rescale(lam2.times[1:], 0.5, 1.0)
    frames = np.concatenate((lam.frames, lam2.frames[1:]))
    tol = np.concatenate((lam.tol, lam2.tol[1:]))
    return LagrangianPath(tuple(times), frames, tol)


def reverse(lam: LagrangianPath) -> LagrangianPath:
    """The path t -> lam(1 - t), whose steps are lam's, negated."""
    times = tuple(1.0 - t for t in reversed(lam.times))
    return LagrangianPath(times, lam.frames[::-1], lam.tol[::-1])


def concat_symplectic(sig: SymplecticPath, sig2: SymplecticPath) -> SymplecticPath:
    """Time-rescaled concatenation of two symplectic paths, on their grids."""
    if sig.n != sig2.n:
        raise BadInput("symplectic paths live in different dimensions")
    if not _matches(sig.end(), sig2.start()):
        raise BadInput("symplectic paths are not consecutive")
    times = _rescale(sig.times, 0.0, 0.5) + _rescale(sig2.times[1:], 0.5, 1.0)
    mats = np.concatenate((sig.matrices, sig2.matrices[1:]))
    return SymplecticPath(tuple(times), mats)


def left_translate(S: np.ndarray, sig: SymplecticPath) -> SymplecticPath:
    """The path t -> S . sig(t) on sig's grid, which S can make too coarse:
    S speeds the phase of the induced paths up by up to cond_2(S), so
    sig's certificate does not carry over and the step test is the only
    guard, as for a caller's samples.  The translate of an algebra path
    S0 exp(tZ) is certified when sig is built on the grid certified for
    ``symplectic_path_from_algebra(Z, S @ S0)``, which is that translate."""
    S = numeric_array(S, "matrix")
    if S.shape != (2 * sig.n, 2 * sig.n):
        raise BadInput("matrix and path dimensions differ")
    return SymplecticPath(sig.times, S @ sig.matrices)


@dataclass(frozen=True)
class LiftedPath:
    """The two end lifts of a path, joined by a continuous argument of det w
    along it, and the number of samples that argument was carried through."""

    start: LagrangianLift
    end: LagrangianLift
    sample_count: int

    @classmethod
    def from_phase_change(cls, frames: np.ndarray, tol, dtheta: float) -> "LiftedPath":
        """The lift of a path from the plane of frames[0] to that of
        frames[1] along which arg det w changes by dtheta, known in closed
        form, so nothing between the ends is evaluated: sample_count is 2.

        ``frames`` is a (2, 2n, n) stack, read by the intake rule into a
        copy and checked by one ``check_frames`` call at tol (a float or
        one per frame); dtheta must pass the scalar intake rule.  theta
        starts at the principal argument, as ``lift_path``'s does, and the
        end lift's theta check, |det w - e^{i theta}| within its bound, is
        the closed form's check modulo 2 pi."""
        scalar(dtheta, "phase change")
        frames = np.array(numeric_array(frames, "frames"))
        if frames.ndim != 3 or frames.shape[:2] != (2, 2 * frames.shape[2]) or not frames.size:
            raise BadInput("frames must be one (2, 2n, n) stack with n >= 1")
        check_frames(frames, tol)
        W = _uut(frames)
        dets = np.linalg.det(W)
        theta0 = float(np.angle(dets[0]))
        return _lifted(frames, tol, W, dets, theta0, theta0 + dtheta, 2)

    def winding(self) -> float:
        return (self.end.theta - self.start.theta) / (2 * math.pi)

    def keller_maslov(self, tol_round: float = TOL_ROUND) -> int:
        """Winding number of det w around the lifted path, which must be a loop."""
        if not _matches(self.start.w, self.end.w):
            raise BadInput("loop index requires a closed path")
        message = "loop winding residual {:.3g} exceeds tolerance"
        return nearest_integer(self.winding(), tol_round, Undersampled, message)

    def mu_lagrangian(
        self,
        ell: LagrangianFrame,
        tol_round: float = TOL_ROUND,
        tol_rank: float = TOL_RANK_BASE,
    ) -> int:
        """Canonical intersection index of the path with ell: the difference of
        the two-point index of the end and start lifts against any lift of
        ell, which is independent of the branch choices."""
        ell_inf = lift_of(ell, 0)
        end = mu_bar(self.end, ell_inf, tol_round, tol_rank)
        return end - mu_bar(self.start, ell_inf, tol_round, tol_rank)

    def mu_ell(self, tol_round: float = TOL_ROUND, tol_rank: float = TOL_RANK_BASE) -> int:
        """mu_ell when the path is t -> sig(t) ell with sig(0) = I: the
        canonical two-point index between its end and start lifts."""
        return mu_bar(self.end, self.start, tol_round, tol_rank)


def _lifted(frames, tol, W, dets, theta0: float, theta1: float, count: int) -> LiftedPath:
    """The lift from (frames[0], theta0) to (frames[1], theta1) for a
    (2, 2n, n) stack checked at tol, a float or one per frame, whose W =
    u u^t and dets = det W the end lifts keep and read; nothing is checked
    again."""
    start, end = _checked_frames(frames, tol, W, dets)
    return LiftedPath(_lift(start, theta0), _lift(end, theta1), count)


def _step_ok(d):
    """The phase-step rule, elementwise: |d| < MAX_PHASE_STEP; NaN fails."""
    return np.abs(d) < MAX_PHASE_STEP


def _wrap(d):
    """Phase differences (a float or an array) wrapped into [-pi, pi)."""
    return (d + math.pi) % (2 * math.pi) - math.pi


def lift_path(lam: LagrangianPath, theta_start: float | None = None) -> LiftedPath:
    """Phase unwrapping of det w along the samples.

    theta(0) is the principal argument of det w(0), or theta_start, which
    passes the scalar intake rule and which the start lift checks is an
    argument of det w(0); sheet k starts at lift_of(lam.start(), k).theta.
    The samples are reduced to u u^t and its det in one batch each (the
    arguments are their ``det_phase``), which the end lifts reuse; the steps
    are wrapped and tested as one vector, and theta is accumulated in time
    order.  Every step must stay below MAX_PHASE_STEP, and at most
    MAX_SAMPLES + 1 samples are accepted.

    On a library path's certified grid every step passes (``phase_slack``).
    A caller's samples must resolve the fastest motion of the path
    themselves: a feature narrower than the sample spacing whose endpoints
    land on nearby planes is invisible to any pointwise test.
    """
    if theta_start is not None:
        theta_start = float(scalar(theta_start, "theta_start"))
    W = _uut(lam.frames)
    dets = np.linalg.det(W)
    angs = np.angle(dets)
    # + 0.0 reads an argument of -0.0 as 0.0, which the reports print
    theta0 = float(angs[0]) + 0.0 if theta_start is None else theta_start
    steps = _wrap(np.diff(angs))
    bad = np.flatnonzero(~_step_ok(steps))
    # the sample cap counts accepted samples, so it fires at step
    # MAX_SAMPLES unless a bad step comes first
    if len(steps) > MAX_SAMPLES and (bad.size == 0 or bad[0] >= MAX_SAMPLES):
        raise Undersampled("sample cap exceeded")
    if bad.size:
        # reports carry this text, so it stays byte for byte
        raise Undersampled("phase step >= pi/2 between samples and no generator to refine")
    theta = theta0
    for d in steps.tolist():
        theta += d
    e = [0, -1]
    return _lifted(lam.frames[e], lam.tol[e], W[e], dets[e], theta0, theta, len(angs))


def keller_maslov(gamma: LagrangianPath, tol_round: float = TOL_ROUND) -> int:
    """Winding number of det w around a Lagrangian loop.  The loop is lifted
    before its closedness is checked (an open path that also fails to lift
    raises Undersampled)."""
    return lift_path(gamma).keller_maslov(tol_round)


def mu_lagrangian(
    lam: LagrangianPath,
    ell: LagrangianFrame,
    tol_round: float = TOL_ROUND,
) -> int:
    """Canonical intersection index of a Lagrangian path with a plane."""
    return lift_path(lam).mu_lagrangian(ell, tol_round)


def induced_path(sig: SymplecticPath, ell: LagrangianFrame) -> LagrangianPath:
    """The Lagrangian path t -> sig(t) . ell, transported as one stack by
    ``transport_frames``; each image is validated at its own bound
    100 * ell.tol * max(1, ||sig(t_k)||_F^2) by LagrangianPath.  The
    samples were validated by SymplecticPath and are not checked again."""
    if sig.n != ell.n:
        raise BadInput("path and plane dimensions differ")
    frames, tol = transport_frames(sig.matrices, ell.frame, ell.tol)
    return LagrangianPath(sig.times, frames, tol)


def mu_symplectic(
    sig: SymplecticPath,
    ell: LagrangianFrame,
    tol_round: float = TOL_ROUND,
) -> int:
    """Index of a symplectic path: mu of the induced path t -> sig(t) ell."""
    return mu_lagrangian(induced_path(sig, ell), ell, tol_round)


def check_identity_start(start: np.ndarray) -> None:
    """BadInput unless a symplectic path's start matrix is the identity."""
    if not _matches(start, np.eye(len(start))):
        raise BadInput("this index requires a path starting at the identity")


def mu_ell(
    sig: SymplecticPath,
    ell: LagrangianFrame,
    tol_round: float = TOL_ROUND,
) -> int:
    """Index of a symplectic path from the identity, relative to ell."""
    check_identity_start(sig.start())
    return lift_path(induced_path(sig, ell)).mu_ell(tol_round)


# ---------------------------------------------------------------------------
# constructors


def unitary_path(u0, H, samples: int = 33) -> LagrangianPath:
    """The path of planes u0 exp(itH) X* for an n x n unitary u0 and
    Hermitian H (by the symmetric rule on its real form [[Re H, -Im H],
    [Im H, Re H]]), on the certified grid of at least ``samples`` times.

    Grid rule: det w = det(u)^2 moves by exactly 2 t tr H, so a step of size
    h moves arg det w by 2 h |tr H| (``certified_count`` with speed
    2 |tr H|).  The unitarity of u0 is checked by the frame rule on the
    samples."""
    u0 = numeric_array(u0, "unitary", complex)
    H = numeric_array(H, "H", complex)
    if u0.ndim != 2 or u0.shape[0] != u0.shape[1] or u0.size == 0 or H.shape != u0.shape:
        raise BadInput("u0 and H must be n x n matrices with n >= 1")
    if not is_symmetric(np.block([[H.real, -H.imag], [H.imag, H.real]])):
        raise BadInput("H is not Hermitian")
    ts = np.linspace(0.0, 1.0, certified_count(samples, 2 * abs(np.trace(H).real), len(u0)))
    return LagrangianPath(tuple(ts), unitary_frames(unitary_family(u0, H, ts)))


def unitary_family(u0: np.ndarray, H: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The (len(ts), n, n) stack u0 exp(itH) at the times ts, by one eigh."""
    phases, V = np.linalg.eigh(H)
    return u0 @ (V * np.exp(1j * ts[:, None, None] * phases)) @ V.conj().T


def rotation_path(
    n: int, alpha_start: float, alpha_end: float, samples: int = 33
) -> LagrangianPath:
    """Single-phase sweep u(t) = diag(e^{i alpha(t)}, 1, ..., 1).

    Starting plane X* for alpha_start = 0; a loop iff the sweep is a
    multiple of pi, with winding (alpha_end - alpha_start) / pi.

    The unitary family rule: the phase of det w moves at exactly
    2 |alpha_end - alpha_start|, and every step of the linear sweep is
    equal, so the grid has at least
    floor(2 |alpha_end - alpha_start| / (MAX_PHASE_STEP - phase_slack(n))) + 2
    samples (``certified_count``); a sweep needing more than MAX_SAMPLES
    raises Undersampled before anything is allocated.  n and samples are
    ints and the angles numbers, by the scalar intake rule.
    """
    if scalar(n, "n", integer=True) < 1:
        raise BadInput("n must be >= 1")
    scalar(alpha_start, "alpha_start")
    scalar(alpha_end, "alpha_end")
    ts = np.linspace(0.0, 1.0, certified_count(samples, 2 * abs(alpha_end - alpha_start), n))
    return LagrangianPath(tuple(ts), unitary_frames(rotation_unitaries(n, alpha_start, alpha_end, ts)))


def rotation_unitaries(n: int, alpha_start: float, alpha_end: float, ts: np.ndarray) -> np.ndarray:
    """The (len(ts), n, n) stack diag(e^{i alpha(t)}, 1, ..., 1) of the
    rotation sweep alpha(t) = alpha_start + (alpha_end - alpha_start) t."""
    alpha = alpha_start + (alpha_end - alpha_start) * ts
    out = np.zeros((len(ts), n, n), dtype=complex)
    out[:, range(n), range(n)] = 1.0
    out[:, 0, 0] = np.exp(1j * alpha)
    return out


def path_joining(
    ella: LagrangianFrame, ellb: LagrangianFrame, samples: int = 33
) -> LagrangianPath:
    """A geodesic-style path from ella to ellb through the unitary picture:
    ``unitary_path`` of ua and the H with exp(iH) = ua^H ub."""
    if ella.n != ellb.n:
        raise BadInput("planes live in different dimensions")
    ua = frame_unitary(ella)
    ub = frame_unitary(ellb)
    Z, phases = _eigenbasis(ua.conj().T @ ub)
    path = unitary_path(ua, (Z * phases) @ Z.conj().T, samples)
    if not same_plane(path.end(), ellb):
        raise BadInput("endpoint mismatch in joining path construction")
    return path


def symplectic_path_from_algebra(
    Z: np.ndarray, start: np.ndarray | None = None, samples: int = 33
) -> SymplecticPath:
    """The path t -> S0 exp(tZ), S0 = start (the identity by default) and Z
    in the symplectic Lie algebra, on a certified grid of at least
    ``samples`` times.

    Grid rule.  The induced path of any plane ell is S0 e^{tZ} ell =
    e^{tY} ell0 for ell0 = S0 ell and Y = S0 Z S0^-1, which does not depend
    on t, since Z commutes with e^{tZ}: Y = S(t) Z S(t)^-1 at every t.  Along
    e^{tY} ell0, with F(t) an orthonormal frame, d/dt arg det w =
    2 tr(F^T H F) for the Hamiltonian H = -M Y (M = ``omega_matrix``; the
    tests check this by finite differences), and |tr(F^T H F)| <= ||H||_(n),
    the Ky Fan n-norm: the sum of the n largest singular values, which are
    Y's, M being orthogonal.  So a step of size h moves arg det w by at most
    2 h ||Y||_(n) <= 2 n h ||Z||_2 cond_2(S(t_i)) e^{2 h ||Z||_2} for every
    grid time t_i, and ``certified_count`` takes the speed 2 ||Y||_(n).
    Y is read with one solve against S0, which is checked to be symplectic
    first.  The left translate S . (S0 exp(tZ)) is this path with start
    S @ S0."""
    Z = numeric_array(Z, "generator")
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.size == 0 or Z.shape[0] % 2:
        raise BadInput("generator must be a non-empty square matrix of even dimension")
    n = Z.shape[0] // 2
    # M Z - (M Z)^T = M Z + Z^T M, since M^T = -M
    if not is_symmetric(omega_matrix(n) @ Z):
        raise BadInput("generator is not in the symplectic Lie algebra")
    S0 = np.eye(2 * n) if start is None else numeric_array(start, "matrix")
    if S0.shape != Z.shape:
        raise BadInput("matrix and path dimensions differ")
    if not is_symplectic(S0):
        raise BadInput("path sample is not symplectic")
    speed = 2 * _ky_fan(np.linalg.solve(S0.T, (S0 @ Z).T).T, n)
    ts = np.linspace(0.0, 1.0, certified_count(samples, speed, n))
    mats = _expm(ts[:, None, None] * Z)
    return SymplecticPath(tuple(ts), mats if start is None else S0 @ mats)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (N, d, d) stack by scaling and squaring (Higham
    2005): scaled by 2^-s to ||.||_1 <= 1/4, a degree-18 Taylor polynomial by
    Horner's rule, then squared s times; s is per matrix."""
    s = np.maximum(np.frexp(np.abs(A).sum(axis=-2).max(axis=-1))[1] + 2, 0)
    X = A * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(A.shape[-1])
    E = eye + X / 18
    for k in range(17, 0, -1):
        E = eye + X @ E / k
    for j in range(s.max(initial=0)):
        E[s > j] = E[s > j] @ E[s > j]
    return E
