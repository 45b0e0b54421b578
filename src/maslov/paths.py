"""Sampled Lagrangian and symplectic paths, continuous lifting of the
determinant phase, the loop winding index, and the canonical intersection
indices for paths.

Paths are ordered samples on [0, 1], held as one (N, 2n, n) or (N, 2n, 2n)
array (a Lagrangian path's samples are frames in the layout of
``LagrangianFrame.frame``, which only ``lagrangian`` splits into blocks),
plus an optional pure generator used for adaptive bisection when a phase
step exceeds pi/2.  A generator takes a 1-d array of times and returns the
values there as one stack, so bisection is breadth-first: each refinement
level sends all its pending midpoints to one generator call, in chunks of
at most LEVEL_CHUNK_BYTES of frames.  Sampled-only paths that violate the
step bound fail loudly (UNDERSAMPLED) instead of interpolating:
interpolation between Lagrangian frames is not canonical.

Where the change of arg det w along a path is known in closed form from its
two ends, the path is not sampled at all: ``LiftedPath.from_phase_change``
builds its lift from the two end frames and that change.  The command line
lifts its graph, shear and rotation paths so and never bisects.

A lift validates once: ``LagrangianPath`` checks its frames as one stack,
``lift_path`` and ``from_phase_change`` take u u^t and det of that stack
once, and the two end lifts reuse its checked frames, w's and dets.

Numpy only: ``path_joining`` takes its eigenbasis from ``lagrangian._eigenbasis``
and ``symplectic_path_from_algebra`` its exponentials from the batched ``_expm``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .defaults import PLANE_MATCH_TOL, TOL_RANK_BASE, TOL_ROUND, TOL_SYM
from .errors import BadInput, Undersampled, numeric_array, scalar
from .lagrangian import (
    LagrangianFrame,
    _checked_frames,
    _eigenbasis,
    _uut,
    check_frames,
    det_phase,
    frame_unitary,
    is_symmetric,
    transport_frames,
    unitary_frames,
)
from .leray import LagrangianLift, _lift, lift_of, mu_bar, nearest_integer
from .symplectic import is_symplectic, omega_matrix

#: step acceptance bound for the determinant phase (margin against aliasing)
MAX_PHASE_STEP = math.pi / 2

#: hard cap on samples produced by refinement in a single lift
MAX_SAMPLES = 10**6

#: default bisection depth of lift_path
MAX_REFINE_DEPTH = 40

#: byte budget of the frames one generator call returns during refinement;
#: a level with more pending midpoints is evaluated in chunks
LEVEL_CHUNK_BYTES = 1 << 22


def sample_count(samples) -> int:
    """The one rule for a caller's sample count: an int by the scalar intake
    rule, in [2, MAX_SAMPLES]."""
    if not 2 <= scalar(samples, "samples", integer=True) <= MAX_SAMPLES:
        raise BadInput(f"samples must lie in [2, {MAX_SAMPLES}]")
    return samples


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


def _mapped(f: Callable, g: Optional[Callable]) -> Optional[Callable]:
    """The generator ts -> f(g(ts)) of a path derived from one with
    generator g, or None when g is None."""
    return None if g is None else lambda ts: f(g(ts))


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """Samples of a Lagrangian path and an optional generator.

    ``frames`` is one read-only (N, 2n, n) stack of frames, the layout of
    ``LagrangianFrame.frame``, validated here in one batch by
    ``lagrangian.check_frames`` at ``tol``: a float, or one per sample (read
    back as one per sample).

    The generator maps a 1-d array ts of times to ``(frames, tol)``: the
    (len(ts), 2n, n) stack of frames at those times and the tolerance they
    meet, a float or one per frame (what ``transport_frames`` returns).
    ``lift_path`` checks every generated frame by the same frame rule.
    """

    times: tuple
    frames: np.ndarray
    generator: Optional[Callable[[np.ndarray], tuple]] = None
    tol: float | np.ndarray = TOL_SYM

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
    """Samples of a symplectic path and an optional generator mapping a 1-d
    array ts of times to the (len(ts), 2n, 2n) stack of matrices there;
    ``matrices`` is one read-only (N, 2n, 2n) array, validated here in one
    batch by ``is_symplectic``.  Generated matrices are not checked: the
    frames they transport are, by the induced path."""

    times: tuple
    matrices: np.ndarray
    generator: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
    """Time-rescaled concatenation (lam(2t), lam2(2t - 1))."""
    if not same_plane(lam.end(), lam2.start()):
        raise BadInput("paths are not consecutive: endpoint planes differ")
    times = _rescale(lam.times, 0.0, 0.5) + _rescale(lam2.times[1:], 0.5, 1.0)
    frames = np.concatenate((lam.frames, lam2.frames[1:]))
    tol = np.concatenate((lam.tol, lam2.tol[1:]))
    gen = None
    if lam.generator is not None and lam2.generator is not None:
        g1, g2 = lam.generator, lam2.generator
        shape = lam.frames.shape[1:]

        def gen(ts):
            frames, tol = np.empty((len(ts),) + shape), np.empty(len(ts))
            for part, (f, t) in _by_half(ts, g1, g2):
                frames[part], tol[part] = f, t
            return frames, tol

    return LagrangianPath(tuple(times), frames, gen, tol)


def reverse(lam: LagrangianPath) -> LagrangianPath:
    """The path t -> lam(1 - t)."""
    times = tuple(1.0 - t for t in reversed(lam.times))
    gen = None
    if lam.generator is not None:
        g = lam.generator
        gen = lambda ts: g(1.0 - ts)
    return LagrangianPath(times, lam.frames[::-1], gen, lam.tol[::-1])


def concat_symplectic(sig: SymplecticPath, sig2: SymplecticPath) -> SymplecticPath:
    if sig.n != sig2.n:
        raise BadInput("symplectic paths live in different dimensions")
    if not _matches(sig.end(), sig2.start()):
        raise BadInput("symplectic paths are not consecutive")
    times = _rescale(sig.times, 0.0, 0.5) + _rescale(sig2.times[1:], 0.5, 1.0)
    mats = np.concatenate((sig.matrices, sig2.matrices[1:]))
    gen = None
    if sig.generator is not None and sig2.generator is not None:
        g1, g2 = sig.generator, sig2.generator
        shape = sig.matrices.shape[1:]

        def gen(ts):
            out = np.empty((len(ts),) + shape)
            for part, values in _by_half(ts, g1, g2):
                out[part] = values
            return out

    return SymplecticPath(tuple(times), mats, gen)


def _by_half(ts: np.ndarray, g1: Callable, g2: Callable) -> list:
    """(mask, values) pairs of a catenation's generator: g1 at 2t on the
    times t <= 1/2 and g2 at 2t - 1 on the others, one call each; a half
    with no times is not called."""
    first = ts <= 0.5
    halves = ((first, g1, 2 * ts[first]), (~first, g2, 2 * ts[~first] - 1))
    return [(part, g(s)) for part, g, s in halves if len(s)]


def left_translate(S: np.ndarray, sig: SymplecticPath) -> SymplecticPath:
    """The path t -> S . sig(t)."""
    S = numeric_array(S, "matrix")
    if S.shape != (2 * sig.n, 2 * sig.n):
        raise BadInput("matrix and path dimensions differ")
    return SymplecticPath(sig.times, S @ sig.matrices, _mapped(lambda M: S @ M, sig.generator))


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


def lift_path(
    lam: LagrangianPath,
    theta_start: float | None = None,
    max_depth: int = MAX_REFINE_DEPTH,
) -> LiftedPath:
    """Phase unwrapping of det w along the path.

    theta(0) is the principal argument of det w(0), or theta_start, which
    passes the scalar intake rule and which the start lift checks is an
    argument of det w(0); sheet k starts at lift_of(lam.start(), k).theta.
    Each step uses nearest-argument continuation and must stay below pi/2.
    The samples are reduced to u u^t and its det in one batch each (the
    arguments are their ``det_phase``), which the end lifts reuse.  Without
    a generator the steps are wrapped and tested as one vector.  With one,
    every step is split at its midpoint and accepted only if the split
    reproduces it; steps that fail are bisected breadth-first, up to
    max_depth levels, and each level evaluates all its pending midpoints
    in one generator call (chunked by LEVEL_CHUNK_BYTES), with the wrap,
    the midpoint-consistency guard and the step test run as vectors.
    Either way theta is accumulated in time order, one accepted step
    (or half-step pair) after another.  At most MAX_SAMPLES + 1 samples
    are accepted.

    The sample grid must resolve the fastest motion of the path: a feature
    narrower than half the local sample spacing whose endpoints happen to
    land on nearby planes is invisible to any pointwise test.  Paths
    obtained by transporting with a badly conditioned symplectic matrix
    are the typical offenders; sample those proportionally to cond(S).
    """
    if theta_start is not None:
        theta_start = float(scalar(theta_start, "theta_start"))
    W = _uut(lam.frames)
    dets = np.linalg.det(W)
    angs = np.angle(dets)
    # + 0.0 reads an argument of -0.0 as 0.0, which the reports print
    theta0 = float(angs[0]) + 0.0 if theta_start is None else theta_start
    if lam.generator is None:
        steps = _wrap(np.diff(angs))
        bad = np.flatnonzero(~_step_ok(steps))
        # the sample cap counts accepted samples, so it fires at step
        # MAX_SAMPLES unless a bad step comes first
        if len(steps) > MAX_SAMPLES and (bad.size == 0 or bad[0] >= MAX_SAMPLES):
            raise Undersampled("sample cap exceeded during refinement")
        if bad.size:
            raise Undersampled(
                "phase step >= pi/2 between samples and no generator to refine"
            )
    else:
        steps = _refine(lam, angs, max_depth)
    theta = theta0
    for d in steps.tolist():
        theta += d
    e = [0, -1]
    # every step, or half-step, ends at one accepted sample
    return _lifted(lam.frames[e], lam.tol[e], W[e], dets[e], theta0, theta, 1 + len(steps))


def _refine(lam: LagrangianPath, angs: np.ndarray, max_depth: int) -> np.ndarray:
    """The accepted half-steps d1, d2 of a generator path, in time order.

    Level k holds the pending steps (t0, t1, a0, a1) in time order.  A step
    is accepted when its midpoint split reproduces it (the guard of
    nearest-argument continuation against aliasing) and the step and both
    halves stay below pi/2; a failing step is replaced by its two halves,
    adjacent in level k + 1.  Every pending step adds at least two samples,
    so the sample cap is checked before a level is evaluated.  The accepted
    pairs of all levels are put in time order by one sort of their steps'
    (start, end) times.
    """
    t = np.array(lam.times)
    t0, t1, a0, a1 = t[:-1], t[1:], angs[:-1], angs[1:]
    starts, ends, pairs = [], [], []
    for depth in itertools.count():
        if 2 * (sum(map(len, pairs)) + len(t0)) > MAX_SAMPLES:
            raise Undersampled("sample cap exceeded during refinement")
        tm = (t0 + t1) / 2
        am = _generated_phases(lam, tm)
        d, d1, d2 = _wrap(a1 - a0), _wrap(am - a0), _wrap(a1 - am)
        ok = (np.abs(d1 + d2 - d) < 1e-9) & _step_ok(d) & _step_ok(d1) & _step_ok(d2)
        starts.append(t0[ok])
        ends.append(t1[ok])
        pairs.append(np.stack((d1[ok], d2[ok]), axis=1))
        if ok.all():
            # the accepted steps tile [0, 1], so (start, end) is time order
            order = np.lexsort((np.concatenate(ends), np.concatenate(starts)))
            return np.concatenate(pairs)[order].ravel()
        if depth >= max_depth:
            raise Undersampled("refinement depth exceeded; path may be discontinuous")
        fail = ~ok
        t0, tm, t1, a0, am, a1 = t0[fail], tm[fail], t1[fail], a0[fail], am[fail], a1[fail]
        # a step whose midpoint repeats an end, with that end's phase, has
        # itself as a half and fails again at every depth
        if np.any(((tm == t0) & (am == a0)) | ((tm == t1) & (am == a1))):
            raise Undersampled("refinement depth exceeded; path may be discontinuous")
        t0, t1 = _interleave(t0, tm), _interleave(tm, t1)
        a0, a1 = _interleave(a0, am), _interleave(am, a1)


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x0, y0, x1, y1, ...]."""
    return np.stack((x, y), axis=1).ravel()


def _generated_phases(lam: LagrangianPath, ts: np.ndarray) -> np.ndarray:
    """det_phase of the generator's frames at the times ts, each checked by
    the frame rule at the tolerance the generator returns, in calls of at
    most LEVEL_CHUNK_BYTES of frames."""
    n = lam.n
    chunk = max(1, LEVEL_CHUNK_BYTES // (2 * n * n * 8))  # 2n x n float64 frames
    phases = []
    for i in range(0, len(ts), chunk):
        part = ts[i : i + chunk]
        frames, tol = lam.generator(part)
        frames = numeric_array(frames, "generated frames")
        if frames.shape != (len(part), 2 * n, n):
            raise BadInput("a path generator must return one (len(ts), 2n, n) stack")
        check_frames(frames, tol)
        phases.append(det_phase(frames))
    return np.concatenate(phases)


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
    gen = _mapped(lambda S: transport_frames(S, ell.frame, ell.tol), sig.generator)
    return LagrangianPath(sig.times, frames, gen, tol)


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


def path_from_unitary_family(
    fn: Callable[[np.ndarray], np.ndarray], samples: int = 33
) -> LagrangianPath:
    """Path of planes u(t) X* for a continuous family of unitaries, given as
    fn mapping a 1-d array ts of times to the (len(ts), n, n) stack u(ts),
    sampled at ``samples`` (``sample_count``) equally spaced times."""
    grid = np.linspace(0.0, 1.0, sample_count(samples))
    gen = lambda ts: (unitary_frames(fn(ts)), TOL_SYM)
    return LagrangianPath(tuple(grid), unitary_frames(fn(grid)), gen)


def rotation_path(
    n: int, alpha_start: float, alpha_end: float, samples: int = 33
) -> LagrangianPath:
    """Single-phase sweep u(t) = diag(e^{i alpha(t)}, 1, ..., 1).

    Starting plane X* for alpha_start = 0; a loop iff the sweep is a
    multiple of pi, with winding (alpha_end - alpha_start) / pi.

    The phase of det w moves at exactly 2 |alpha_end - alpha_start|, and
    every step of the linear sweep is equal, so a coarse grid aliases
    whole turns past the midpoint guard.  The grid therefore has at least
    floor(2 |alpha_end - alpha_start| / MAX_PHASE_STEP) + 2 samples, which
    keeps every step below MAX_PHASE_STEP; a sweep needing more than
    MAX_SAMPLES raises Undersampled before anything is allocated.  n and
    samples are ints and the angles numbers, by the scalar intake rule.
    """
    if scalar(n, "n", integer=True) < 1:
        raise BadInput("n must be >= 1")
    scalar(alpha_start, "alpha_start")
    scalar(alpha_end, "alpha_end")
    sample_count(samples)
    ratio = 2 * abs(alpha_end - alpha_start) / MAX_PHASE_STEP
    # a float comparison, so an infinite (or NaN) count fails it too
    if not ratio + 2 <= MAX_SAMPLES:
        raise Undersampled("rotation sweep needs more than MAX_SAMPLES samples")
    samples = max(samples, math.floor(ratio) + 2)
    u = lambda ts: rotation_unitaries(n, alpha_start, alpha_end, ts)
    return path_from_unitary_family(u, samples)


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
    """A geodesic-style path from ella to ellb through the unitary picture."""
    if ella.n != ellb.n:
        raise BadInput("planes live in different dimensions")
    ua = frame_unitary(ella)
    ub = frame_unitary(ellb)
    Z, phases = _eigenbasis(ua.conj().T @ ub)

    def u(ts: np.ndarray) -> np.ndarray:
        return ua @ (Z * np.exp(1j * ts[:, None, None] * phases)) @ Z.conj().T

    path = path_from_unitary_family(u, samples)
    if not same_plane(path.end(), ellb):
        raise BadInput("endpoint mismatch in joining path construction")
    return path


def symplectic_path_from_algebra(
    Z: np.ndarray, start: np.ndarray | None = None, samples: int = 33
) -> SymplecticPath:
    """The path t -> start . exp(tZ), Z in the symplectic Lie algebra."""
    Z = numeric_array(Z, "generator")
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.size == 0 or Z.shape[0] % 2:
        raise BadInput("generator must be a non-empty square matrix of even dimension")
    # M Z - (M Z)^T = M Z + Z^T M, since M^T = -M
    if not is_symmetric(omega_matrix(Z.shape[0] // 2) @ Z):
        raise BadInput("generator is not in the symplectic Lie algebra")

    def S(ts: np.ndarray) -> np.ndarray:
        return _expm(ts[:, None, None] * Z)

    grid = np.linspace(0.0, 1.0, sample_count(samples))
    path = SymplecticPath(tuple(grid), S(grid), S)
    return path if start is None else left_translate(start, path)


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
