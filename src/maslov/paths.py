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

The library's own paths are sampled on certified grids (``constructions``);
a caller's samples carry no certificate, and the step test is their guard.

Where the change of arg det w along a path is known in closed form from its
two ends, the path is not sampled at all: ``LiftedPath.from_phase_change``
builds its lift from the two end frames and that change.  The command line
lifts its graph, shear and rotation paths so.

A lift validates once: ``LagrangianPath`` checks its frames as one stack,
``lift_path`` and ``from_phase_change`` take u u^t and det of that stack
once, and the two end lifts reuse its checked frames, w's and dets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .defaults import PLANE_MATCH_TOL, TOL_RANK_BASE, TOL_ROUND, TOL_SYM
from .errors import BadInput, Undersampled, numeric_array, scalar
from .lagrangian import LagrangianFrame, _checked_frames, _uut, check_frames, transport_frames
from .leray import LagrangianLift, _lift, lift_of, mu_bar, nearest_integer
from .symplectic import is_symplectic

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


def lift_path(lam: LagrangianPath) -> LiftedPath:
    """Phase unwrapping of det w along the samples.

    theta(0) is the principal argument of det w(0), as ``lift_of`` reads
    it.  The samples are reduced to u u^t and its det in one batch each,
    which the end lifts reuse; the steps of arg det w are wrapped and
    tested as one vector, and theta is accumulated in time order.  Every
    step must stay below MAX_PHASE_STEP, and at most MAX_SAMPLES + 1
    samples are accepted.

    On a library path's certified grid every step passes
    (``constructions.phase_slack``).  A caller's samples must resolve the
    fastest motion of the path themselves: a feature narrower than the
    sample spacing whose endpoints land on nearby planes is invisible to
    any pointwise test.
    """
    W = _uut(lam.frames)
    dets = np.linalg.det(W)
    angs = np.angle(dets)
    # + 0.0 reads an argument of -0.0 as 0.0, which the reports print
    theta0 = float(angs[0]) + 0.0
    steps = _wrap(np.diff(angs))
    bad = np.flatnonzero(~_step_ok(steps))
    # the sample cap counts accepted samples, so it fires at step
    # MAX_SAMPLES unless a bad step comes first
    if len(steps) > MAX_SAMPLES and (bad.size == 0 or bad[0] >= MAX_SAMPLES):
        raise Undersampled("sample cap exceeded")
    if bad.size:
        raise Undersampled("phase step >= pi/2 between samples: the samples are too coarse")
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


def rotation_unitaries(n: int, alpha_start: float, alpha_end: float, ts: np.ndarray) -> np.ndarray:
    """The (len(ts), n, n) stack diag(e^{i alpha(t)}, 1, ..., 1) of the
    rotation sweep alpha(t) = alpha_start + (alpha_end - alpha_start) t."""
    alpha = alpha_start + (alpha_end - alpha_start) * ts
    out = np.zeros((len(ts), n, n), dtype=complex)
    out[:, range(n), range(n)] = 1.0
    out[:, 0, 0] = np.exp(1j * alpha)
    return out
