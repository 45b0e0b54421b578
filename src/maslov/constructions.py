"""The constructions the axioms are stated on, which no index computation
calls: the library's paths on certified grids, catenation and reversal,
direct sums, the U(n) action, the deck action, transversal companions,
the Robbin-Salamon index of a sampled path and cochains.

Every path the library builds is sampled on a certified grid: its
constructor bounds the speed of arg det w along the exact path (a unitary
family: 2 |tr H|; a linear symmetric family: 2 ||A1 - A0||_*; an algebra
path: 2 ||S0 Z S0^-1||_(n)) and raises the caller's ``samples``, a minimum,
to ``certified_count``, on which every step provably moves the phase by
less than MAX_PHASE_STEP less the rounding slack ``phase_slack``.
``concat``, ``reverse`` and ``concat_symplectic`` keep their parts' grids,
and the left translate S . (S0 exp(tZ)) of an algebra path is the algebra
path with start S @ S0, on its own certified grid.

U(n) sits inside Sp(n) via u = A + iB -> [[A, -B], [B, A]], and direct
sums interleave blocks so that (s' (+) s'') acts on the x-blocks and
p-blocks of the two factors independently.

Numpy only: ``path_joining`` takes its eigenbasis from ``lagrangian._eigenbasis``
and ``symplectic_path_from_algebra`` its exponentials from the batched ``_expm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .defaults import TOL_ROUND, TOL_SYM
from .derived import HalfInteger, SymmetricFamily, graph_path
from .errors import BadInput, IllConditioned, Undersampled, numeric_array, scalar
from .lagrangian import (
    LagrangianFrame,
    _eigenbasis,
    _scalar_frame,
    check_frames,
    companion_phase,
    coordinate_x,
    frame_unitary,
    intersection_dim,
    is_symmetric,
    unitarity_bound,
    unitary_frames,
)
from .leray import LagrangianLift, _turns
from .paths import (
    MAX_PHASE_STEP,
    MAX_SAMPLES,
    LagrangianPath,
    SymplecticPath,
    _matches,
    mu_lagrangian,
    rotation_unitaries,
    same_plane,
    sample_count,
)
from .symplectic import SymplecticMatrix, is_symplectic, omega_matrix

# ---------------------------------------------------------------------------
# the grid rule


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


# ---------------------------------------------------------------------------
# library paths


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


# ---------------------------------------------------------------------------
# catenation and reversal


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


# ---------------------------------------------------------------------------
# direct sums and the U(n) action


def direct_sum_frame(ell1: LagrangianFrame, ell2: LagrangianFrame) -> LagrangianFrame:
    """Frame of ell1 (+) ell2 in the interleaved block convention."""
    F = direct_sum_frames(ell1.frame, ell2.frame)
    return LagrangianFrame(F, max(ell1.tol, ell2.tol))


def direct_sum_frames(F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """The [X; P] frame of the direct sum of two [X; P] frames, X = X1 (+) X2
    and P = P1 (+) P2, or of two equal-length stacks of them, pairwise; the
    one interleaved direct-sum layout, which ``direct_sum_symplectic`` reads
    on column blocks."""
    n1, n2 = F1.shape[-1], F2.shape[-1]
    n = n1 + n2
    F = np.zeros(np.broadcast_shapes(F1.shape[:-2], F2.shape[:-2]) + (2 * n, n))
    F[..., :n1, :n1] = F1[..., :n1, :]
    F[..., n1:n, n1:] = F2[..., :n2, :]
    F[..., n : n + n1, :n1] = F1[..., n1:, :]
    F[..., n + n1 :, n1:] = F2[..., n2:, :]
    return F


def direct_sum_symplectic(S1: SymplecticMatrix, S2: SymplecticMatrix) -> SymplecticMatrix:
    """Block-interleaved direct sum acting on the two factors independently:
    its x and p column blocks are the direct sums of the factors' x and p
    column blocks, in the layout of ``direct_sum_frames``."""
    A, B = S1.entries, S2.entries
    n1, n2 = S1.n, S2.n
    return SymplecticMatrix(
        np.hstack(
            (direct_sum_frames(A[:, :n1], B[:, :n2]), direct_sum_frames(A[:, n1:], B[:, n2:]))
        )
    )


def direct_sum_lift(l1: LagrangianLift, l2: LagrangianLift) -> LagrangianLift:
    """(ell' (+) ell'', theta' + theta''), whose w is w' (+) w''."""
    return LagrangianLift(direct_sum_frame(l1.frame, l2.frame), l1.theta + l2.theta)


def embed_unitary(u: np.ndarray) -> SymplecticMatrix:
    """The block matrix [[A, -B], [B, A]] of the U(n) action, for a complex
    unitary u = A + iB read by the array intake rule."""
    u = numeric_array(u, "unitary", complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
        raise BadInput("a unitary must be a non-empty square matrix")
    # u is unitary iff the frame of the plane u X* is a Lagrangian frame
    check_frames(unitary_frames(u), TOL_SYM)
    return SymplecticMatrix(np.block([[u.real, -u.imag], [u.imag, u.real]]))


# ---------------------------------------------------------------------------
# the deck action, companions and derived indices


def deck_apply(k: int, lift: LagrangianLift) -> LagrangianLift:
    """The deck transformation k of the cover: theta -> theta + 2k pi."""
    return LagrangianLift(lift.frame, lift.theta + _turns(k))


def transversal_companion(ell1: LagrangianFrame, ell2: LagrangianFrame) -> LagrangianFrame:
    """A plane e^{i theta} I transversal to both inputs; deterministic."""
    theta = companion_phase(ell1, ell2)
    ell3 = _scalar_frame(theta, ell1.n)
    if intersection_dim(ell3, ell1) != 0 or intersection_dim(ell3, ell2) != 0:
        raise IllConditioned("companion plane failed the transversality post-check")
    return ell3


def robbin_salamon(
    lam: LagrangianPath, ell: LagrangianFrame, tol_round: float = TOL_ROUND
) -> HalfInteger:
    """Half the canonical Lagrangian intersection index."""
    return HalfInteger(mu_lagrangian(lam, ell, tol_round))


def spectral_flow_path_index(family: SymmetricFamily) -> int:
    """The graph-path index against X; agrees with the endpoint signature
    difference for families with nonsingular endpoints."""
    return mu_lagrangian(graph_path(family), coordinate_x(family.n))


@dataclass(frozen=True)
class Cochain:
    """An integer-valued k-cochain: a function of (k+1)-tuples of points."""

    arity: int
    evaluator: Callable[..., int]

    def __call__(self, *points) -> int:
        if len(points) != self.arity + 1:
            raise BadInput(
                f"cochain of arity {self.arity} takes {self.arity + 1} points"
            )
        return int(self.evaluator(*points))


def coboundary(f: Cochain, points: Sequence) -> int:
    """Alternating sum over deletions: sum_j (-1)^j f(points \\ j)."""
    if len(points) != f.arity + 2:
        raise BadInput(
            f"coboundary of an arity-{f.arity} cochain takes {f.arity + 2} points"
        )
    total = 0
    for j in range(len(points)):
        rest = tuple(points[i] for i in range(len(points)) if i != j)
        total += (-1) ** j * f(*rest)
    return total
