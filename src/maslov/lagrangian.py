"""Lagrangian planes: orthonormal frames, the symmetric-unitary picture,
intersection dimensions and transversal companions.

A plane is stored as one orthonormal 2n x n frame [X; P], validated once by
the frame rule ``check_frames``; this module is the only one that splits a
frame into its X and P blocks.  The symmetric unitary matrix attached to a
plane is w = u u^t with u = P - iX; the map ell -> w is a bijection onto the
symmetric unitaries and is independent of the orthonormal frame chosen
(u -> uO leaves u u^t fixed for real orthogonal O).  So the frame alone fixes
w: the frame computes it on first use, keeps it, and never checks it again,
since the frame's bound implies it.  The symmetric-unitary rule runs only in
``frame_from_w``, where a w comes in from outside.  A stack checked by
``check_frames`` gives its end frames, with their w's and dets, by
``_checked_frames``; ``coordinate_x(n)`` and ``coordinate_xstar(n)`` are
built once per n.  A frame takes det w once too (``det_w``), and
``unitarity_bound`` states what its frame rule implies about w.

Every eigendecomposition of a unitary is ``_eigenbasis``, one ``eigh`` in
the graph chart of Lag(n), real on a w.  Every dim(ell1 /\\ ell2) is
``_intersection``: the eigenvalues of w1 conj(w2) certify 0 away from the
cycle (``transversal_margin``), else corank(w1 - w2) with their count at 1.

Anchor values fixing the sign conventions: X* -> I, X -> -I, and the graph
{p = ax} in n = 1 -> (a^2 - 1 - 2ia) / (1 + a^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .defaults import AMBIGUITY_DECADE, TOL_RANK_BASE, TOL_SYM
from .errors import BadInput, IllConditioned, numeric_array
from .symplectic import SymplecticMatrix


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """Orthonormal 2n x n frame [X; P] of a Lagrangian plane, a read-only
    copy checked by ``check_frames`` at tol, and the plane's w and det w;
    == is identity."""

    frame: np.ndarray
    tol: float = TOL_SYM

    def __post_init__(self):
        F = np.array(numeric_array(self.frame, "frame"), order="C")
        if F.ndim != 2 or F.shape[0] != 2 * F.shape[1] or F.size == 0:
            raise BadInput("frame must be a non-empty 2n x n matrix")
        check_frames(F, self.tol)
        F.setflags(write=False)
        object.__setattr__(self, "frame", F)

    @property
    def n(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def w(self) -> np.ndarray:
        """w = u u^t, computed on first use and kept read-only (see
        ``souriau_w``)."""
        w = _uut(self.frame)
        w.setflags(write=False)
        return w

    @cached_property
    def det_w(self) -> complex:
        """det w, taken on first use and kept: the theta rule of every lift
        of the plane reads it."""
        return np.linalg.det(self.w)


def check_frames(F: np.ndarray, tol) -> None:
    """The one frame rule: the columns of F = [X; P] are orthonormal and
    span an isotropic subspace, both within tol in the max-norm.

    F is one 2n x n frame or an (N, 2n, n) stack of them, checked in one
    batch; tol is a float or one per frame.  Each check reads
    `not err <= tol`, so a NaN entry fails.  The first failing frame, in
    stack order, names the failed check, orthonormality before isotropy."""
    n = F.shape[-1]
    Ft = F.swapaxes(-1, -2)
    A = Ft[..., :n] @ F[..., n:, :]  # X^T P, isotropic iff symmetric
    orth = np.abs(Ft @ F - _identity(n)).max(axis=(-2, -1)) <= tol
    ok = orth & (np.abs(A - A.swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol)
    # one frame gives a numpy bool, whose truth needs no reduction
    if ok if ok.ndim == 0 else ok.all():
        return
    if np.ravel(orth)[np.argmin(np.ravel(ok))]:
        raise BadInput("frame does not span an isotropic subspace")
    raise BadInput("frame columns are not orthonormal")


@lru_cache(maxsize=8, typed=True)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity of the frame rule, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


# bounded (a plane and its w: 32 n^2 bytes, 180 MB over n <= 256); typed: 2.0 never hits 2
@lru_cache(maxsize=8, typed=True)
def coordinate_x(n: int) -> LagrangianFrame:
    """The plane X (p = 0)."""
    return LagrangianFrame(np.eye(2 * n, n))


@lru_cache(maxsize=8, typed=True)
def coordinate_xstar(n: int) -> LagrangianFrame:
    """The plane X* (x = 0)."""
    return LagrangianFrame(np.eye(2 * n, n, k=-n))


def _checked_frames(
    frames: np.ndarray, tol, W: np.ndarray, dets: np.ndarray
) -> list[LagrangianFrame]:
    """The frames of a stack that ``check_frames`` passed at tol (a float or
    one per frame), each keeping w = W[k] = u u^t and det_w = dets[k];
    nothing is checked or taken again.  The caller owns frames and W, which
    become read-only."""
    frames.setflags(write=False)
    W.setflags(write=False)
    out = [object.__new__(LagrangianFrame) for _ in frames]
    tols = [tol] * len(frames) if np.ndim(tol) == 0 else tol
    for ell, F, t, w, d in zip(out, frames, tols, W, dets):
        # w and det_w: the cached_properties' slots
        ell.__dict__.update(frame=F, tol=float(t), w=w, det_w=d)
    return out


def is_symmetric(A: np.ndarray) -> bool:
    """The one symmetric-matrix rule, relative like the rounding error of A:
    ||A - A^T||_max <= TOL_SYM * max(1, ||A||_max); a NaN entry fails.  A is
    one non-empty square matrix or an (N, n, n) stack of them, checked
    matrix by matrix in one batch: it passes when every matrix does."""
    err = np.abs(A - A.swapaxes(-1, -2)).max(axis=(-2, -1))
    return bool((err <= TOL_SYM * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))).all())


def frame_from_graph(A: np.ndarray) -> LagrangianFrame:
    """Orthonormal frame of the graph {(x, Ax)} of a symmetric matrix A.

    Uses the closed form X = (I + A^2)^(-1/2), P = A X on the symmetric part.
    """
    A = numeric_array(A, "graph matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise BadInput("expected a non-empty square matrix")
    if not is_symmetric(A):
        raise BadInput("graph matrix must be symmetric")
    return LagrangianFrame(graph_frames(A))


def graph_frames(A: np.ndarray) -> np.ndarray:
    """The [X; P] frames of the graphs of an n x n matrix or an (N, n, n)
    stack of them, by frame_from_graph's closed form (one batched eigh).
    The caller has checked that each matrix is symmetric, and the frames are
    validated where they are used (LagrangianFrame or LagrangianPath)."""
    A = (A + A.swapaxes(-1, -2)) / 2
    vals, vecs = np.linalg.eigh(A)
    X = (vecs / np.sqrt(1.0 + vals**2)[..., None, :]) @ vecs.swapaxes(-1, -2)
    return np.concatenate((X, A @ X), axis=-2)


def graph_matrix(ell: LagrangianFrame, tol_rank: float, coefficients: np.ndarray, tol_round: float):
    """(U_r, B_r) for the shears S(t) = [[I, 0], [A(t), I]] of ell = [X; P],
    A(t) = sum_k c_k t^k on [0, 1] for the (m, n, n) stack ``coefficients``:
    U_r the kept left singular vectors of X = U diag(sigma) V^T, B_r the
    symmetric (U_r^T P V_r) / sigma_r.  As S(t) fixes X*, u(t) = A(t) X + P
    - iX is block triangular in those bases, and arg det w moves as along
    the graphs of U_r^T A(t) U_r + B_r.  Kept are the sigma above
    t / AMBIGUITY_DECADE (``corank``'s t), in its band too.  Raises
    IllConditioned unless kappa < 1 and 2 pi k kappa <= tol_round, the
    first-order bound on dropping k directions that README's "Closed-form
    lifts" derives; the SVD's rounding, n eps, is added to s, a and p."""
    n = ell.n
    X, P = ell.frame[:n], ell.frame[n:]
    U, sigma, Vt = np.linalg.svd(X)
    r = int(np.count_nonzero(sigma > _rank_threshold(sigma, tol_rank) / AMBIGUITY_DECADE))
    B = (U[:, :r].T @ P @ Vt[:r].T) / sigma[:r]
    if r < n:
        M, floor = U.T @ P @ Vt.T, n * np.finfo(float).eps
        A = U.T @ (coefficients + coefficients.swapaxes(-1, -2)) @ U / 2
        reach = float(np.linalg.norm(coefficients, axis=(1, 2)).sum())
        s = float(sigma[r]) + floor
        a = float(np.linalg.norm(A[:, r:, :r], axis=(1, 2)).sum()) + floor * reach
        p = float(np.linalg.norm(M[:r, r:])) + floor * (1 + reach)
        q = float(np.linalg.norm(M[r:, :r] / sigma[:r]))
        gap = float(np.linalg.svd(M[r:, r:], compute_uv=False)[-1]) - reach * s
        kappa = (s + (a + q) * (a * s + p)) / gap if gap > 0 else math.inf
        bound = 2 * math.pi * (n - r) * kappa if kappa < 1 else math.inf  # NaN too
        if not bound <= tol_round:
            msg = f"dropping the near-kernel of X may move a shear's lift by {bound:.3g}"
            raise IllConditioned(f"{msg}, above tol_round={tol_round:g}")
    return U[:, :r], (B + B.T) / 2


def frame_from_unitary(u: np.ndarray) -> LagrangianFrame:
    """Frame of the plane u X* for unitary u (so that P - iX = u)."""
    return LagrangianFrame(unitary_frames(u))


def unitary_frames(u: np.ndarray) -> np.ndarray:
    """The [X; P] = [-Im u; Re u] frames of the planes u X* of a unitary or
    of an (N, n, n) stack of them; validated where they are used."""
    u = numeric_array(u, "unitary", complex)
    return np.concatenate((-u.imag, u.real), axis=-2)


def frame_unitary(ell: LagrangianFrame) -> np.ndarray:
    """The unitary u = P - iX of a frame."""
    return _unitary(ell.frame)


def _unitary(F: np.ndarray) -> np.ndarray:
    """u = P - iX of a [X; P] frame or of each of a stack of them."""
    n = F.shape[-1]
    return F[..., n:, :] - 1j * F[..., :n, :]


def _uut(F: np.ndarray) -> np.ndarray:
    """u u^t for u = P - iX, on one [X; P] frame or on a stack of them."""
    u = _unitary(F)
    return u @ u.swapaxes(-1, -2)


def souriau_w(ell: LagrangianFrame) -> np.ndarray:
    """w = u u^t with u = P - iX, the frame's kept ``w``, which is computed
    once per frame and not validated again: the frame's bound
    implies that w is symmetric and unitary within max(10, 4n) *
    max(ell.tol, TOL_SYM).  For the frame's defect E = X^t X + P^t P - I, to
    first order w w^H - I = 2 u E u^H, so ||w w^H - I||_max <= 2n ell.tol (the
    isotropy defect cancels, and w is symmetric up to rounding)."""
    return ell.w


def unitarity_bound(n: int, tol: float) -> float:
    """B = n max(10, 4n) max(tol, TOL_SYM), which bounds ||w w^H - I||_2,
    ||w^H w - I||_2 and so ||w||_2 <= 1 + B for the w of a 2n x n frame
    that passes the frame rule at tol.

    The rule bounds G = u^H u - I = (F^t F - I) + i (X^t P - P^t X) by
    sqrt(2) tol entrywise, so g = ||G||_2 <= sqrt(2) n tol, ||u||_2^2 <=
    1 + g, and w w^H - I = (u u^H - I) + u conj(G) u^H has norm at most
    g (2 + g), which B exceeds whenever n tol <= 3.5 (the rounding of u u^t
    sits in the slack, B >= 1e-9 n).  Beyond that ||w||_2 <= 1 + g <= 1 + B
    still holds.  ``souriau_w`` states the max-norm form, B / n."""
    return n * max(10, 4 * n) * max(tol, TOL_SYM)


def det_phase(frames: np.ndarray) -> np.ndarray:
    """arg det w of each [X; P] frame of a (..., 2n, n) stack, w = u u^t as in
    souriau_w: one batched det.  A single 2n x n frame gives a 0-d array."""
    return np.angle(np.linalg.det(_uut(frames)))


def _eigenbasis(v: np.ndarray, real: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """V and phases phi in (-pi, pi], by ascending cos phi, then sin phi, with
    v = V diag(e^{i phi}) V^H for unitary v; V is real if ``real`` says v is
    symmetric.  For the turn e^{i alpha} that centres the widest eigenphase
    gap at -1, C = i (I - e^{i alpha} v)(I + e^{i alpha} v)^-1 is Hermitian
    (real for symmetric v), and phi = 2 arctan(lambda) - alpha for each
    eigenvalue lambda of C.  A rebuild off by over 1e-6 raises IllConditioned."""
    alpha = math.pi - _widest_gap(np.angle(np.linalg.eigvals(v)))
    eye = _identity(len(v))
    turned = np.exp(1j * alpha) * v
    C = 1j * np.linalg.solve(eye + turned, eye - turned)
    lam, V = np.linalg.eigh(C.real if real else C)
    phases = math.pi - (math.pi + alpha - 2 * np.arctan(lam)) % (2 * math.pi)
    order = np.lexsort((np.sin(phases), np.cos(phases)))
    V, phases = V[:, order], phases[order]
    if not np.abs((V * np.exp(1j * phases)) @ V.conj().T - v).max() <= 1e-6:
        raise IllConditioned("eigenbasis of the unitary does not rebuild it")
    return V, phases


def _widest_gap(phases: np.ndarray) -> float:
    """The centre, in [-pi, pi), of the widest gap between the phases on
    the unit circle."""
    phases = np.sort(np.mod(phases, 2 * np.pi))
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
    j = int(np.argmax(gaps))
    return float(np.mod(phases[j] + gaps[j] / 2 + np.pi, 2 * np.pi) - np.pi)


def frame_from_w(w: np.ndarray) -> LagrangianFrame:
    """A frame of the plane represented by w (inverse of souriau_w).

    The one place a w comes in from outside, so the one place the
    symmetric-unitary rule runs: w must be a non-empty square matrix with
    ||w - w^T||_max and ||w w^H - I||_max at most TOL_SYM (a NaN entry
    fails).  The phase of each eigenvalue is halved on the principal branch;
    any branch yields a valid frame of the same plane.
    """
    w = numeric_array(w, "w", complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise BadInput("expected a non-empty square matrix")
    if not np.abs(w - w.T).max() <= TOL_SYM:
        raise BadInput("matrix is not symmetric (plain transpose)")
    if not np.abs(w @ w.conj().T - np.eye(w.shape[0])).max() <= TOL_SYM:
        raise BadInput("matrix is not unitary")
    O, phases = _eigenbasis(w, real=True)
    return frame_from_unitary(O * np.exp(0.5j * phases))


def eigenphases(w: np.ndarray) -> np.ndarray:
    """Sorted phases (in (-pi, pi]) of the unit-circle eigenvalues of w."""
    return np.sort(_eigenbasis(w, real=True)[1])


def corank(m: np.ndarray, tol_rank: float, what: str) -> tuple[int, float]:
    """Corank of m and the threshold t = tol_rank * max(1, largest singular
    value) it was decided at; a singular value inside the ambiguity band
    (t / AMBIGUITY_DECADE, t * AMBIGUITY_DECADE) raises IllConditioned."""
    sigma = np.linalg.svd(m, compute_uv=False)
    t = _rank_threshold(sigma, tol_rank)
    lo, hi = t / AMBIGUITY_DECADE, t * AMBIGUITY_DECADE
    values = sigma.tolist()  # at most 2n floats; a NaN fails every comparison
    if any(lo < s < hi for s in values):
        raise IllConditioned(
            f"singular value inside the ambiguity band around tol={t:g} in {what}"
        )
    return sum(s <= t for s in values), t


def _rank_threshold(sigma: np.ndarray, tol_rank: float) -> float:
    """The corank rule's threshold for singular values sigma."""
    return tol_rank * max(1.0, float(sigma.max(initial=0.0)))


def transversal_margin(ell1: LagrangianFrame, ell2: LagrangianFrame, tol_rank: float) -> float:
    """M = 10 t^ (1 + b) + 4 (n + 2) (c + rho), 10 being AMBIGUITY_DECADE:
    when every eigenvalue lambda of w1 conj(w2) lies farther than M from 1,
    ``corank`` of w1 - w2 at tol_rank can only find 0, with no singular
    value in its band, and no lambda lies within its threshold t of 1.

    - b = ``unitarity_bound`` at the larger frame tol, so ||w_i||_2 <= 1 + b
      and ||w_i w_i^H - I||_2 <= b.
    - t^ = tol_rank * 2 (1 + b) >= t, as sigma_max(w1 - w2) <= ||w1|| + ||w2||.
    - c = b (2 + b) bounds ||V^H V - I||_2 for V = w1 conj(w2), and so the
      distance of V from its unitary polar factor Q.
    - rho = n eps (1 + b)^2 stands for the rounding of one product, eigvals
      or SVD at these norms; b >= 1e-9 n exceeds it a million-fold.

    The computed lambda are the eigenvalues of Q + E with ||E||_2 <= eta =
    c + 2 rho.  By Bauer-Fike on the normal Q, and by continuity from Q to
    Q + E (each cluster of discs of radius eta keeps its count), every
    eigenvalue mu of Q lies within 2 n eta of some lambda.  As
    (w1 - w2) conj(w2) = (Q - I) + (V - Q) - (w2 conj(w2) - I) up to
    rounding and sigma_min(Q - I) = min |mu - 1|, every computed singular
    value of w1 - w2 is at least
    (min |lambda - 1| - 2 n eta - 2 c - 3 rho) / (1 + b) - 2 rho,
    which exceeds 10 t^ when min |lambda - 1| > M, for b <= 1.5.  For a
    larger b, M exceeds every |lambda - 1| <= 1 + (1 + b)^2.  A NaN tol_rank
    makes M NaN, which no distance exceeds; at tol_rank 0 the inequality
    is strict; a negative tol_rank gives t < 0, where corank finds 0 too."""
    n = ell1.n
    b = unitarity_bound(n, max(ell1.tol, ell2.tol))
    t_hat = tol_rank * (2 * (1 + b))
    grow = b * (2 + b) + n * math.ulp(1.0) * (1 + b) ** 2  # c + rho
    return AMBIGUITY_DECADE * t_hat * (1 + b) + 4 * (n + 2) * grow


def _intersection(
    ell1: LagrangianFrame, ell2: LagrangianFrame, tol_rank: float
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """The one intersection rule: (k, lambda, at_one) for k = dim(ell1 /\\
    ell2), the eigenvalues lambda of w1 conj(w2) and the mask of those at 1
    (None when k = 0 is certified by ``transversal_margin``, with no SVD).
    Otherwise k = corank(w1 - w2) at tol_rank, and exactly k eigenvalues
    must lie within its threshold of 1, or IllConditioned is raised; the
    corank's band keeps every other one off the branch cut of arg(-lambda)."""
    if ell1.n != ell2.n:
        raise BadInput("planes live in different dimensions")
    lam = np.linalg.eigvals(ell1.w @ ell2.w.conj())
    far = np.abs(lam - 1)
    if far.min() > transversal_margin(ell1, ell2, tol_rank):
        return 0, lam, None
    k, t = corank(ell1.w - ell2.w, tol_rank, "w-difference corank")
    at_one = far <= t
    count = int(np.count_nonzero(at_one))
    if count != k:
        raise IllConditioned(
            f"{count} eigenvalues within {t:g} of 1 but intersection dimension {k}"
        )
    return k, lam, at_one


def intersection_dim(
    ell1: LagrangianFrame,
    ell2: LagrangianFrame,
    tol_rank: float = TOL_RANK_BASE,
) -> int:
    """dim(ell1 /\\ ell2) by the one intersection rule, ``_intersection``."""
    return _intersection(ell1, ell2, tol_rank)[0]


def transport_frames(
    S: np.ndarray, frames: np.ndarray, tol
) -> tuple[np.ndarray, np.ndarray]:
    """The frames of S . ell for [X; P] frames of ell validated at tol, by
    one matmul and one batched QR, and the tolerance each image must meet:

        100 * tol * max(1, ||S||_F^2).

    S is one 2n x 2n matrix or a stack of them, frames one 2n x n frame or a
    stack, and tol a float or one per frame; they broadcast together.  S has
    been validated by its caller, so it is not checked again.  The images
    are not validated here: the LagrangianFrame or LagrangianPath built
    from them checks the frame rule at the returned tolerance, so corrupted
    inputs surface as errors (isotropy is re-verified, not re-imposed).

    The bound needs no SVD.  The singular values of a symplectic S come in
    pairs (s, 1/s), so cond_2(S) = ||S||_2^2 <= ||S||_F^2 and the bound is
    at least 10 * tol * cond_2(S), the former library rule; at the default
    frame tolerance TOL_SYM it is also at least 1e-8, the former fixed bound
    of path transports.  Both old rules' images pass.
    """
    n = frames.shape[-1]
    if S.shape[-2:] != (2 * n, 2 * n):
        raise BadInput("matrix and plane dimensions differ")
    Q, _ = np.linalg.qr(S @ frames)
    return Q, 100 * np.asarray(tol) * np.maximum(1.0, np.einsum("...ij,...ij->...", S, S))


def apply_symplectic(S: SymplecticMatrix | np.ndarray, ell: LagrangianFrame) -> LagrangianFrame:
    """Frame of S . ell by ``transport_frames``, validated at its bound.

    S is a SymplecticMatrix or a 2n x 2n array its caller has validated
    already (a ``SymplecticPath`` sample, say)."""
    entries = S.entries if isinstance(S, SymplecticMatrix) else numeric_array(S, "matrix")
    Q, tol = transport_frames(entries, ell.frame, ell.tol)
    return LagrangianFrame(Q, float(tol))


def _scalar_frame(theta: float, n: int) -> LagrangianFrame:
    """Frame of the plane with w = e^{i theta} I."""
    u = np.exp(0.5j * theta) * np.eye(n)
    return frame_from_unitary(u)


def companion_phase(ell1: LagrangianFrame, ell2: LagrangianFrame) -> float:
    """Phase theta maximizing the minimal circular distance from e^{i theta}
    to the eigenphase sets of w1 and w2."""
    return _widest_gap(np.concatenate([eigenphases(ell1.w), eigenphases(ell2.w)]))


def transversal_companion(ell1: LagrangianFrame, ell2: LagrangianFrame) -> LagrangianFrame:
    """A plane e^{i theta} I transversal to both inputs; deterministic."""
    theta = companion_phase(ell1, ell2)
    ell3 = _scalar_frame(theta, ell1.n)
    if intersection_dim(ell3, ell1) != 0 or intersection_dim(ell3, ell2) != 0:
        raise IllConditioned("companion plane failed the transversality post-check")
    return ell3


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
