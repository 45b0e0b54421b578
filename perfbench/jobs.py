"""Seeded job sets with closed-form expected outcomes.

This module uses numpy only.  It never imports ``maslov``: every expected
outcome comes from an identity fixed when the job is built, so a change to
the package cannot move its own yardstick.  The identities (with X the
plane p = 0, X* the plane x = 0, u a unitary, O and V real orthogonal,
A = Q diag(d) Q^T with every |d| >= 0.3):

* kashiwara   tau(uX*, u graph A, uX)            = sign A
* inert       inert(uX*, u graph A, uX)          = #{d > 0}
* hormander   twice_value(X*, X, graph A, graph B) = sign B - sign A
* spectral flow, the graph path against X, the shear path against X:
                                                   sign A(1) - sign A(0)
* the graph path shifted by C against graph C: the same value;
  any graph path against X*: 0
* mu-ell of the shear path from the identity against X: sign A(1)
* leray on w = O diag(e^{i phi}) O^T pairs: the sum over the eigen-
  directions of the n = 1 value floor(delta/2pi) + ceil(delta/2pi),
  delta = phi1_j - phi2_j, plus 2 * (deck shift); this covers every
  stratum, since delta = 0 on the common directions
* keller-maslov of t -> u0 V diag(e^{i pi k t}) V^T X*: sum(k); of a
  rotation sweep alpha0 -> alpha0 + k pi: k

Each job is a dict ``{"job": <JSON job>, "expect": {...}, "tag": str}``.
``expect`` is ``{"value": v}``, ``{"twice_value": v}`` or
``{"error": CODE}``; ``defect: True`` marks a job whose expected outcome the
package is known to miss today (NaN inputs, ROADMAP item 5).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: dimensions every in-process workload covers
DIMS = (1, 2, 4, 8)

#: sample count of the user-supplied sample paths; with every |d| <= 1.5 the
#: determinant phase moves at most 6n/64 <= 0.75 rad per step (n <= 8),
#: half the pi/2 step bound, so no valid sample job is undersampled
SAMPLES = 65

#: eigenvalue magnitudes of the random symmetric matrices
EIG_LO, EIG_HI = 0.3, 1.5


# ---------------------------------------------------------------------------
# random building blocks


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


class Sym:
    """A symmetric matrix A = Q diag(d) Q^T with known eigenvalues."""

    def __init__(self, rng, n, positives=None):
        if positives is None:
            positives = int(rng.integers(0, n + 1))
        signs = np.array([1.0] * positives + [-1.0] * (n - positives))
        rng.shuffle(signs)
        self.q = _orthogonal(rng, n)
        self.d = signs * rng.uniform(EIG_LO, EIG_HI, n)
        a = (self.q * self.d) @ self.q.T
        self.a = (a + a.T) / 2

    @property
    def sign(self) -> int:
        return int(np.count_nonzero(self.d > 0) - np.count_nonzero(self.d < 0))

    @property
    def positives(self) -> int:
        return int(np.count_nonzero(self.d > 0))


def _noise_sym(rng, n, scale):
    b = rng.standard_normal((n, n)) * scale
    return (b + b.T) / 2


def _graph_frame(a):
    """Orthonormal frame [X; P] of the graph of a symmetric matrix."""
    vals, vecs = np.linalg.eigh(a)
    x = (vecs / np.sqrt(1.0 + vals**2)) @ vecs.T
    return x, a @ x


def _act_unitary(u, x, p):
    """Frame of u . plane for u = a + ib acting as [[a, -b], [b, a]]."""
    a, b = u.real, u.imag
    return a @ x - b @ p, b @ x + a @ p


def _frame_of_unitary(u):
    """Frame of the plane u X* (P - iX = u)."""
    return -u.imag, u.real


def _L(m):
    return np.asarray(m).tolist()


def _frame_spec(x, p):
    return {"frame": [_L(x), _L(p)]}


def _stacked(x, p):
    return _L(np.vstack([x, p]))


def _job(tag, job, expect, defect=False):
    out = {"tag": tag, "job": job, "expect": expect}
    if defect:
        out["defect"] = True
    return out


def _wrap(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


def _mu1(delta):
    """Leray index of n = 1 cover points whose arguments differ by delta."""
    q = delta / (2 * math.pi)
    return math.floor(q) + math.ceil(q)


# ---------------------------------------------------------------------------
# point indices


def triple(rng, n, kind):
    """kashiwara or inert on (uX*, u graph A, uX)."""
    A = Sym(rng, n)
    u = _unitary(rng, n)
    planes = [
        _frame_spec(*_frame_of_unitary(u)),
        _frame_spec(*_act_unitary(u, *_graph_frame(A.a))),
        _frame_spec(*_act_unitary(u, np.eye(n), np.zeros((n, n)))),
    ]
    value = A.sign if kind == "kashiwara" else A.positives
    return _job(kind, {"n": n, "index": kind, "planes": planes}, {"value": value})


def hormander(rng, n):
    A, B = Sym(rng, n), Sym(rng, n)
    planes = ["coordinate_xstar", "coordinate_x", {"graph": _L(A.a)}, {"graph": _L(B.a)}]
    return _job(
        "hormander",
        {"n": n, "index": "hormander", "planes": planes},
        {"twice_value": B.sign - A.sign},
    )


def spectral_flow(rng, n):
    A0, A1 = Sym(rng, n), Sym(rng, n)
    coeffs = [_L(A0.a), _L(A1.a - A0.a)]
    return _job(
        "spectral-flow",
        {"n": n, "index": "spectral-flow", "family": {"coefficients": coeffs}},
        {"value": A1.sign - A0.sign},
    )


def _leray_plane(o, phi):
    u = o * np.exp(0.5j * phi)
    return _frame_spec(*_frame_of_unitary(u))


def _phases(rng, n):
    """Eigenphases in (-pi, pi) whose sum stays clear of the branch cut of
    the principal argument, so the deck shift below is unambiguous."""
    while True:
        phi = rng.uniform(-math.pi + 0.05, math.pi - 0.05, n)
        if abs(_wrap(phi.sum())) < math.pi - 0.05:
            return phi


def leray(rng, n, k):
    """mu_bar on a pair with a k-dimensional intersection."""
    o = _orthogonal(rng, n)
    while True:
        phi1 = _phases(rng, n)
        phi2 = np.array(
            [_wrap(p + rng.uniform(0.3, 2 * math.pi - 0.3)) for p in phi1]
        )
        common = rng.permutation(n)[:k]
        phi2[common] = phi1[common]
        if abs(_wrap(phi2.sum())) < math.pi - 0.05:
            break
    b1, b2 = (int(b) for b in rng.integers(-1, 2, 2))
    deck1 = b1 + round((_wrap(phi1.sum()) - phi1.sum()) / (2 * math.pi))
    deck2 = b2 + round((_wrap(phi2.sum()) - phi2.sum()) / (2 * math.pi))
    value = sum(_mu1(d) for d in phi1 - phi2) + 2 * (deck1 - deck2)
    lifts = [
        {"plane": _leray_plane(o, phi1), "branch": b1},
        {"plane": _leray_plane(o, phi2), "branch": b2},
    ]
    return _job(f"leray-k{k}", {"n": n, "index": "leray", "lifts": lifts}, {"value": value})


# ---------------------------------------------------------------------------
# paths with a generator


def rotation_loop(rng, n):
    k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    a0 = float(rng.uniform(-1.0, 1.0))
    path = {"kind": "rotation", "alpha_start": a0, "alpha_end": a0 + k * math.pi}
    return _job("keller-rotation", {"n": n, "index": "keller-maslov", "path": path}, {"value": k})


def _polynomial(rng, n, a0, a1):
    """Coefficients [a0, B, a1 - a0 - B] of a quadratic family from a0 to a1;
    the random middle term B bends the path away from a straight segment."""
    B = _noise_sym(rng, n, 1.0)
    return [_L(a0), _L(B), _L(a1 - a0 - B)]


def graph_polynomial(rng, n, index, against):
    """lagrangian or rs along a quadratic graph path."""
    A0, A1 = Sym(rng, n), Sym(rng, n)
    shift = np.zeros((n, n))
    plane = "coordinate_x"
    if against == "graph":
        shift = Sym(rng, n).a
        plane = {"graph": _L(shift)}
    elif against == "xstar":
        plane = "coordinate_xstar"
    coeffs = _polynomial(rng, n, A0.a + shift, A1.a + shift)
    value = 0 if against == "xstar" else A1.sign - A0.sign
    key = "twice_value" if index == "rs" else "value"
    path = {"kind": "graph_polynomial", "coefficients": coeffs}
    job = {"n": n, "index": index, "path": path, "plane": plane}
    return _job(f"{index}-graph-{against}", job, {key: value})


def shear(rng, n, index):
    """symplectic (from A0) or mu-ell (from the identity) against X."""
    A0, A1 = Sym(rng, n), Sym(rng, n)
    start = A0.a if index == "symplectic" else np.zeros((n, n))
    coeffs = _polynomial(rng, n, start, A1.a)
    value = A1.sign - (A0.sign if index == "symplectic" else 0)
    path = {"kind": "shear", "coefficients": coeffs}
    job = {"n": n, "index": index, "path": path, "plane": "coordinate_x"}
    return _job(f"{index}-shear", job, {"value": value})


# ---------------------------------------------------------------------------
# user-supplied samples, no generator


def _unitary_loop_frames(rng, n, samples):
    """Frames of u0 V diag(e^{i pi k t}) V^T X* and the winding sum(k)."""
    u0 = _unitary(rng, n)
    v = _orthogonal(rng, n)
    k = rng.integers(-1, 2, n)
    frames = []
    for t in np.linspace(0.0, 1.0, samples):
        u = u0 @ (v * np.exp(1j * math.pi * k * t)) @ v.T
        frames.append(_stacked(*_frame_of_unitary(u)))
    return frames, int(k.sum())


def keller_samples(rng, n):
    frames, value = _unitary_loop_frames(rng, n, SAMPLES)
    path = {"kind": "lagrangian_samples", "frames": frames}
    return _job("keller-samples", {"n": n, "index": "keller-maslov", "path": path}, {"value": value})


def _linear_family(rng, n, from_zero=False):
    """SAMPLES matrices on the segment from A0 (or from 0) to A1."""
    A0, A1 = Sym(rng, n), Sym(rng, n)
    a0 = np.zeros((n, n)) if from_zero else A0.a
    ts = np.linspace(0.0, 1.0, SAMPLES)
    return [(1 - t) * a0 + t * A1.a for t in ts], A0, A1


def graph_samples(rng, n, index, against):
    mats, A0, A1 = _linear_family(rng, n)
    frames = [_stacked(*_graph_frame(a)) for a in mats]
    plane = "coordinate_xstar" if against == "xstar" else "coordinate_x"
    value = 0 if against == "xstar" else A1.sign - A0.sign
    key = "twice_value" if index == "rs" else "value"
    path = {"kind": "lagrangian_samples", "frames": frames}
    job = {"n": n, "index": index, "path": path, "plane": plane}
    return _job(f"{index}-samples-{against}", job, {key: value})


def shear_samples(rng, n, index):
    mats, A0, A1 = _linear_family(rng, n, from_zero=index == "mu-ell")
    eye, zero = np.eye(n), np.zeros((n, n))
    matrices = [_L(np.block([[eye, zero], [a, eye]])) for a in mats]
    value = A1.sign - (A0.sign if index == "symplectic" else 0)
    path = {"kind": "symplectic_samples", "matrices": matrices}
    job = {"n": n, "index": index, "path": path, "plane": "coordinate_x"}
    return _job(f"{index}-samples", job, {"value": value})


# ---------------------------------------------------------------------------
# expected errors and known defects


def coarse_loop(rng, n):
    """A unit-winding loop on 4 samples: each phase step is 2pi/3."""
    while True:
        frames, value = _unitary_loop_frames(rng, n, 4)
        if abs(value) == 1:
            break
    path = {"kind": "lagrangian_samples", "frames": frames}
    job = {"n": n, "index": "keller-maslov", "path": path}
    return _job("err-undersampled", job, {"error": "UNDERSAMPLED"})


def non_orthonormal_samples(rng, n):
    job = keller_samples(rng, n)["job"]
    frames = job["path"]["frames"]
    frames[SAMPLES // 2] = _L(1.5 * np.asarray(frames[SAMPLES // 2]))
    return _job("err-frame-samples", job, {"error": "BAD_INPUT"})


def non_orthonormal_plane(rng, n):
    job = triple(rng, n, "kashiwara")["job"]
    x, p = job["planes"][1]["frame"]
    job["planes"][1] = {"frame": [_L(1.5 * np.asarray(x)), _L(1.5 * np.asarray(p))]}
    return _job("err-frame-plane", job, {"error": "BAD_INPUT"})


def non_symmetric(rng, n):
    job = graph_polynomial(rng, n, "lagrangian", "x")["job"]
    c = np.asarray(job["path"]["coefficients"][1])
    c[0, n - 1] += 1.0  # n >= 2: a 1 x 1 matrix is always symmetric
    job["path"]["coefficients"][1] = _L(c)
    return _job("err-non-symmetric", job, {"error": "BAD_INPUT"})


def open_loop(rng, n):
    job = rotation_loop(rng, n)["job"]
    job["path"]["alpha_end"] += 0.7
    return _job("err-open-loop", job, {"error": "BAD_INPUT"})


def nan_spectral_flow(rng, n):
    job = spectral_flow(rng, n)["job"]
    c = np.asarray(job["family"]["coefficients"][0])
    c[:] = float("nan")
    job["family"]["coefficients"][0] = _L(c)
    return _job("defect-nan-spectral-flow", job, {"error": "BAD_INPUT"}, defect=True)


def nan_graph_plane(rng, n):
    job = hormander(rng, n)["job"]
    job["planes"][2] = {"graph": [[float("nan")] * n for _ in range(n)]}
    return _job("defect-nan-graph-plane", job, {"error": "BAD_INPUT"}, defect=True)


# ---------------------------------------------------------------------------
# workloads


def _point_index(rng):
    out = []
    for n in DIMS:
        out += [leray(rng, n, 0), leray(rng, n, 0)]
        out += [leray(rng, n, k) for k in range(1, n + 1)]
        out += [triple(rng, n, "kashiwara"), triple(rng, n, "inert")]
        out += [hormander(rng, n), spectral_flow(rng, n)]
    out += [non_orthonormal_plane(rng, 2), nan_spectral_flow(rng, 2), nan_graph_plane(rng, 2)]
    return out


def _path_refine(rng):
    out = []
    for n in DIMS:
        if n <= 2:
            out.append(rotation_loop(rng, n))
        out += [graph_polynomial(rng, n, "lagrangian", against) for against in ("x", "graph", "xstar")]
        out.append(graph_polynomial(rng, n, "rs", "x"))
        out += [shear(rng, n, "symplectic"), shear(rng, n, "mu-ell")]
    out += [open_loop(rng, 1), non_symmetric(rng, 2)]
    return out


def _path_samples(rng):
    out = []
    for n in DIMS:
        out.append(keller_samples(rng, n))
        out += [graph_samples(rng, n, "lagrangian", against) for against in ("x", "xstar")]
        out.append(graph_samples(rng, n, "rs", "x"))
        out += [shear_samples(rng, n, "symplectic"), shear_samples(rng, n, "mu-ell")]
    out += [coarse_loop(rng, 2), non_orthonormal_samples(rng, 2)]
    return out


def _cli_cold(rng):
    """One small job per index kind, two expected errors, two known defects."""
    return [
        rotation_loop(rng, 2),
        leray(rng, 2, 1),
        graph_polynomial(rng, 2, "lagrangian", "x"),
        shear(rng, 2, "symplectic"),
        shear(rng, 2, "mu-ell"),
        triple(rng, 2, "kashiwara"),
        triple(rng, 2, "inert"),
        hormander(rng, 2),
        graph_polynomial(rng, 2, "rs", "x"),
        spectral_flow(rng, 2),
        coarse_loop(rng, 1),
        non_orthonormal_plane(rng, 2),
        nan_spectral_flow(rng, 2),
        nan_graph_plane(rng, 2),
    ]


BUILDERS = {
    "cli-cold": (_cli_cold, 0),
    "path-refine": (_path_refine, 1),
    "path-samples": (_path_samples, 2),
    "point-index": (_point_index, 3),
}


def build(workload: str, seed: int, copies: int = 1) -> list[dict]:
    """The job set of a workload: ``copies`` independent draws of its mix.

    The stream depends only on (seed, workload), so one seed always gives a
    byte-identical job set (see :func:`digest`).
    """
    make, stream = BUILDERS[workload]
    rng = np.random.default_rng([seed, stream])
    return [job for _ in range(copies) for job in make(rng)]


def dumps(job: dict) -> str:
    """Canonical JSON text of a job (NaN is written as the token NaN)."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def digest(job_set: list[dict]) -> str:
    """SHA-256 of the canonical text of a job set, expectations included."""
    h = hashlib.sha256()
    for j in job_set:
        h.update(dumps(j).encode())
        h.update(b"\n")
    return h.hexdigest()
