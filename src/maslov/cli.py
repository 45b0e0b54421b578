"""Command-line front end.

``maslov compute --input job.json`` reads a JSON job description, computes
the requested index, and writes a deterministic JSON report to stdout or
``--output``.  ``maslov verify`` runs the exact-identity suite.

Each path kind has one route: ``rotation``, ``graph_polynomial`` and
``shear`` paths are lifted in closed form from their two ends, and the two
sample kinds by ``paths.lift_path`` without a generator.

Exit codes: 0 success, 2 bad input, 3 undersampled, 4 ill-conditioned,
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import lagrangian, leray, paths, signature
from .defaults import TOL_RANK_BASE, TOL_ROUND, TOL_SIG_BASE, TOL_SYM
from .derived import (
    SymmetricFamily,
    _shear,
    graph_phase_change,
    hormander_xi,
    polynomial_values,
    spectral_flow,
)
from .errors import BadInput, MaslovError, numeric_array, scalar

EXIT_CODES = {"BAD_INPUT": 2, "UNDERSAMPLED": 3, "ILL_CONDITIONED": 4}

PATH_KINDS = ("keller-maslov", "lagrangian", "symplectic", "mu-ell", "rs")

#: largest accepted dimension, checked before anything is allocated
MAX_N = 256

#: the two times at which a closed-form lift evaluates its path
ENDS = np.array([0.0, 1.0])

INDEX_KINDS = (
    "keller-maslov",
    "leray",
    "lagrangian",
    "symplectic",
    "mu-ell",
    "kashiwara",
    "inert",
    "hormander",
    "rs",
    "spectral-flow",
)


def _matrix(data, shape, what):
    """A job array of JSON numbers by the library's intake rule, which
    rejects strings and booleans, of the given shape with finite entries."""
    arr = numeric_array(data, what)
    if arr.shape != shape:
        raise BadInput(f"{what}: expected shape {shape}, got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise BadInput(f"{what}: entries must be finite")
    return arr


def _samples(data, shape, what):
    """A list of job arrays of one shape, read as one stack by one
    ``_matrix`` call.  Only when that fails is each sample read alone, so
    that the message names the first bad one ("{what} i")."""
    try:
        return _matrix(data, (len(data),) + shape, f"{what}s")
    except BadInput:
        for i, item in enumerate(data):
            _matrix(item, shape, f"{what} {i}")
        raise


def _number(data, what, integer=False):
    """A scalar job field: a finite number, integral if ``integer``.  A plain
    int or float, all that JSON yields, is decided on the Python number;
    anything else (numpy scalars, bool, str, None, lists, an int that may
    overflow a float) is read by ``_matrix``, which names its fault."""
    if type(data) is float or (type(data) is int and abs(data) < 2**1000):
        x = float(data)
        if not math.isfinite(x):
            raise BadInput(f"{what}: entries must be finite")
    else:
        x = float(_matrix(data, (), what))
    if integer and not x.is_integer():
        raise BadInput(f"{what}: expected an integer, got {data!r}")
    return int(x) if integer else x


def check_tolerance(value, what):
    """The rule for a tolerance argument: a number by the scalar intake rule
    (``errors.scalar``), finite and > 0.  A NaN, infinite, zero or negative
    number fails with one message, as ``maslov compute`` names its flags."""
    if isinstance(value, (int, float)) and not 0 < value < math.inf:
        raise BadInput(f"{what} must be finite and > 0")
    scalar(value, what)


def _times(spec, count):
    if "times" not in spec:
        return tuple(np.linspace(0.0, 1.0, count))
    return tuple(_matrix(spec["times"], (count,), "times"))


def parse_plane(spec, n) -> lagrangian.LagrangianFrame:
    if spec == "coordinate_x":
        return lagrangian.coordinate_x(n)
    if spec == "coordinate_xstar":
        return lagrangian.coordinate_xstar(n)
    if isinstance(spec, dict) and "graph" in spec:
        return lagrangian.frame_from_graph(_matrix(spec["graph"], (n, n), "graph plane"))
    if isinstance(spec, dict) and "frame" in spec:
        pair = spec["frame"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise BadInput("frame plane: expected [X, P]")
        X = _matrix(pair[0], (n, n), "frame plane X")
        P = _matrix(pair[1], (n, n), "frame plane P")
        return lagrangian.LagrangianFrame(np.concatenate((X, P)))
    raise BadInput(f"unrecognized plane description: {spec!r}")


def _polynomial(coefficients, n) -> tuple[np.ndarray, np.ndarray]:
    """A job's symmetric n x n coefficients c_k as one stack (each read by
    ``_matrix``, the stack by ``is_symmetric``), and A(0), A(1) of the
    family A(t) = sum_k c_k t^k, symmetrised: only a non-finite end fails."""
    if not isinstance(coefficients, (list, tuple)):
        raise BadInput("polynomial coefficients: expected a list of matrices")
    coeffs = [
        _matrix(c, (n, n), f"polynomial coefficient {i}")
        for i, c in enumerate(coefficients)
    ]
    if not coeffs:
        raise BadInput("graph_polynomial needs at least one coefficient")
    coeffs = np.array(coeffs)
    if not lagrangian.is_symmetric(coeffs):
        i = next(i for i, c in enumerate(coeffs) if not lagrangian.is_symmetric(c))
        raise BadInput(f"polynomial coefficient {i} is not symmetric")
    ends = polynomial_values(coeffs, ENDS)
    if not np.isfinite(ends).all():
        t = int(np.isfinite(ends[0]).all())  # the first non-finite end
        raise BadInput(f"family matrix A({t}) is not finite: the coefficients overflow")
    return coeffs, ends


def _rotation_fields(spec, n) -> tuple[float, float]:
    """alpha_start and alpha_end of a rotation path job; samples is checked."""
    if n not in (1, 2):
        raise BadInput("rotation paths are defined for n = 1 or 2")
    a0 = _number(spec.get("alpha_start", 0.0), "alpha_start")
    a1 = _number(spec.get("alpha_end", math.pi), "alpha_end")
    paths.sample_count(_number(spec.get("samples", 33), "samples", integer=True))
    return a0, a1


def parse_lagrangian_path(spec, n) -> paths.LagrangianPath:
    """A ``lagrangian_samples`` path job (the other kinds: ``_lagrangian_lift``)."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "lagrangian_samples":
        frames_raw = spec.get("frames")
        if not isinstance(frames_raw, list) or len(frames_raw) < 2:
            raise BadInput("lagrangian_samples needs at least two frames")
        frames = _samples(frames_raw, (2 * n, n), "frame sample")
        return paths.LagrangianPath(_times(spec, len(frames)), frames, None)
    raise BadInput(f"unrecognized Lagrangian path kind: {kind!r}")


def parse_symplectic_path(spec, n) -> paths.SymplecticPath:
    """A ``symplectic_samples`` path job (a shear: ``_symplectic_lift``)."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "symplectic_samples":
        mats_raw = spec.get("matrices")
        if not isinstance(mats_raw, list) or len(mats_raw) < 2:
            raise BadInput("symplectic_samples needs at least two matrices")
        mats = _samples(mats_raw, (2 * n, 2 * n), "matrix sample")
        return paths.SymplecticPath(_times(spec, len(mats)), mats, None)
    raise BadInput(f"unrecognized symplectic path kind: {kind!r}")


def _lagrangian_lift(spec, n) -> paths.LiftedPath | paths.LagrangianPath:
    """The lift of a rotation or graph_polynomial path, whose change of arg
    det w is known in closed form from its two ends; a sampled path as
    ``parse_lagrangian_path`` reads it, for ``lift_path``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "rotation":
        a0, a1 = _rotation_fields(spec, n)
        # checked before the end frames, which an infinite sweep makes NaN
        dtheta = scalar(2 * (a1 - a0), "the rotation's phase change 2 (alpha_end - alpha_start)")
        frames = lagrangian.unitary_frames(paths.rotation_unitaries(n, a0, a1, ENDS))
        return paths.LiftedPath.from_phase_change(frames, TOL_SYM, dtheta)
    if kind == "graph_polynomial":
        _, ends = _polynomial(spec.get("coefficients", []), n)
        frames = lagrangian.graph_frames(ends)
        return paths.LiftedPath.from_phase_change(frames, TOL_SYM, graph_phase_change(ends))
    return parse_lagrangian_path(spec, n)


def _symplectic_lift(spec, plane, n, identity_start, tol_round, tol_rank):
    """(lift, ell) for a symplectic path job and the plane it moves,
    checking that the path starts at the identity when ``identity_start``:
    a shear's lift in closed form (``lagrangian.graph_matrix``), or the
    induced path of a sampled path, for ``lift_path``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind != "shear":
        sig = parse_symplectic_path(spec, n)
        ell = parse_plane(plane, n)
        if identity_start:
            paths.check_identity_start(sig.start())
        return paths.induced_path(sig, ell), ell
    coeffs, ends = _polynomial(spec.get("coefficients", []), n)
    ell = parse_plane(plane, n)
    S = _shear(ends)
    if identity_start:
        paths.check_identity_start(S[0])
    U, B = lagrangian.graph_matrix(ell, tol_rank, coeffs, tol_round)
    frames, tol = lagrangian.transport_frames(S, ell.frame, ell.tol)
    dtheta = graph_phase_change(U.T @ ends @ U + B)
    return paths.LiftedPath.from_phase_change(frames, tol, dtheta), ell


def _lift_from_spec(spec, n) -> leray.LagrangianLift:
    if not isinstance(spec, dict) or "plane" not in spec:
        raise BadInput('lift description must be {"plane": ..., "branch": k}')
    branch = _number(spec.get("branch", 0), "branch", integer=True)
    return leray.lift_of(parse_plane(spec["plane"], n), branch)


def _lift_report(lift: leray.LagrangianLift) -> dict:
    return {"theta": float(lift.theta), "n": lift.n}


def _planes_of(job, n, count):
    specs = job.get("planes")
    if not isinstance(specs, list) or len(specs) != count:
        raise BadInput(f"this index needs exactly {count} planes")
    return [parse_plane(s, n) for s in specs]


def compute_report(
    job: dict,
    tol_round: float = TOL_ROUND,
    tol_rank: float = TOL_RANK_BASE,
    tol_sig: float = TOL_SIG_BASE,
) -> dict:
    """The report of one job; the tolerances are the bases of the rounding,
    corank and signature decisions, each checked by ``check_tolerance``,
    and the report echoes them."""
    check_tolerance(tol_round, "tol_round")
    check_tolerance(tol_rank, "tol_rank")
    check_tolerance(tol_sig, "tol_sig")
    if not isinstance(job, dict):
        raise BadInput("job must be a JSON object")
    n = _number(job.get("n"), "n", integer=True)
    if not 1 <= n <= MAX_N:
        raise BadInput(f"n must lie in [1, {MAX_N}]")
    kind = job.get("index")
    if kind not in INDEX_KINDS:
        raise BadInput(f"index must be one of {', '.join(INDEX_KINDS)}")

    report: dict = {"index": kind, "n": n}

    if kind in PATH_KINDS:
        # every path index is read off one lift: a closed form for the
        # generator kinds, else a lift of the sampled (induced) path
        if kind in ("symplectic", "mu-ell"):
            lifted, ell = _symplectic_lift(
                job.get("path"), job.get("plane"), n, kind == "mu-ell", tol_round, tol_rank
            )
        else:
            lifted = _lagrangian_lift(job.get("path"), n)
            if kind != "keller-maslov":
                ell = parse_plane(job.get("plane"), n)
        if isinstance(lifted, paths.LagrangianPath):
            lifted = paths.lift_path(lifted)
        if kind == "keller-maslov":
            value = lifted.keller_maslov(tol_round)
        elif kind == "mu-ell":
            value = lifted.mu_ell(tol_round, tol_rank)
        else:
            value = lifted.mu_lagrangian(ell, tol_round, tol_rank)
        report["twice_value" if kind == "rs" else "value"] = value
        report["samples"] = lifted.sample_count
        report["lifts"] = {
            "start": _lift_report(lifted.start),
            "end": _lift_report(lifted.end),
        }
        if kind in ("lagrangian", "rs"):
            report["lifts"]["reference_branch"] = 0
    elif kind == "leray":
        lifts_raw = job.get("lifts")
        if not isinstance(lifts_raw, list) or len(lifts_raw) != 2:
            raise BadInput("the two-point index needs exactly two lifts")
        l1 = _lift_from_spec(lifts_raw[0], n)
        l2 = _lift_from_spec(lifts_raw[1], n)
        report["value"] = leray.mu_bar(l1, l2, tol_round, tol_rank)
        report["lifts"] = {"first": _lift_report(l1), "second": _lift_report(l2)}
    elif kind == "kashiwara":
        fs = _planes_of(job, n, 3)
        sig3 = signature.kashiwara_tau(*fs, tol_sig=tol_sig)
        report["value"] = sig3.tau
        report["eigenvalue_counts"] = {
            "positive": sig3.positive_count,
            "negative": sig3.negative_count,
            "null": sig3.null_count,
        }
    elif kind == "inert":
        fs = _planes_of(job, n, 3)
        report["value"] = signature.inert_index(*fs, tol_rank=tol_rank, tol_sig=tol_sig)
    elif kind == "hormander":
        fs = _planes_of(job, n, 4)
        report["twice_value"] = hormander_xi(*fs, tol_sig=tol_sig).twice_value
    elif kind == "spectral-flow":
        fam_spec = job.get("family") or job.get("path") or {}
        coeffs = fam_spec.get("coefficients") if isinstance(fam_spec, dict) else None
        if coeffs is None:
            raise BadInput(
                'spectral-flow needs {"family": {"coefficients": [A0, A1, ...]}}'
            )
        _, ends = _polynomial(coeffs, n)
        report["value"] = spectral_flow(SymmetricFamily((0.0, 1.0), ends), tol_sig)

    report["inputs"] = job
    report["tolerances"] = {
        "tol_rank": tol_rank,
        "tol_sig": tol_sig,
        "tol_round": tol_round,
    }
    return report


def _serialize(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(", ", ": ")) + "\n"


def _has_boolean(data) -> bool:
    """Whether a decoded JSON value holds a boolean anywhere.  No job field
    is boolean, and numpy would read one mixed into a numeric array as 0/1."""
    stack = [data]
    while stack:
        x = stack.pop()
        if isinstance(x, bool):
            return True
        if isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
    return False


def _fail(code: str, message: str) -> int:
    sys.stderr.write(_serialize({"error": {"code": code, "message": message}}))
    return EXIT_CODES[code]


def cmd_compute(args) -> int:
    for flag in ("tol_rank", "tol_sig", "tol_round"):
        try:
            check_tolerance(getattr(args, flag), f"--{flag.replace('_', '-')}")
        except BadInput as exc:
            return _fail(exc.code, str(exc))
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        return _fail("BAD_INPUT", f"cannot read job file: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        return _fail("BAD_INPUT", f"invalid JSON: {exc}")
    except RecursionError:
        return _fail("BAD_INPUT", "invalid JSON: nested too deeply")
    if _has_boolean(job):
        return _fail("BAD_INPUT", "job: booleans are not accepted")
    if args.index is not None and isinstance(job, dict):
        job = dict(job, index=args.index)
    try:
        # an overflow reaches a check as inf or NaN, which fails it anyway
        with np.errstate(all="ignore"):
            report = compute_report(job, args.tol_round, args.tol_rank, args.tol_sig)
    except MaslovError as exc:
        return _fail(exc.code, str(exc))
    try:
        text = _serialize(report)
    except RecursionError:
        # the report nests the job one level deeper than json.load did
        return _fail("BAD_INPUT", "job: nested too deeply to echo")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail("BAD_INPUT", f"cannot write report file: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        return _fail("BAD_INPUT", "--seed must be >= 0")
    if args.n_max < 1:
        return _fail("BAD_INPUT", "--n-max must be >= 1")
    # the verification layer stays out of the compute path's imports
    from . import verify

    results = verify.run_all(seed=args.seed, n_max=args.n_max)
    for r in results:
        if r.passed:
            print(f"PASS {r.check_id} ({r.instances} instances)")
        else:
            print(f"FAIL {r.check_id}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"passed {passed}/{len(results)} checks")
    return 0 if passed == len(results) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maslov",
        description="Topological Maslov-type indices for symplectic spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute an index from a JSON job file")
    comp.add_argument("--input", required=True, help="path to the JSON job file")
    comp.add_argument("--output", help="write the report here instead of stdout")
    comp.add_argument(
        "--index", choices=INDEX_KINDS, help="override the job's index kind"
    )
    for flag, default, what in (
        ("--tol-rank", TOL_RANK_BASE, "rank-decision tolerance base"),
        ("--tol-sig", TOL_SIG_BASE, "signature tolerance base"),
        ("--tol-round", TOL_ROUND, "integer rounding tolerance"),
    ):
        comp.add_argument(flag, type=float, default=default, help=what)
    comp.set_defaults(func=cmd_compute)

    ver = sub.add_parser("verify", help="run the exact-identity verification suite")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--n-max", type=int, default=3)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
