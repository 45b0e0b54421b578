"""Command-line front end.

``maslov compute --input job.json`` reads a JSON job description, computes
the requested index, and writes a deterministic JSON report to stdout or
``--output``.  ``maslov verify`` runs the exact-identity suite.

Exit codes: 0 success, 2 bad input, 3 undersampled, 4 ill-conditioned,
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import defaults, lagrangian, leray, paths, signature, verify
from .derived import SymmetricFamily, graph_path, shear_path, spectral_flow
from .errors import BadInput, IllConditioned, MaslovError, Undersampled

EXIT_CODES = {"BAD_INPUT": 2, "UNDERSAMPLED": 3, "ILL_CONDITIONED": 4}

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
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadInput(f"{what}: not a numeric array ({exc})")
    if arr.shape != shape:
        raise BadInput(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadInput(f"{what}: entries must be finite")
    return arr


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
        try:
            return lagrangian.LagrangianFrame(X, P)
        except MaslovError:
            raise
        except Exception as exc:
            raise BadInput(f"frame plane: {exc}")
    raise BadInput(f"unrecognized plane description: {spec!r}")


def _polynomial_family(coefficients, n) -> SymmetricFamily:
    coeffs = [
        _matrix(c, (n, n), f"polynomial coefficient {i}")
        for i, c in enumerate(coefficients)
    ]
    if not coeffs:
        raise BadInput("graph_polynomial needs at least one coefficient")
    for i, c in enumerate(coeffs):
        if np.abs(c - c.T).max() > defaults.TOL_SYM * max(1.0, np.abs(c).max()):
            raise BadInput(f"polynomial coefficient {i} is not symmetric")

    def A(t: float) -> np.ndarray:
        out = np.zeros((n, n))
        for k, c in enumerate(coeffs):
            out += c * t**k
        return (out + out.T) / 2

    return SymmetricFamily.from_function(A)


def parse_lagrangian_path(spec, n) -> paths.LagrangianPath:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "lagrangian_samples":
        frames_raw = spec.get("frames")
        if not isinstance(frames_raw, list) or len(frames_raw) < 2:
            raise BadInput("lagrangian_samples needs at least two frames")
        frames = []
        for i, fr in enumerate(frames_raw):
            arr = _matrix(fr, (2 * n, n), f"frame sample {i}")
            try:
                frames.append(lagrangian.LagrangianFrame(arr[:n], arr[n:]))
            except MaslovError:
                raise
            except Exception as exc:
                raise BadInput(f"frame sample {i}: {exc}")
        times = spec.get("times", list(np.linspace(0.0, 1.0, len(frames))))
        return paths.LagrangianPath(tuple(times), tuple(frames), None)
    if kind == "rotation":
        if n not in (1, 2):
            raise BadInput("rotation paths are defined for n = 1 or 2")
        a0 = float(spec.get("alpha_start", 0.0))
        a1 = float(spec.get("alpha_end", math.pi))
        samples = int(spec.get("samples", 33))
        return paths.rotation_path(n, a0, a1, samples)
    if kind == "graph_polynomial":
        return graph_path(_polynomial_family(spec.get("coefficients", []), n))
    raise BadInput(f"unrecognized Lagrangian path kind: {kind!r}")


def parse_symplectic_path(spec, n) -> paths.SymplecticPath:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "symplectic_samples":
        mats_raw = spec.get("matrices")
        if not isinstance(mats_raw, list) or len(mats_raw) < 2:
            raise BadInput("symplectic_samples needs at least two matrices")
        mats = tuple(
            _matrix(m, (2 * n, 2 * n), f"matrix sample {i}")
            for i, m in enumerate(mats_raw)
        )
        times = spec.get("times", list(np.linspace(0.0, 1.0, len(mats))))
        return paths.SymplecticPath(tuple(times), mats, None)
    if kind == "shear":
        return shear_path(_polynomial_family(spec.get("coefficients", []), n))
    raise BadInput(f"unrecognized symplectic path kind: {kind!r}")


def _lift_from_spec(spec, n) -> leray.LagrangianLift:
    if not isinstance(spec, dict) or "plane" not in spec:
        raise BadInput('lift description must be {"plane": ..., "branch": k}')
    return leray.lift_of(parse_plane(spec["plane"], n), int(spec.get("branch", 0)))


def _lift_report(lift: leray.LagrangianLift) -> dict:
    return {"theta": float(lift.theta), "n": lift.n}


def _planes_of(job, n, count):
    specs = job.get("planes")
    if not isinstance(specs, list) or len(specs) != count:
        raise BadInput(f"this index needs exactly {count} planes")
    return [parse_plane(s, n) for s in specs]


def compute_report(job: dict, tol_round: float) -> dict:
    if not isinstance(job, dict):
        raise BadInput("job must be a JSON object")
    try:
        n = int(job["n"])
    except (KeyError, TypeError, ValueError):
        raise BadInput("job needs an integer field 'n'")
    if n < 1:
        raise BadInput("n must be positive")
    kind = job.get("index")
    if kind not in INDEX_KINDS:
        raise BadInput(f"index must be one of {', '.join(INDEX_KINDS)}")

    report: dict = {"index": kind, "n": n}

    if kind == "keller-maslov":
        lam = parse_lagrangian_path(job.get("path"), n)
        lifted = paths.lift_path(lam)
        if not paths.same_plane(lam.start(), lam.end()):
            raise BadInput("loop index requires a closed path")
        report["value"] = paths._integer(lifted.winding(), tol_round, "loop winding")
        report["samples"] = lifted.sample_count
        report["lifts"] = {
            "start": _lift_report(lifted.start_lift()),
            "end": _lift_report(lifted.end_lift()),
        }
    elif kind in ("lagrangian", "rs"):
        lam = parse_lagrangian_path(job.get("path"), n)
        ell = parse_plane(job.get("plane"), n)
        value = paths.mu_lagrangian(lam, ell, tol_round)
        lifted = paths.lift_path(lam)
        report["samples"] = lifted.sample_count
        report["lifts"] = {
            "start": _lift_report(lifted.start_lift()),
            "end": _lift_report(lifted.end_lift()),
            "reference_branch": 0,
        }
        if kind == "rs":
            report["twice_value"] = value
        else:
            report["value"] = value
    elif kind == "symplectic":
        sig = parse_symplectic_path(job.get("path"), n)
        ell = parse_plane(job.get("plane"), n)
        report["value"] = paths.mu_symplectic(sig, ell, tol_round)
        lifted = paths.lift_path(paths.induced_path(sig, ell))
        report["samples"] = lifted.sample_count
        report["lifts"] = {
            "start": _lift_report(lifted.start_lift()),
            "end": _lift_report(lifted.end_lift()),
        }
    elif kind == "mu-ell":
        sig = parse_symplectic_path(job.get("path"), n)
        ell = parse_plane(job.get("plane"), n)
        report["value"] = paths.mu_ell(sig, ell, tol_round)
        lifted = paths.lift_path(paths.induced_path(sig, ell))
        report["samples"] = lifted.sample_count
        report["lifts"] = {
            "start": _lift_report(lifted.start_lift()),
            "end": _lift_report(lifted.end_lift()),
        }
    elif kind == "leray":
        lifts_raw = job.get("lifts")
        if not isinstance(lifts_raw, list) or len(lifts_raw) != 2:
            raise BadInput("the two-point index needs exactly two lifts")
        l1 = _lift_from_spec(lifts_raw[0], n)
        l2 = _lift_from_spec(lifts_raw[1], n)
        report["value"] = leray.mu_bar(l1, l2, tol_round=tol_round)
        report["lifts"] = {"first": _lift_report(l1), "second": _lift_report(l2)}
    elif kind == "kashiwara":
        fs = _planes_of(job, n, 3)
        sig3 = signature.kashiwara_tau(*fs)
        report["value"] = sig3.tau
        report["eigenvalue_counts"] = {
            "positive": sig3.positive_count,
            "negative": sig3.negative_count,
            "null": sig3.null_count,
        }
    elif kind == "inert":
        fs = _planes_of(job, n, 3)
        report["value"] = signature.inert_index(*fs)
    elif kind == "hormander":
        from .derived import hormander_xi

        fs = _planes_of(job, n, 4)
        report["twice_value"] = hormander_xi(*fs).twice_value
    elif kind == "spectral-flow":
        fam_spec = job.get("family") or job.get("path") or {}
        coeffs = fam_spec.get("coefficients") if isinstance(fam_spec, dict) else None
        if coeffs is None:
            raise BadInput(
                'spectral-flow needs {"family": {"coefficients": [A0, A1, ...]}}'
            )
        fam = _polynomial_family(coeffs, n)
        report["value"] = spectral_flow(fam)

    report["inputs"] = job
    report["tolerances"] = {
        "tol_rank": defaults.TOL_RANK_BASE,
        "tol_sig": defaults.TOL_SIG_BASE,
        "tol_round": tol_round,
    }
    return report


def _serialize(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(", ", ": ")) + "\n"


def _apply_overrides(args):
    """Install tolerance/refinement overrides; returns an undo callable."""
    saved = []

    def override(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    if args.tol_rank is not None:
        override(lagrangian, "TOL_RANK_BASE", args.tol_rank)
    if args.tol_sig is not None:
        override(signature, "TOL_SIG_BASE", args.tol_sig)
    if args.refine_depth is not None:
        original = paths.lift_path
        depth = args.refine_depth

        def lift_with_depth(lam, branch=0, theta_start=None, max_depth=depth):
            return original(lam, branch, theta_start, max_depth)

        saved.append((paths, "lift_path", original))
        paths.lift_path = lift_with_depth

    def undo():
        for module, name, value in reversed(saved):
            setattr(module, name, value)

    return undo


def _error_payload(code: str, message: str) -> str:
    return _serialize({"error": {"code": code, "message": message}})


def cmd_compute(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        sys.stderr.write(_error_payload("BAD_INPUT", f"cannot read job file: {exc}"))
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(_error_payload("BAD_INPUT", f"invalid JSON: {exc}"))
        return 2
    if args.index is not None:
        job = dict(job)
        job["index"] = args.index
    tol_round = args.tol_round if args.tol_round is not None else defaults.TOL_ROUND
    undo = _apply_overrides(args)
    try:
        report = compute_report(job, tol_round)
    except MaslovError as exc:
        sys.stderr.write(_error_payload(exc.code, str(exc)))
        return EXIT_CODES[exc.code]
    finally:
        undo()
    text = _serialize(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
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
    comp.add_argument("--tol-rank", type=float, help="rank-decision tolerance base")
    comp.add_argument("--tol-sig", type=float, help="signature tolerance base")
    comp.add_argument("--tol-round", type=float, help="integer rounding tolerance")
    comp.add_argument(
        "--refine-depth", type=int, help="maximum bisection depth for path lifting"
    )
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
