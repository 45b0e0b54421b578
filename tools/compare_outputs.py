"""Compare the outputs of two checkouts of maslov on the benchmark's jobs.

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

The job sets are those of ``perfbench/jobs.py`` (loaded from PARENT_ROOT,
without writing bytecode) for every workload and seeds 1-3, one draw each.
Each tree runs in its own subprocesses with that tree's ``src`` on
PYTHONPATH:

* the jobs of the in-process workloads, in one interpreter, each recorded
  as ``cli._serialize(compute_report(job))`` or as its error's code and
  message;
* in the same way, a tolerance-sensitive job set built here with numpy
  (``tolerance_jobs``): each of the index kinds leray, kashiwara, inert,
  hormander, spectral-flow, lagrangian, mu-ell and symplectic on a
  configuration that is not transversal, for n = 1, 2, 3, perturbed by the
  12 values of ``EPSILONS`` from 0 to 1e-2, which cross the corank,
  signature and rounding thresholds and their ambiguity bands, so that
  every corank, shear split and IllConditioned decision on them is
  compared;
* the cli-cold jobs, one ``python -m maslov.cli compute`` each, recorded as
  stdout, stderr and exit code;
* ``maslov verify --seed 42 --n-max 3`` and ``--seed 7 --n-max 1``, recorded
  the same way;
* the PASS/FAIL line of each acceptance criterion, from
  ``pytest -s tests/test_acceptance.py`` of the tree, keyed by its number.

A tree's root is written as ``<root>`` in what it prints, so the two trees'
tracebacks compare too.  The script prints the number of records, the first
record that differs, and the number that differ.  For each differing job
record it then prints the JSON paths of the report that differ, with the
largest |change| on numeric leaves (or both outcomes when either side of an
in-process job is an error; a cli-cold record's paths are ``exit``,
``stderr`` and ``stdout.`` followed by the report's), and last a summary
over those records: each differing path, the records it differs in and its
largest |change|.  It exits 1 on any difference.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
CLI_WORKLOAD = "cli-cold"
VERIFY_RUNS = (("42", "3"), ("7", "1"))
CRITERION_LINE = re.compile(r"(?:PASS|FAIL) criterion +(\d+): .*")

#: the perturbations of the tolerance-sensitive configurations
EPSILONS = (0.0,) + tuple(10.0**k for k in range(-12, -1))
TOLERANCE_DIMS = (1, 2, 3)
TOLERANCE_SEED = 15
#: the coefficient scales of the steep shears of the nearly singular plane
STEEP_SCALES = (1e3, 1e6)


def load_jobs(root: Path):
    """The perfbench job builder of a tree, imported without bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_jobs", root / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job_list(jobs) -> list[tuple[str, str, str]]:
    """(workload, tag, canonical job text) of every job, in a fixed order."""
    out = []
    for workload in jobs.BUILDERS:
        for seed in SEEDS:
            for i, spec in enumerate(jobs.build(workload, seed)):
                tag = f"{workload}/seed{seed}/{i:02d}-{spec['tag']} (n={spec['job']['n']})"
                out.append((workload, tag, jobs.dumps(spec["job"])))
    return out


def _orthonormal(rng, n, kind=float):
    """A random real orthogonal (or, for kind complex, unitary) n x n matrix."""
    a = rng.standard_normal((n, n))
    if kind is complex:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _plane(x, p, u):
    """The frame job field of u . [x; p] for a unitary u = a + ib."""
    a, b = u.real, u.imag
    return {"frame": [(a @ x - b @ p).tolist(), (b @ x + a @ p).tolist()]}


def _graph(s):
    """The [X; P] blocks of the graph of a symmetric matrix."""
    vals, vecs = np.linalg.eigh(s)
    x = (vecs / np.sqrt(1.0 + vals**2)) @ vecs.T
    return x, s @ x


def tolerance_jobs() -> list[tuple[str, str]]:
    """(tag, job text) of the tolerance-sensitive jobs.  For each n, q is a
    fixed orthogonal and u a fixed unitary matrix, and sym(e) is
    q diag(e, 1.0, -0.7)[:n] q^T, so near = sym(eps) has the one small
    eigenvalue eps: graph(near) meets X in dimension 1 at eps = 0, and a
    plane with X block q diag(cos(pi/2 - eps), ...) q^T has a nearly
    singular X.  Each configuration touches that stratum at its end: the
    pair (uX, u graph near), the triple (uX*, u graph near, uX), the
    quadruple (X*, X, graph near, graph -sym(2)), the family from sym(-1)
    to near (spectral flow, and its graph path against X), the shear from
    0 to near (mu-ell against X), and the shear from near to sym(2)
    against X and against the nearly singular plane (symplectic), that last
    one also with its coefficients scaled by each of STEEP_SCALES, where
    dropping the plane's near-kernel moves the lift the most."""
    rng = np.random.default_rng(TOLERANCE_SEED)
    out = []
    for n in TOLERANCE_DIMS:
        q, u = _orthonormal(rng, n), _orthonormal(rng, n, complex)
        eye, zero = np.eye(n), np.zeros((n, n))
        for eps in EPSILONS:

            def sym(e):
                return (q * np.array([e, 1.0, -0.7][:n])) @ q.T

            near = sym(eps)
            triple = [_plane(zero, eye, u), _plane(*_graph(near), u), _plane(eye, zero, u)]
            quadruple = ["coordinate_xstar", "coordinate_x"]
            quadruple += [{"graph": near.tolist()}, {"graph": sym(-2.0).tolist()}]
            family = [sym(-1.0).tolist(), (near - sym(-1.0)).tolist()]
            phi = np.array([math.pi / 2 - eps, 0.4, -0.9][:n])
            singular_x = {"frame": [((q * f(phi)) @ q.T).tolist() for f in (np.cos, np.sin)]}
            from_zero = {"kind": "shear", "coefficients": [zero.tolist(), near.tolist()]}
            onto = {"kind": "shear", "coefficients": [near.tolist(), (sym(2.0) - near).tolist()]}
            jobs = {
                "leray": {
                    "index": "leray",
                    "lifts": [{"plane": triple[2], "branch": 0}, {"plane": triple[1], "branch": 1}],
                },
                "kashiwara": {"index": "kashiwara", "planes": triple},
                "inert": {"index": "inert", "planes": triple},
                "hormander": {"index": "hormander", "planes": quadruple},
                "spectral-flow": {"index": "spectral-flow", "family": {"coefficients": family}},
                "lagrangian": {
                    "index": "lagrangian",
                    "path": {"kind": "graph_polynomial", "coefficients": family},
                    "plane": "coordinate_x",
                },
                "mu-ell": {"index": "mu-ell", "path": from_zero, "plane": "coordinate_x"},
                "symplectic": {"index": "symplectic", "path": onto, "plane": "coordinate_x"},
                "symplectic-singular-x": {"index": "symplectic", "path": onto, "plane": singular_x},
            }
            for scale in STEEP_SCALES:
                steep = dict(onto, coefficients=(scale * np.array(onto["coefficients"])).tolist())
                jobs[f"symplectic-singular-x-steep{scale:g}"] = dict(
                    jobs["symplectic-singular-x"], path=steep
                )
            for name, job in jobs.items():
                out.append((f"tolerance/{name}/n={n}/eps={eps:g}", json.dumps(dict(job, n=n))))
    return out


def in_process_main() -> None:
    """Child mode: read [tag, job text] pairs on stdin, print {tag: record}."""
    from maslov import cli
    from maslov.errors import MaslovError

    records = {}
    for tag, text in json.load(sys.stdin):
        try:
            records[tag] = cli._serialize(cli.compute_report(json.loads(text)))
        except MaslovError as exc:
            records[tag] = f"{exc.code}: {exc}"
        except Exception as exc:  # an escaped exception is an outcome too
            records[tag] = f"{type(exc).__name__}: {exc}"
    json.dump(records, sys.stdout)


def run(args, env, stdin=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable] + args, input=stdin, capture_output=True, text=True, env=env, timeout=600
    )


def criterion_lines(root: Path, env: dict) -> dict:
    """{tag: line} of the acceptance criteria's PASS/FAIL lines on one tree."""
    test = root / "tests" / "test_acceptance.py"
    done = run(["-m", "pytest", "-s", "-q", "-p", "no:cacheprovider", str(test)], env)
    return {
        f"acceptance criterion {int(m.group(1)):2d}": m.group(0)
        for m in CRITERION_LINE.finditer(done.stdout)
    }


def outcomes(root: Path, jobs: list, scratch: Path) -> dict:
    """{tag: record} of every job, tolerance-sensitive job, verify run and
    acceptance criterion on one tree."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    pending = [(tag, text) for workload, tag, text in jobs if workload != CLI_WORKLOAD]
    pending += tolerance_jobs()
    done = run([__file__, "--in-process"], env, json.dumps(pending))
    if done.returncode != 0:
        raise SystemExit(f"in-process jobs failed on {root}:\n{done.stderr}")
    records = json.loads(done.stdout)
    commands = {}
    for workload, tag, text in jobs:
        if workload == CLI_WORKLOAD:
            path = scratch / f"{len(commands):03d}.json"
            path.write_text(text, encoding="utf-8")
            commands[tag] = ["-m", "maslov.cli", "compute", "--input", str(path)]
    for seed, n_max in VERIFY_RUNS:
        commands[f"verify --seed {seed} --n-max {n_max}"] = [
            "-m", "maslov.cli", "verify", "--seed", seed, "--n-max", n_max,
        ]
    for tag, args in commands.items():
        done = run(args, env)
        records[tag] = json.dumps(
            {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
        ).replace(str(root), "<root>")
    records.update(criterion_lines(root, env))
    return records


def leaf_changes(a, b, path: str = "") -> list[tuple[str, float | None]]:
    """(path, |b - a|) of every leaf where two decoded JSON values differ,
    the change None where either leaf is not a number (or a key or list
    entry exists on one side only)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            out += leaf_changes(a[key], b[key], sub) if key in a and key in b else [(sub, None)]
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [c for i, (x, y) in enumerate(zip(a, b)) for c in leaf_changes(x, y, f"{path}[{i}]")]
    if type(a) is type(b) and a == b:
        return []
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return [(path or "<report>", abs(b - a) if numeric else None)]


def _report(record):
    """A record decoded: an in-process report, or a cli-cold record with
    its stdout decoded when that is a report; None for an error."""
    try:
        report = json.loads(record)
    except (TypeError, ValueError):  # an error's "CODE: message", or missing
        return None
    if not isinstance(report, dict):
        return None
    if "stdout" in report:
        try:
            report["stdout"] = json.loads(report["stdout"])
        except ValueError:
            pass
    return report


def describe_changes(tags: list, before: dict, after: dict) -> None:
    """Print each differing job record's changed report paths and a summary
    of them over all those records."""
    summary: dict = {}
    for tag in tags:
        old, new = _report(before.get(tag)), _report(after.get(tag))
        if old is None or new is None:
            print(f"  {tag}: outcome {before.get(tag)!r} -> {after.get(tag)!r}")
            summary.setdefault("<outcome>", [0, None])[0] += 1
            continue
        parts = []
        for path, change in leaf_changes(old, new):
            parts.append(path if change is None else f"{path} |d| {change:.3g}")
            entry = summary.setdefault(path, [0, None])
            entry[0] += 1
            if change is not None:
                entry[1] = max(change, entry[1] or 0.0)
        print(f"  {tag}: " + "; ".join(parts))
    print(f"differing paths over {len(tags)} job records:")
    for path, (count, largest) in sorted(summary.items()):
        size = "" if largest is None else f", largest |d| {largest:.3g}"
        print(f"  {path}: {count} records{size}")


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    jobs = job_list(load_jobs(parent))
    with tempfile.TemporaryDirectory() as scratch:
        before = outcomes(parent, jobs, Path(scratch))
        after = outcomes(change, jobs, Path(scratch))
    differing = [tag for tag in {**before, **after} if before.get(tag) != after.get(tag)]
    criteria = sum(tag.startswith("acceptance criterion") for tag in before)
    tolerance = {tag for tag, _ in tolerance_jobs()}
    print(
        f"{len(before)} records: {len(jobs)} jobs, {len(tolerance)} tolerance-sensitive jobs,"
        f" {len(VERIFY_RUNS)} verify runs and {criteria} acceptance criterion lines"
    )
    if differing:
        tag = differing[0]
        print(f"first difference: {tag}\n  parent: {before.get(tag)}\n  change: {after.get(tag)}")
        print(f"{len(differing)} records differ")
        job_tags = {tag for _, tag, _ in jobs} | tolerance
        changed = [tag for tag in differing if tag in job_tags]
        if changed:
            describe_changes(changed, before, after)
        return 1
    print("no differences")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--in-process"]:
        in_process_main()
    else:
        sys.exit(main(sys.argv[1:]))
