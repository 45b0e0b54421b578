"""Interleaved in-process A/B timing of two checkouts of maslov.

    python tools/ab_timing.py PARENT_ROOT CHANGE_ROOT WORKLOAD [ROUNDS [SEED]]

Each tree's ``src/maslov`` is copied into one temporary directory under
the package names ``maslov_parent`` and ``maslov_change`` (the package
imports itself only relatively), and both are imported into this one
interpreter, so the two sides share the process, the machine's state and
the numpy build.  The jobs are WORKLOAD's set at SEED (default 1) from
PARENT_ROOT's ``perfbench/jobs.py`` (loaded by ``compare_outputs.load_jobs``);
WORKLOAD is one of the in-process workloads.  A gain found on one seed can
so be confirmed on another.  Each round runs every job once on each
side, through ``cli.compute_report`` on a freshly decoded job, and which
side goes first alternates from job to job and from round to round.  An
untimed round runs first, so that per-package caches and lazy imports are
warm on both sides.  A second untimed round counts, per side, the calls the
package makes to the ``np.linalg`` functions in ``LINALG``.

It prints the median of the per-round ratio change time / parent time with
its quartiles, the same ratio per job tag over all rounds, the call counts
of each side, and the number of (job, round) outcomes that differ: a
report compared as ``cli._serialize`` text, an error as its code and
message.  ROUNDS defaults to 30.  A ratio below 1 means the change is
faster.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads, as perfbench/run.py pins them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import contextlib
import importlib
import json
import shutil
import statistics
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import load_jobs  # noqa: E402

SIDES = ("parent", "change")
DEFAULT_SEED = 1
DEFAULT_ROUNDS = 30
#: the np.linalg functions whose calls are counted
LINALG = ("svd", "eig", "eigvals", "eigh", "eigvalsh", "det", "qr", "solve")


def import_tree(root: Path, name: str, into: Path):
    """The ``cli`` module of root's package, imported as ``name``."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(root / "src" / "maslov", into / name, ignore=skip)
    return importlib.import_module(f"{name}.cli")


def run_job(cli, text: str) -> tuple[float, str]:
    """(seconds, outcome) of one compute_report on a freshly decoded job."""
    job = json.loads(text)
    t0 = time.perf_counter()
    try:
        report = cli.compute_report(job)
    except Exception as exc:  # an error is an outcome; its class is per package
        seconds = time.perf_counter() - t0
        return seconds, f"{getattr(exc, 'code', type(exc).__name__)}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, cli._serialize(report)


@contextlib.contextmanager
def counting(tally: Counter):
    """Each LINALG function of np.linalg adds its calls to tally meanwhile."""
    saved = {name: getattr(np.linalg, name) for name in LINALG}

    def counted(name, fn):
        def call(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return call

    for name, fn in saved.items():
        setattr(np.linalg, name, counted(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) not in (3, 4, 5):
        sys.stderr.write(__doc__)
        return 2
    parent, change = (Path(a).resolve() for a in argv[:2])
    workload = argv[2]
    rounds = int(argv[3]) if len(argv) > 3 else DEFAULT_ROUNDS
    seed = int(argv[4]) if len(argv) > 4 else DEFAULT_SEED
    jobs = load_jobs(parent)
    in_process = [w for w in jobs.BUILDERS if w != "cli-cold"]
    if workload not in in_process or rounds < 1 or seed < 0:
        sys.stderr.write(
            f"WORKLOAD must be one of {', '.join(in_process)}; ROUNDS >= 1; SEED >= 0\n"
        )
        return 2
    specs = jobs.build(workload, seed)
    texts = [jobs.dumps(spec["job"]) for spec in specs]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = [
            import_tree(root, f"maslov_{side}", Path(tmp))
            for root, side in zip((parent, change), SIDES)
        ]
        for text in texts:  # the warm-up round
            for cli in clis:
                run_job(cli, text)
        tallies = [Counter(), Counter()]
        for text in texts:  # the counted round
            for cli, tally in zip(clis, tallies):
                with counting(tally):
                    run_job(cli, text)
        ratios, differ = [], 0
        per_tag = {spec["tag"]: [0.0, 0.0] for spec in specs}
        for r in range(rounds):
            totals = [0.0, 0.0]
            for i, (text, spec) in enumerate(zip(texts, specs)):
                order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
                outcomes = [None, None]
                for side in order:
                    seconds, outcomes[side] = run_job(clis[side], text)
                    totals[side] += seconds
                    per_tag[spec["tag"]][side] += seconds
                differ += outcomes[0] != outcomes[1]
            ratios.append(totals[1] / totals[0])
    q1, median, q3 = quartiles(ratios)
    print(f"{workload}: {len(specs)} jobs (seed {seed}), {rounds} rounds, sides alternating")
    print(f"change/parent time per round: median {median:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    print("change/parent time per job tag, over all rounds:")
    for tag, (a, b) in per_tag.items():
        print(f"  {tag}: {b / a:.3f}")
    print("np.linalg calls in one untimed round, per side:")
    for side, tally in zip(SIDES, tallies):
        print(f"  {side}: " + ", ".join(f"{name} {tally[name]}" for name in LINALG))
    print(f"{differ} of {rounds * len(specs)} outcomes differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
