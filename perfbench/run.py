"""Benchmark of the maslov package, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/NOTES.md for why each exists):

* ``cli-cold``     one ``python -m maslov.cli compute`` subprocess per job;
* ``path-refine``  in-process ``cli.compute_report`` on generator paths;
* ``path-samples`` in-process ``cli.compute_report`` on dense sample paths;
* ``point-index``  in-process ``cli.compute_report`` on index jobs without a path.

Load model: a closed loop with one caller and no worker threads; the next
job starts when the last one ends.  Jobs come from ``perfbench/jobs.py``
(numpy only, seeded) and each carries a closed-form expected outcome; the
package only ever sees the JSON job dicts or job files.

With ``--trace 0`` the run repeats whole rounds of its job set until
``--seconds`` have passed, with set-ups in fresh interpreters spread over
that time, and prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of rounds untraced and then traced,
so every count repeats exactly for a seed, and prints the per-layer
metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# pinned before numpy loads, and inherited by every subprocess
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import jobs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("cli-cold", "path-refine", "path-samples", "point-index")
IN_PROCESS = WORKLOADS[1:]

#: independent draws of each workload's mix in one job set (one round)
COPIES = {"cli-cold": 1, "path-refine": 2, "path-samples": 2, "point-index": 4}

#: rounds of a --trace 1 run, each run once untraced and once traced (fixed, so counts repeat)
TRACE_ROUNDS = {"cli-cold": 2, "path-refine": 4, "path-samples": 6, "point-index": 20}

#: set-ups per run (one before timing, the rest in fresh interpreters
#: spread over the timed window); setup_s is their median
SETUP_REPEATS = 7

#: fresh interpreters timed with -X importtime; each import figure is a median
IMPORT_REPEATS = 3

EXIT_CODES = {"BAD_INPUT": 2, "UNDERSAMPLED": 3, "ILL_CONDITIONED": 4}


def answer(report: dict) -> dict:
    """The part of a report that a closed form predicts."""
    return {k: report[k] for k in ("value", "twice_value") if k in report}


class Tally:
    """Outcomes of a run: each op's latency in an unboxed array (8 bytes an
    op) and running counts of failures.  No outcome or job object outlives
    its op, so peak_rss_mb and garbage collection do not grow with the
    number of ops."""

    def __init__(self):
        self.latencies = array("d")
        self.failed = 0
        self.unexpected = set()  # (tag, n) of failed jobs outside the known defects

    def add(self, seconds, outcome, spec):
        self.latencies.append(seconds)
        if outcome != spec["expect"]:
            self.failed += 1
            if not spec.get("defect"):
                self.unexpected.add((spec["tag"], spec["job"]["n"]))

    def __iadd__(self, other):
        self.latencies.extend(other.latencies)
        self.failed += other.failed
        self.unexpected |= other.unexpected
        return self

    @property
    def attempted(self):
        return len(self.latencies)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class InProcess:
    """Library users: ``cli.compute_report`` on JSON job dicts."""

    def __init__(self, job_set):
        sys.path.insert(0, str(SRC))
        from maslov import cli, defaults
        from maslov.errors import MaslovError

        self.cli = cli  # looked up per call, so traced wrappers are seen
        self.tol_round = defaults.TOL_ROUND
        self.error_type = MaslovError
        # each op decodes its job afresh (untimed), as a caller receiving JSON would
        self.items = [(jobs.dumps(j["job"]), j) for j in job_set]

    def round(self, tally, tracer=None, items=None):
        for text, spec in items or self.items:
            job = json.loads(text)
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                outcome = answer(self.cli.compute_report(job, self.tol_round))
            except self.error_type as exc:
                outcome = {"error": exc.code}
            except Exception as exc:  # any other exception is a failed job
                outcome = {"exception": type(exc).__name__}
            tally.add(time.perf_counter() - t0, outcome, spec)

    @property
    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class CliCold:
    """CLI users: one ``python -m maslov.cli compute`` subprocess per job."""

    def __init__(self, job_set):
        self.dir = OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.items = []
        for i, spec in enumerate(job_set):
            path = self.dir / f"{i:02d}-{spec['tag']}.json"
            path.write_text(jobs.dumps(spec["job"]), encoding="utf-8")
            self.items.append((path, spec))
        self.stdout = self.dir / "stdout.txt"
        self.stderr = self.dir / "stderr.txt"
        self.peak_rss_kb = 0

    def _command(self, path, traced, op):
        args = ["compute", "--input", str(path)]
        if not traced:
            return [sys.executable, "-m", "maslov.cli"] + args
        return [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(self._spans_file(op))] + args

    def _spans_file(self, op):
        return self.dir / f"spans-{op}.json"

    def round(self, tally, tracer=None, items=None):
        for path, spec in items or self.items:
            op = None
            if tracer is not None:
                tracer.op += 1
                op = tracer.op
            with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    self._command(path, tracer is not None, op),
                    stdout=out, stderr=err, env=self.env, cwd=ROOT,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            tally.add(elapsed, self._outcome(proc.returncode), spec)
            if tracer is not None:
                self._collect_spans(tracer, op)

    def _outcome(self, code):
        out = self.stdout.read_text(encoding="utf-8")
        err = self.stderr.read_text(encoding="utf-8")
        if "Traceback" in err:
            return {"exit": code, "traceback": True}
        try:
            if code == 0:
                return answer(json.loads(out))
            error = json.loads(err)["error"]["code"]
        except (ValueError, KeyError, TypeError):
            return {"exit": code, "unparsed": True}
        if EXIT_CODES.get(error) != code:
            return {"exit": code, "error": error}
        return {"error": error}

    def _collect_spans(self, tracer, op):
        path = self._spans_file(op)
        data = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        base = 10**9 * op  # span ids restart in every subprocess
        for sid, parent, _op, name, t0, t1 in data["spans"]:
            tracer.spans.append((base + sid, -1 if parent < 0 else base + parent, op, name, t0, t1))
        tracer.samples += data["samples"]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def setup(workload, seed):
    """Import, job generation and warm-up; returns (runner, job set, seconds)."""
    t0 = time.perf_counter()
    job_set = jobs.build(workload, seed, COPIES[workload])
    runner = (CliCold if workload == "cli-cold" else InProcess)(job_set)
    # warm-up: one draw of the mix in-process, one job from the command line
    per_copy = len(runner.items) // COPIES[workload]
    runner.round(Tally(), items=runner.items[: 1 if workload == "cli-cold" else per_copy])
    return runner, job_set, time.perf_counter() - t0


def setup_in_child(workload, seed) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(runner, workload, seed, seconds):
    """Whole rounds (so fail_frac is exact), ending at the round boundary
    nearest to `seconds`.  Between rounds, the SETUP_REPEATS - 1 set-ups in
    fresh interpreters run when due, evenly spread over the window, so
    setup_s samples the machine over the same time as the jobs; they are
    outside every op's latency.  Returns (tally, setup seconds)."""
    tally = Tally()
    setups = []
    children = SETUP_REPEATS - 1
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        round_start = time.perf_counter()
        runner.round(tally)
        round_s = time.perf_counter() - round_start
        while len(setups) < children and (
            time.perf_counter() - start >= seconds * (len(setups) + 0.5) / children
        ):
            setups.append(setup_in_child(workload, seed))
        if deadline - time.perf_counter() < round_s / 2:
            break
    while len(setups) < children:
        setups.append(setup_in_child(workload, seed))
    return tally, setups


def import_times() -> dict:
    """cli / scipy / numpy import times (ms) from -X importtime, fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import maslov.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"import of maslov.cli failed:\n{done.stderr}")
        runs.append(parse_importtime(done.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text) -> dict:
    """Outermost cumulative times per package root.  -X importtime prints a
    module after the modules it imports, indented two spaces per level, so
    the entries are walked in reverse to see each parent before its children."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field[1:]
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip().split(".")[0], int(cumulative)))
    totals = {"maslov": 0, "scipy": 0, "numpy": 0}
    for root in totals:
        stack = []  # (level, inside an entry of this root)
        for level, name_root, cumulative in reversed(entries):
            while stack and stack[-1][0] >= level:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            if name_root == root and not inside:
                totals[root] += cumulative
            stack.append((level, inside or name_root == root))
    return {
        "cli.import_ms": totals["maslov"] / 1000,
        "cli.import.scipy_ms": totals["scipy"] / 1000,
        "cli.import.numpy_ms": totals["numpy"] / 1000,
    }


def environment(workload, seed, job_set_digest) -> dict:
    import importlib.metadata

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = done.stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "job_set_sha256": job_set_digest,
    }


def end_to_end(runner, tally, setup_times) -> dict:
    latencies_ms = [s * 1000 for s in tally.latencies]
    return {
        "ops_per_s": (1000 * len(latencies_ms) / sum(latencies_ms), "1/s"),
        "op_ms.p50": (percentile(latencies_ms, 50), "ms"),
        "op_ms.p90": (percentile(latencies_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
    }


def per_layer(tracer, ops, imports, overhead) -> dict:
    agg = tracing.aggregate(tracer.spans)
    metrics = {name: (value, "ms") for name, value in imports.items()}
    for name in tracing.span_names():
        if name in tracing.PARSERS:
            continue
        calls, self_s, _ = agg.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1000, "ms")
    metrics["cli.parse_ms"] = (sum(agg[p][1] for p in tracing.PARSERS if p in agg) * 1000, "ms")
    lifts, _, lift_total_s = agg.get("paths.lift_path", (0, 0.0, 0.0))
    metrics["paths.lift_path.samples"] = (tracer.samples, "count")
    metrics["paths.lift_path.us_per_sample"] = (
        lift_total_s * 1e6 / tracer.samples if tracer.samples else 0.0, "us")
    metrics["paths.lifts_per_op"] = (lifts / ops, "lifts/op")
    metrics["paths.generator.calls"] = (agg.get(tracing.GENERATOR, (0,))[0], "count")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def traced_run(runner, workload):
    """Untraced and traced passes alternate (a round at a time in-process,
    a job at a time from the command line), so drift in machine speed
    cancels out of trace.overhead_frac."""
    tracer = tracing.Tracer()
    untraced, traced = Tally(), Tally()
    chunks = [[item] for item in runner.items] if workload == "cli-cold" else [runner.items]
    for _ in range(TRACE_ROUNDS[workload]):
        for chunk in chunks:
            runner.round(untraced, items=chunk)
            if workload in IN_PROCESS:
                tracer.install()
            try:
                runner.round(traced, tracer=tracer, items=chunk)
            finally:
                tracer.uninstall()
    overhead = sum(traced.latencies) / sum(untraced.latencies) - 1
    ops = traced.attempted
    untraced += traced
    return untraced, tracer, ops, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "maslov" / "cli.py").is_file():
        sys.stderr.write(f"no maslov package under {SRC}; run from a full checkout\n")
        return 2

    runner, job_set, first_setup = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        env = environment(args.workload, args.seed, jobs.digest(job_set))
        if args.trace:
            tally, tracer, ops, overhead = traced_run(runner, args.workload)
            metrics = per_layer(tracer, ops, import_times(), overhead)
            OUT.mkdir(parents=True, exist_ok=True)
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"environment": env, "spans": tracer.spans}, fh)
        else:
            tally, child_setups = timed_run(runner, args.workload, args.seed, args.seconds)
            metrics = end_to_end(runner, tally, [first_setup] + child_setups)
    finally:
        runner.close()

    attempted, failed, unexpected = tally.attempted, tally.failed, sorted(tally.unexpected)
    for key, value in env.items():
        print(f"# {key}: {value}")
    print(f"# ops: {attempted} ({attempted // len(runner.items)} rounds of {len(runner.items)} jobs)")
    if not args.trace and attempted < 100:
        print(f"# op_ms.p90 rests on {attempted} < 100 latency samples: indicative only")
    for tag, n in unexpected:
        print(f"# UNEXPECTED FAILURE {tag} n={n}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        print(f"# paths.lifts_per_op base: {metrics['paths.lift_path.calls'][0]} lift_path calls"
              f" over {metrics['cli.compute_report.calls'][0]} traced ops")
    print(f"fail_frac = {failed / attempted:.6g} frac ({failed} of {attempted} jobs, "
          f"{len(unexpected)} outside the known-defect jobs)")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
