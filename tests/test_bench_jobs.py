"""The benchmark's own oracle: every in-process job that ``perfbench/jobs.py``
builds for seeds 1-3 meets its closed-form expectation (value, twice value
or error code) through ``cli.compute_report``, the known-defect jobs
included.  ``jobs.py`` is loaded read-only by path, as the trace-name test
loads ``tracing.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

from maslov import cli
from maslov.errors import MaslovError

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"

#: the workloads that call compute_report in-process (cli-cold spawns the CLI)
IN_PROCESS = ("path-refine", "path-samples", "point-index")


def _jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", IN_PROCESS)
def test_benchmark_jobs_meet_their_closed_forms(workload, seed):
    jobs = _jobs()
    missed = []
    for spec in jobs.build(workload, seed):
        # the job as the benchmark hands it over: decoded from its JSON text
        job = json.loads(jobs.dumps(spec["job"]))
        try:
            report = cli.compute_report(job)
            outcome = {k: report[k] for k in ("value", "twice_value") if k in report}
        except MaslovError as exc:
            outcome = {"error": exc.code}
        if outcome != spec["expect"]:
            missed.append((spec["tag"], job["n"], outcome, spec["expect"]))
    assert not missed
