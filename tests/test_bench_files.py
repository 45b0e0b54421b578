"""The committed benchmark trajectory: every ``BENCH_*.json`` at the root of
the repository holds the result lines of ``perfbench/run.py`` for a parent
commit and a change, and each run's parsed result must match its lines."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
COMMIT = re.compile(r"[0-9a-f]{40}")


def test_trajectory_exists():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_layout(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"description", "parent", "change", "runs"} <= set(bench)
    assert isinstance(bench["description"], str) and bench["description"]
    for side in ("parent", "change"):
        assert COMMIT.fullmatch(bench[side]), f"{side} is not a full commit hash"
    assert bench["parent"] != bench["change"]
    untraced = set()
    for run in bench["runs"]:
        where = f"{path.name}: {run.get('side')} {run.get('workload')} trace {run.get('trace')}"
        assert run["side"] in ("parent", "change"), where
        assert run["workload"] in WORKLOADS, where
        assert run["trace"] in (0, 1), where
        assert run["commit"] == bench[run["side"]], where
        lines = run["lines"]
        assert f"# workload: {run['workload']}" in lines, where
        assert f"# commit: {run['commit']}" in lines, where
        assert run["result"] == json.loads(lines[-1]), where
        assert run["result"]["correct"] is True, where
        if run["trace"] == 0:
            untraced.add((run["side"], run["workload"]))
    # both sides of every workload have an untraced run to compare
    assert untraced == {(side, w) for side in ("parent", "change") for w in WORKLOADS}
