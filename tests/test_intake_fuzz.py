"""Property-based intake test of ``maslov compute``: every job file ends in
exit 0 with a report, or in exit 2, 3 or 4 with a JSON error whose code
matches the exit code; no exception escapes.  The jobs are JSON values,
shaped around the job fields so that they reach the parsers, with NaN and
Infinity tokens, booleans, wrong types and deep nesting."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maslov import cli

FIELDS = [
    "n", "index", "path", "plane", "planes", "lifts", "kind", "coefficients", "frames",
    "matrices", "times", "samples", "alpha_start", "alpha_end", "graph", "frame", "branch",
]
WORDS = list(cli.INDEX_KINDS) + [
    "rotation", "graph_polynomial", "shear", "lagrangian_samples", "symplectic_samples",
    "coordinate_x", "coordinate_xstar",
]

numbers = (
    st.sampled_from([0, 1, -1, 0.5, -2.0, 3.0])
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([1e300, -1e300, 1e-300, 1e308])
)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=4) | st.sampled_from(WORDS)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)


def _matrix(rows, cols):
    return st.lists(st.lists(numbers, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _job(n):
    """Jobs in dimension n with the fields their index reads, in the shapes
    the parsers expect, with numbers at the leaves, or any value in place
    of a field."""
    square = _matrix(n, n)
    plane = (
        st.sampled_from(["coordinate_x", "coordinate_xstar"])
        | st.fixed_dictionaries({"graph": square})
        | st.fixed_dictionaries({"frame": st.lists(square, min_size=2, max_size=2)})
    )
    lift = st.fixed_dictionaries({"plane": plane, "branch": st.integers(-3, 3) | numbers})
    coefficients = st.lists(square, min_size=1, max_size=3)
    path = (
        st.fixed_dictionaries(
            {"kind": st.just("rotation"), "alpha_start": numbers, "alpha_end": numbers},
            optional={"samples": numbers},
        )
        | st.fixed_dictionaries({"kind": st.sampled_from(["graph_polynomial", "shear"]), "coefficients": coefficients})
        | st.fixed_dictionaries({"kind": st.just("lagrangian_samples"), "frames": st.lists(_matrix(2 * n, n), max_size=4)})
        | st.fixed_dictionaries(
            {"kind": st.just("symplectic_samples"), "matrices": st.lists(_matrix(2 * n, 2 * n), max_size=3)}
        )
    )
    fields = {
        "path": path,
        "plane": plane,
        "planes": st.lists(plane, min_size=3, max_size=4),
        "lifts": st.lists(lift, min_size=2, max_size=2),
        "family": st.fixed_dictionaries({"coefficients": coefficients}),
    }
    reads = {"leray": ["lifts"], "kashiwara": ["planes"], "inert": ["planes"],
             "hormander": ["planes"], "spectral-flow": ["family"]}
    return st.sampled_from(cli.INDEX_KINDS).flatmap(
        lambda index: st.fixed_dictionaries(
            {"n": st.just(n), "index": st.just(index),
             **{f: st.one_of(fields[f], fields[f], fields[f], values)
                for f in reads.get(index, ["path", "plane"])}}
        )
    )


structured = st.integers(1, 2).flatmap(_job)
jobs = st.one_of(
    structured,
    structured,
    structured,
    structured,
    values,
    st.fixed_dictionaries({"n": values, "index": values}, optional={"path": values, "plane": values}),
    st.tuples(st.just("nested"), st.integers(0, 5000)),
)


def _text(job) -> str:
    """The job as JSON text, with NaN and Infinity tokens; a nesting depth
    d >= 0 in place of a job stands for d nested lists."""
    if isinstance(job, tuple):
        return "[" * job[1] + "]" * job[1]
    return json.dumps(job, allow_nan=True)


@settings(
    derandomize=True,
    database=None,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(job=jobs)
def test_compute_exits_with_a_report_or_a_json_error(job, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed-job.json"
    path.write_text(_text(job), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compute", "--input", str(path)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
        assert "index" in json.loads(out.getvalue())
    else:
        error = json.loads(err.getvalue())["error"]
        assert cli.EXIT_CODES[error["code"]] == code
        assert isinstance(error["message"], str)
