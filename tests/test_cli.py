import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from maslov import (
    BadInput,
    Undersampled,
    cli,
    defaults,
    derived,
    lagrangian,
    leray,
    paths,
    signature,
    symplectic,
    verify,
)
from maslov.signature import TripleSignature


def write_job(tmp_path, name, job):
    p = tmp_path / name
    p.write_text(json.dumps(job))
    return str(p)


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(args, env, python_flags=()):
    """The command line in a fresh interpreter: (exit code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, *python_flags, "-m", "maslov.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_spectral_flow_job(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "spectral-flow",
        "family": {"coefficients": [[[-1.0]], [[2.0]]]},
    }
    code, out, _ = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2
    assert report["index"] == "spectral-flow"
    assert report["inputs"]["n"] == 1


def test_lagrangian_loop_job(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "lagrangian",
        "path": {"kind": "rotation", "alpha_start": 0.0, "alpha_end": math.pi},
        "plane": {"graph": [[1.0]]},
    }
    code, out, _ = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2
    # the closed-form lift evaluates the rotation at its two ends only
    assert report["samples"] == 2
    assert "start" in report["lifts"] and "end" in report["lifts"]


def test_hormander_job(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "hormander",
        "planes": [
            "coordinate_xstar",
            {"graph": [[1.0]]},
            "coordinate_x",
            "coordinate_xstar",
        ],
    }
    code, out, _ = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 0
    assert json.loads(out)["twice_value"] == 1


def test_keller_maslov_and_index_override(tmp_path, capsys):
    job = {
        "n": 2,
        "index": "keller-maslov",
        "path": {"kind": "rotation", "alpha_start": 0.0, "alpha_end": 3 * math.pi},
    }
    path = write_job(tmp_path, "j.json", job)
    code, out, _ = run(["compute", "--input", path], capsys)
    assert code == 0 and json.loads(out)["value"] == 3


def test_leray_job(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "leray",
        "lifts": [
            {"plane": "coordinate_x", "branch": 0},
            {"plane": "coordinate_xstar", "branch": 0},
        ],
    }
    code, out, _ = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 0 and json.loads(out)["value"] == 1


def test_symplectic_shear_job(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "symplectic",
        "path": {"kind": "shear", "coefficients": [[[-1.0]], [[2.0]]]},
        "plane": "coordinate_x",
    }
    code, out, _ = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 0 and json.loads(out)["value"] == 2


def test_kashiwara_and_inert_jobs(tmp_path, capsys):
    base = {
        "n": 1,
        "planes": ["coordinate_xstar", {"graph": [[1.0]]}, "coordinate_x"],
    }
    path = write_job(tmp_path, "j.json", dict(base, index="kashiwara"))
    code, out, _ = run(["compute", "--input", path], capsys)
    report = json.loads(out)
    assert code == 0 and report["value"] == 1
    assert report["eigenvalue_counts"]["positive"] == 2
    code, out, _ = run(["compute", "--input", path, "--index", "inert"], capsys)
    assert code == 0 and json.loads(out)["value"] == 1


def test_lagrangian_samples_and_rs(tmp_path, capsys):
    ts = np.linspace(0.0, 1.0, 41)
    frames = []
    for t in ts:
        a = 2 * t - 1.0
        x = 1 / math.sqrt(1 + a * a)
        frames.append([[x], [a * x]])
    job = {
        "n": 1,
        "index": "rs",
        "path": {"kind": "lagrangian_samples", "frames": frames, "times": list(ts)},
        "plane": "coordinate_x",
    }
    code, out, _ = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 0 and json.loads(out)["twice_value"] == 2


def test_determinism(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "lagrangian",
        "path": {"kind": "rotation", "alpha_start": 0.25, "alpha_end": 7.1},
        "plane": {"graph": [[0.3]]},
    }
    path = write_job(tmp_path, "j.json", job)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["compute", "--input", path, "--output", str(out1)]) == 0
    assert cli.main(["compute", "--input", path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # schema round-trip
    report = json.loads(out1.read_text())
    for key in ("index", "n", "value", "inputs", "tolerances", "lifts"):
        assert key in report


def test_bad_input_exit_codes(tmp_path, capsys):
    code, _, err = run(["compute", "--input", str(tmp_path / "missing.json")], capsys)
    assert code == 2 and json.loads(err)["error"]["code"] == "BAD_INPUT"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["compute", "--input", str(bad)], capsys)
    assert code == 2

    job = {"n": 1, "index": "kashiwara", "planes": ["coordinate_x"]}
    code, _, err = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 2 and json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_job_file_that_is_not_utf8(tmp_path, src_env):
    job = tmp_path / "j.json"
    job.write_bytes(b'\xff\xfe{"n": 2}')
    code, out, err = run_process(["compute", "--input", str(job)], src_env)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["code"] == "BAD_INPUT" and error["message"].startswith("invalid JSON: ")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output(tmp_path, src_env, where):
    job = {"n": 1, "index": "kashiwara", "planes": ["coordinate_x"] * 3}
    output = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path
    argv = ["compute", "--input", write_job(tmp_path, "j.json", job), "--output", str(output)]
    code, out, err = run_process(argv, src_env)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["code"] == "BAD_INPUT"
    assert error["message"].startswith("cannot write report file: ")


def test_deeply_nested_job(tmp_path, src_env):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_process(["compute", "--input", str(deep)], src_env)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_report_too_deep_to_echo(tmp_path, capsys, monkeypatch):
    # json.load accepts a job one level shallower than the report that echoes it
    nested = []
    for _ in range(100_000):
        nested = [nested]
    monkeypatch.setattr(cli, "compute_report", lambda *args: {"inputs": nested})
    job = {"n": 1, "index": "kashiwara", "planes": ["coordinate_x"]}
    code, out, err = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_undersampled_exit_code(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "lagrangian",
        "path": {
            "kind": "lagrangian_samples",
            "frames": [[[0.0], [1.0]], [[1.0], [0.0]]],
        },
        "plane": {"graph": [[0.5]]},
    }
    path = write_job(tmp_path, "j.json", job)
    code, _, err = run(["compute", "--input", path], capsys)
    assert code == 3 and json.loads(err)["error"]["code"] == "UNDERSAMPLED"
    # as a loop the path is also open: the loop index lifts before it checks
    # closedness, so it stays undersampled
    code, _, err = run(["compute", "--input", path, "--index", "keller-maslov"], capsys)
    assert code == 3 and json.loads(err)["error"]["code"] == "UNDERSAMPLED"


def test_ill_conditioned_exit_code(tmp_path, capsys):
    job = {
        "n": 1,
        "index": "kashiwara",
        "planes": ["coordinate_xstar", {"graph": [[5e-9]]}, "coordinate_x"],
    }
    code, _, err = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 4 and json.loads(err)["error"]["code"] == "ILL_CONDITIONED"


def test_tolerance_overrides(tmp_path, capsys):
    # the near-degenerate triple is ill-conditioned at the default tol_sig
    # but cleanly classified with a smaller one
    job = {
        "n": 1,
        "index": "kashiwara",
        "planes": ["coordinate_xstar", {"graph": [[5e-9]]}, "coordinate_x"],
    }
    path = write_job(tmp_path, "j.json", job)
    code, _, _ = run(["compute", "--input", path], capsys)
    assert code == 4
    code, out, _ = run(["compute", "--input", path, "--tol-sig", "1e-12"], capsys)
    assert code == 0 and json.loads(out)["value"] == 1
    assert json.loads(out)["tolerances"]["tol_sig"] == 1e-12
    # overrides are undone afterwards
    code, _, _ = run(["compute", "--input", path], capsys)
    assert code == 4


def test_tol_rank_reaches_corank_decisions(tmp_path, capsys):
    # planes 1e-6 apart: transversal at the default rank tolerance, one
    # plane (coincident pair) at a coarser one
    job = {
        "n": 1,
        "index": "leray",
        "lifts": [{"plane": {"graph": [[0.3]]}}, {"plane": {"graph": [[0.3 + 1e-6]]}}],
    }
    path = write_job(tmp_path, "j.json", job)
    code, out, _ = run(["compute", "--input", path], capsys)
    assert code == 0 and json.loads(out)["value"] == -1
    assert json.loads(out)["tolerances"]["tol_rank"] == defaults.TOL_RANK_BASE
    code, out, _ = run(["compute", "--input", path, "--tol-rank", "1e-3"], capsys)
    assert code == 0 and json.loads(out)["value"] == 0
    assert json.loads(out)["tolerances"]["tol_rank"] == 1e-3
    code, out, _ = run(["compute", "--input", path], capsys)
    assert code == 0 and json.loads(out)["value"] == -1


def test_compute_report_is_reentrant():
    # the tolerances are arguments: a call with a coarse rank base leaves the
    # next default call at the default decision
    job = {
        "n": 1,
        "index": "leray",
        "lifts": [{"plane": {"graph": [[0.3]]}}, {"plane": {"graph": [[0.3 + 1e-6]]}}],
    }
    coarse = cli.compute_report(job, tol_rank=1e-3)
    assert coarse["value"] == 0 and coarse["tolerances"]["tol_rank"] == 1e-3
    report = cli.compute_report(job)
    assert report["value"] == -1
    assert report["tolerances"] == {
        "tol_rank": defaults.TOL_RANK_BASE,
        "tol_sig": defaults.TOL_SIG_BASE,
        "tol_round": defaults.TOL_ROUND,
    }


def test_tol_sig_reaches_spectral_flow(tmp_path, capsys):
    # A(0) = 5e-9 lies in the signature ambiguity band at the default tol_sig
    job = {
        "n": 1,
        "index": "spectral-flow",
        "family": {"coefficients": [[[5e-9]], [[1.0]]]},
    }
    path = write_job(tmp_path, "j.json", job)
    code, _, err = run(["compute", "--input", path], capsys)
    assert code == 4 and json.loads(err)["error"]["code"] == "ILL_CONDITIONED"
    code, out, _ = run(["compute", "--input", path, "--tol-sig", "1e-12"], capsys)
    assert code == 0 and json.loads(out)["value"] == 0


NON_FINITE_JOBS = {
    "spectral-flow-coefficients": {
        "n": 1,
        "index": "spectral-flow",
        "family": {"coefficients": [[[math.nan]], [[1.0]]]},
    },
    "graph-plane": {
        "n": 1,
        "index": "kashiwara",
        "planes": ["coordinate_xstar", {"graph": [[math.nan]]}, "coordinate_x"],
    },
}


def _lagrangian_job(path, plane="coordinate_x"):
    return {"n": 1, "index": "lagrangian", "path": path, "plane": plane}


def _symplectic_job(path):
    return {"n": 1, "index": "symplectic", "path": path, "plane": "coordinate_x"}


#: name -> (job, the exact message of the BadInput it raises)
BAD_INPUT_MESSAGES = {
    "shape": (
        {
            "n": 2,
            "index": "kashiwara",
            "planes": ["coordinate_x", {"graph": [[0.0]]}, "coordinate_x"],
        },
        "graph plane: expected shape (2, 2), got (1, 1)",
    ),
    "frame-not-a-pair": (
        _lagrangian_job({"kind": "rotation"}, {"frame": [[[0.0]]]}),
        "frame plane: expected [X, P]",
    ),
    "plane-unknown": (
        _lagrangian_job({"kind": "rotation"}, "coordinate_y"),
        "unrecognized plane description: 'coordinate_y'",
    ),
    "coefficients-empty": (
        _lagrangian_job({"kind": "graph_polynomial", "coefficients": []}),
        "graph_polynomial needs at least one coefficient",
    ),
    "family-end-overflow": (
        {"n": 1, "index": "spectral-flow", "family": {"coefficients": [[[1e307]], [[1.7e308]]]}},
        "family matrix A(1) is not finite: the coefficients overflow",
    ),
    "rotation-n": (
        dict(_lagrangian_job({"kind": "rotation"}), n=3),
        "rotation paths are defined for n = 1 or 2",
    ),
    "lagrangian-one-sample": (
        _lagrangian_job({"kind": "lagrangian_samples", "frames": [[[0.0], [1.0]]]}),
        "lagrangian_samples needs at least two frames",
    ),
    "symplectic-one-sample": (
        _symplectic_job({"kind": "symplectic_samples", "matrices": [np.eye(2).tolist()]}),
        "symplectic_samples needs at least two matrices",
    ),
    "lagrangian-kind": (
        _lagrangian_job({"kind": "spiral"}),
        "unrecognized Lagrangian path kind: 'spiral'",
    ),
    "symplectic-kind": (
        _symplectic_job({"kind": "spiral"}),
        "unrecognized symplectic path kind: 'spiral'",
    ),
    "lift-without-plane": (
        {"n": 1, "index": "leray", "lifts": [{"branch": 0}, {"plane": "coordinate_x"}]},
        'lift description must be {"plane": ..., "branch": k}',
    ),
    "index-unknown": (
        {"n": 1, "index": "conley-zehnder"},
        "index must be one of " + ", ".join(cli.INDEX_KINDS),
    ),
    "lift-count": (
        {"n": 1, "index": "leray", "lifts": [{"plane": "coordinate_x"}]},
        "the two-point index needs exactly two lifts",
    ),
    "spectral-flow-without-coefficients": (
        {"n": 1, "index": "spectral-flow", "family": {}},
        'spectral-flow needs {"family": {"coefficients": [A0, A1, ...]}}',
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUT_MESSAGES))
def test_bad_input_branches_name_their_fault(name):
    job, message = BAD_INPUT_MESSAGES[name]
    with pytest.raises(BadInput) as info, np.errstate(all="ignore"):
        cli.compute_report(job)
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(NON_FINITE_JOBS))
def test_non_finite_entries_rejected(name):
    with pytest.raises(BadInput):
        cli.compute_report(NON_FINITE_JOBS[name], defaults.TOL_ROUND)


@pytest.mark.parametrize("name", sorted(NON_FINITE_JOBS))
def test_non_finite_entries_exit_code(name, tmp_path, capsys):
    path = write_job(tmp_path, "j.json", NON_FINITE_JOBS[name])
    code, out, err = run(["compute", "--input", path], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"


#: a plane whose X block diag(1, 0) is singular, and one whose X block
#: diag(3e-8, 1) has a singular value inside the corank rule's ambiguity band
SINGULAR_X_PLANE = {"frame": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]}
IN_BAND_X_PLANE = {"frame": [[[3e-8, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]]}
#: the shear by A(t) = diag(160 t - 47, 0), which moves SINGULAR_X_PLANE
#: along the graph of 160 t - 47 in its first coordinate: sampled on 33
#: points, its steps near the crossing of 0 exceed pi/2
STEEP_SHEAR = {
    "kind": "shear",
    "coefficients": [[[-47.0, 0.0], [0.0, 0.0]], [[160.0, 0.0], [0.0, 0.0]]],
}


def test_singular_x_shear_lifts_in_closed_form(tmp_path, capsys, monkeypatch):
    # the kernel of X stays put under a shear, so the lift is the graph
    # path's over the range of X: two samples, no sampled lift, and no
    # bisection depth to set
    job = {"n": 2, "index": "symplectic", "path": STEEP_SHEAR, "plane": SINGULAR_X_PLANE}
    path = write_job(tmp_path, "j.json", job)
    calls = []
    monkeypatch.setattr(paths, "lift_path", lambda *a, **k: calls.append(a))
    code, out, _ = run(["compute", "--input", path], capsys)
    assert code == 0 and calls == []
    report = json.loads(out)
    assert report["value"] == 2 and report["samples"] == 2
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["compute", "--input", path, "--refine-depth", "1"])


def test_coarse_rotation_grid_is_refined():
    # two samples of a full turn alias it away at every bisection level;
    # the rotation grid has floor(4 |sweep| / pi) + 2 samples, so the
    # winding is found
    path = {"kind": "rotation", "alpha_start": 0.0, "alpha_end": 2 * math.pi, "samples": 2}
    job = {"n": 1, "index": "keller-maslov", "path": path}
    assert cli.compute_report(job)["value"] == 2


@pytest.mark.parametrize("alpha_end", [1e7, 1e308])
def test_rotation_sweep_beyond_the_sample_cap_fails_loudly(alpha_end):
    # a 0 -> 1e7 sweep on two samples gave -10 when it was sampled; a grid
    # fine enough needs more than MAX_SAMPLES samples, and 1e308 overflows
    # the count, so the library's sampled rotation path refuses both
    with pytest.raises(Undersampled, match="MAX_SAMPLES"):
        paths.rotation_path(1, 0.0, alpha_end, 2)
    path = {"kind": "rotation", "alpha_start": 0.0, "alpha_end": alpha_end, "samples": 2}
    job = {"n": 1, "index": "lagrangian", "path": path, "plane": {"graph": [[0.3]]}}
    # the command line's closed-form lift gives the right integer for 1e7
    # (about 2e7 / pi; tests/test_closed_form.py checks sweeps like it in
    # 50 digits); for 1e308 the phase change 2 (alpha_end - alpha_start)
    # overflows, which is a loud BadInput raised before any exp, so no
    # RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if alpha_end == 1e7:
            report = cli.compute_report(job)
            assert report["value"] == 6366198 and report["samples"] == 2
        else:
            with pytest.raises(BadInput, match="phase change"):
                cli.compute_report(job)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol-rank", "nan"),
        ("--tol-rank", "-1"),
        ("--tol-sig", "0"),
        ("--tol-sig", "inf"),
        ("--tol-round", "nan"),
        ("--tol-round", "inf"),
    ],
)
def test_bad_flag_values(flag, value, tmp_path, capsys):
    # with --tol-rank nan or -1 these equal planes used to give value 1
    job = {
        "n": 1,
        "index": "leray",
        "lifts": [{"plane": {"graph": [[0.3]]}}, {"plane": {"graph": [[0.3]]}}],
    }
    path = write_job(tmp_path, "j.json", job)
    code, out, err = run(["compute", "--input", path, flag, value], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "BAD_INPUT",
        "message": f"{flag} must be finite and > 0",
    }


#: tolerance values compute_report refuses, and the end of each message
BAD_TOLERANCES = {
    "nan": (math.nan, "must be finite and > 0"),
    "inf": (math.inf, "must be finite and > 0"),
    "-inf": (-math.inf, "must be finite and > 0"),
    "zero": (0.0, "must be finite and > 0"),
    "negative": (-1.0, "must be finite and > 0"),
    "bool": (True, "must be an int or a float"),
    "str": ("1e-9", "must be an int or a float"),
}


@pytest.mark.parametrize("name", sorted(BAD_TOLERANCES))
@pytest.mark.parametrize("tolerance", ["tol_round", "tol_rank", "tol_sig"])
def test_compute_report_checks_its_tolerances(tolerance, name):
    # in process, tol_rank nan or -1 gave mu_bar 1 on equal planes, tol_sig
    # -1 a Kashiwara count of -3 null, and a str escaped as TypeError
    value, message = BAD_TOLERANCES[name]
    job = {
        "n": 1,
        "index": "leray",
        "lifts": [{"plane": {"graph": [[0.3]]}}, {"plane": {"graph": [[0.3]]}}],
    }
    with pytest.raises(BadInput, match=f"^{tolerance} {message}$"):
        cli.compute_report(job, **{tolerance: value})


def _rotation_job(**path):
    return {
        "n": 1,
        "index": "lagrangian",
        "path": dict({"kind": "rotation"}, **path),
        "plane": "coordinate_x",
    }


def _leray_job(n, plane="coordinate_x", branch=0):
    return {
        "n": n,
        "index": "leray",
        "lifts": [
            {"plane": plane, "branch": branch},
            {"plane": "coordinate_xstar"},
        ],
    }


def _coefficients_job(index, path_kind=None):
    spec = {"coefficients": 5}
    if path_kind is None:
        return {"n": 1, "index": index, "family": spec}
    return {
        "n": 1,
        "index": index,
        "path": dict(spec, kind=path_kind),
        "plane": "coordinate_x",
    }


BAD_SCALAR_JOBS = {
    "branch": (_leray_job(1, branch="abc"), []),
    "alpha_end": (_rotation_job(alpha_end="pi"), []),
    "samples-string": (_rotation_job(samples="x"), []),
    "samples-negative": (_rotation_job(samples=-1), []),
    "times": (
        {
            "n": 1,
            "index": "keller-maslov",
            "path": {
                "kind": "lagrangian_samples",
                "frames": [[[0.0], [1.0]], [[0.0], [1.0]]],
                "times": ["a", 1],
            },
        },
        [],
    ),
    "non-object-job": ([1, 2], ["--index", "leray"]),
    "n-fraction": (_leray_job(1.5), []),
    "n-bool": (_leray_job(True), []),
    "n-string": (_leray_job("2"), []),
    "n-over-cap": (_leray_job(cli.MAX_N + 1), []),
    "coefficients-family": (_coefficients_job("spectral-flow"), []),
    "coefficients-graph-polynomial": (
        _coefficients_job("lagrangian", "graph_polynomial"),
        [],
    ),
    "coefficients-shear": (_coefficients_job("symplectic", "shear"), []),
    "graph-string": (_leray_job(1, plane={"graph": [["0.5"]]}), []),
    "graph-bool": (_leray_job(1, plane={"graph": [[True]]}), []),
    "branch-string": (_leray_job(1, branch="1"), []),
    # numpy would promote the boolean to the numeric dtype and read it as 1.0
    "graph-mixed-bool": (
        {
            "n": 2,
            "index": "kashiwara",
            "planes": [
                "coordinate_xstar",
                {"graph": [[True, 0.5], [0.5, 1.0]]},
                "coordinate_x",
            ],
        },
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SCALAR_JOBS))
def test_bad_scalar_fields(name, tmp_path, capsys):
    job, extra = BAD_SCALAR_JOBS[name]
    path = write_job(tmp_path, "j.json", job)
    code, out, err = run(["compute", "--input", path] + extra, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_matrix_reads_every_json_number():
    # integer literals beyond int64 (an object array in numpy) still read
    # as floats
    got = cli._matrix([[10**20, 1], [2**63, 0.5]], (2, 2), "m")
    assert got.dtype == float
    assert got.tolist() == [[1e20, 1.0], [2.0**63, 0.5]]
    assert cli._number(10**20, "x") == 1e20


ROTATION = {"kind": "rotation", "alpha_end": math.pi}

LIFT_ONCE_JOBS = {
    "keller-maslov": {"path": ROTATION},
    "lagrangian": {"path": ROTATION, "plane": {"graph": [[1.0]]}},
    "rs": {"path": ROTATION, "plane": {"graph": [[1.0]]}},
    # shear paths from A(0) = -1 and, for mu-ell, from the identity (A(0) = 0)
    "symplectic": {"path": {"kind": "shear", "coefficients": [[[-1.0]], [[2.0]]]}},
    "mu-ell": {"path": {"kind": "shear", "coefficients": [[[0.0]], [[2.0]]]}},
    # shears of planes whose X block is singular or inside the corank band
    "singular-x": {"index": "symplectic", "n": 2, "path": STEEP_SHEAR, "plane": SINGULAR_X_PLANE},
    "in-band-x": {"index": "symplectic", "n": 2, "path": STEEP_SHEAR, "plane": IN_BAND_X_PLANE},
}


@pytest.mark.parametrize("name", sorted(LIFT_ONCE_JOBS))
def test_path_report_lifts_once(name, monkeypatch):
    # the value and the report's samples/lifts come from one closed-form
    # lift of the two ends: no sampled path is built, lifted or refined
    counted = ("lift_path", "induced_path", "_refine", "_generated_phases", "from_phase_change")
    calls = dict.fromkeys(counted, 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for fn in counted[:-1]:
        counting(paths, fn)
    counting(paths.LiftedPath, "from_phase_change")
    job = dict({"plane": "coordinate_x", "index": name, "n": 1}, **LIFT_ONCE_JOBS[name])
    report = cli.compute_report(job, defaults.TOL_ROUND)
    assert report["samples"] == 2
    assert calls == dict.fromkeys(counted, 0) | {"from_phase_change": 1}


_COEFFICIENTS = [[[1.0, 0.2], [0.2, -1.0]], [[0.5, 0.0], [0.0, 0.5]], [[-2.5, 0.1], [0.1, 1.0]]]
_POLYNOMIAL = {"kind": "graph_polynomial", "coefficients": _COEFFICIENTS}
_SHEAR = {"kind": "shear", "coefficients": _COEFFICIENTS}
_SHEAR_FROM_IDENTITY = dict(_SHEAR, coefficients=[[[0.0, 0.0], [0.0, 0.0]]] + _COEFFICIENTS[1:])
_ROTATION_LOOP = {"kind": "rotation", "alpha_start": 0.3, "alpha_end": 0.3 + 2 * math.pi}

#: n = 2 path jobs and the calls of the frame rule, u u^t, det, the
#: symmetric rule and SVD each makes once the coordinate planes are cached,
#: with their dets: one frame check, u u^t and det for the two ends, one
#: symmetric check for the coefficients, one frame check, u u^t, symmetric
#: check and det (for lift_of(ell) in mu_lagrangian) more for a graph
#: plane, and a shear's one SVD in graph_matrix
PATH_JOB_CALLS = {
    "graph-x": (
        {"index": "lagrangian", "path": _POLYNOMIAL, "plane": "coordinate_x"},
        {"check_frames": 1, "_uut": 1, "det": 1, "is_symmetric": 1, "svd": 0},
    ),
    "graph-graph": (
        {"index": "lagrangian", "path": _POLYNOMIAL, "plane": {"graph": [[0.3, 0.1], [0.1, -0.5]]}},
        {"check_frames": 2, "_uut": 2, "det": 2, "is_symmetric": 2, "svd": 0},
    ),
    "graph-xstar": (
        {"index": "lagrangian", "path": _POLYNOMIAL, "plane": "coordinate_xstar"},
        {"check_frames": 1, "_uut": 1, "det": 1, "is_symmetric": 1, "svd": 0},
    ),
    "rs": (
        {"index": "rs", "path": _POLYNOMIAL, "plane": "coordinate_x"},
        {"check_frames": 1, "_uut": 1, "det": 1, "is_symmetric": 1, "svd": 0},
    ),
    "shear": (
        {"index": "symplectic", "path": _SHEAR, "plane": "coordinate_x"},
        {"check_frames": 1, "_uut": 1, "det": 1, "is_symmetric": 1, "svd": 1},
    ),
    "mu-ell": (
        {"index": "mu-ell", "path": _SHEAR_FROM_IDENTITY, "plane": "coordinate_x"},
        {"check_frames": 1, "_uut": 1, "det": 1, "is_symmetric": 1, "svd": 1},
    ),
    "rotation": (
        {"index": "keller-maslov", "path": _ROTATION_LOOP},
        {"check_frames": 1, "_uut": 1, "det": 1, "is_symmetric": 0, "svd": 0},
    ),
}


@pytest.mark.parametrize("name", sorted(PATH_JOB_CALLS))
def test_path_job_validates_once(name, monkeypatch):
    # the end frames are checked, multiplied out and reduced to det once,
    # as one stack, and the coefficients are checked as one stack; no end
    # lift checks its frame, w or theta's det again, and mu_bar certifies
    # these transversal pairs from their eigenvalues, with no SVD
    job, expected = PATH_JOB_CALLS[name]
    job = dict(job, n=2)
    cli.compute_report(job)  # fills the coordinate plane cache
    calls = dict.fromkeys(expected, 0)

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("check_frames", "_uut", "is_symmetric"):
        for module in (cli, derived, lagrangian, leray, paths, signature, symplectic):
            if hasattr(module, name):
                count(module, name, name)
    count(np.linalg, "det", "det")
    count(np.linalg, "svd", "svd")
    cli.compute_report(job)
    assert calls == expected


def test_boolean_coefficient_stays_bad_input():
    # each coefficient is read alone by the intake rule, so an all-boolean
    # one is refused, not read as 1.0 by a batched conversion
    path = {"kind": "graph_polynomial", "coefficients": [[[1.0]], [[True]]]}
    job = {"n": 1, "index": "lagrangian", "path": path, "plane": "coordinate_x"}
    with pytest.raises(BadInput) as excinfo:
        cli.compute_report(job)
    assert str(excinfo.value) == "polynomial coefficient 1: entries must be numbers"


def test_asymmetric_coefficient_is_named():
    # one symmetric check on the stack; the first failing coefficient is
    # named only when it fails
    asymmetric = [[0.0, 1.0], [0.0, 0.0]]
    coefficients = [np.eye(2).tolist(), np.eye(2).tolist(), asymmetric, asymmetric]
    job = {"n": 2, "index": "spectral-flow", "family": {"coefficients": coefficients}}
    with pytest.raises(BadInput, match="^polynomial coefficient 2 is not symmetric$"):
        cli.compute_report(job)


OVERFLOW_JOBS = {
    # A(0) = 1e308 is finite, but A(1) = 1e308 + 1e308 overflows
    "spectral-flow": (
        {"n": 1, "index": "spectral-flow", "family": {"coefficients": [[[1e308]], [[1e308]]]}},
        "family matrix A(1) is not finite: the coefficients overflow",
    ),
    # graph_frames squares the eigenvalue 2e200
    "graph-polynomial": (
        {
            "n": 1,
            "index": "lagrangian",
            "path": {"kind": "graph_polynomial", "coefficients": [[[1e200]], [[1e200]]]},
            "plane": "coordinate_x",
        },
        "frame columns are not orthonormal",
    ),
}


#: families whose ends are finite though their entries exceed half the
#: float range: A = 1e308 throughout, and A(0) = 1.7e308, A(1) = 7e307
NEAR_OVERFLOW_FAMILIES = {
    "constant": [[[1e308]]],
    "linear": [[[1.7e308]], [[-1e308]]],
}


@pytest.mark.parametrize("name", sorted(NEAR_OVERFLOW_FAMILIES))
def test_finite_family_near_the_float_range_is_read(name):
    coefficients = NEAR_OVERFLOW_FAMILIES[name]
    job = {"n": 1, "index": "spectral-flow", "family": {"coefficients": coefficients}}
    assert cli.compute_report(job)["value"] == 0


@pytest.mark.parametrize("name", sorted(OVERFLOW_JOBS))
def test_overflow_leaves_only_the_payload_on_stderr(name, tmp_path, src_env):
    # the overflow reaches a check as inf or NaN, which fails it; numpy's
    # RuntimeWarnings would print before the JSON error
    job, message = OVERFLOW_JOBS[name]
    path = write_job(tmp_path, "j.json", job)
    code, out, err = run_process(["compute", "--input", path], src_env)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"code": "BAD_INPUT", "message": message}}


#: every check of `maslov verify --n-max 1` and its instance count
VERIFY_N_MAX_1 = [
    ("change-of-reference", 15),
    ("companion-independence", 8),
    ("concat-additivity", 10),
    ("deck-equivariance", 10),
    ("direct-sum-symplectic", 10),
    ("direct-sums", 8),
    ("embed-unitary-symplectic", 30),
    ("hormander", 10),
    ("inert-cocycle", 15),
    ("intersection-dim", 20),
    ("loop-axioms", 8),
    ("mu-bar-antisymmetry", 20),
    ("mu-bar-coboundary", 25),
    ("mu-bar-local-constancy", 10),
    ("mu-ell-base-change", 10),
    ("mu-ell-product", 10),
    ("mu-symplectic-endpoint-form", 8),
    ("omega-antisymmetry", 50),
    ("reparametrization", 8),
    ("robbin-salamon", 13),
    ("souriau-roundtrip", 30),
    ("sp-cover-invariance", 8),
    ("spectral-flow", 10),
    ("symplectic-invariance", 10),
    ("tau-antisymmetry", 20),
    ("tau-cocycle", 30),
    ("tau-direct-sum", 10),
    ("tau-local-constancy", 15),
    ("tau-sp-invariance", 20),
    ("transversal-companion", 15),
    ("triple-signature-paths", 10),
    ("unitary-action", 20),
    ("winding-integral", 8),
]


def test_leray_takes_every_valid_frame(tmp_path, capsys):
    # frames [0, H (I + d v v^t)] of X*, H the reflection taking
    # v = 1/sqrt(n) (1, ..., 1) to e1: LagrangianFrame accepts them.  At
    # n = 8, d = 3.5e-10, w misses unitarity by 2n times the frame's defect,
    # which souriau_w's former 10 * TOL_SYM rejected ("matrix is not
    # unitary"); at n = 12 and 16, d = 0.49 n TOL_SYM, |det w| - 1 is about
    # n TOL_SYM, which the lift's former fixed TOL_PHASE rejected ("theta is
    # not an argument of det w within tolerance")
    for n in (8, 12, 16):
        d = 3.5e-10 if n == 8 else 0.49 * n * defaults.TOL_SYM
        v = np.ones(n) / np.sqrt(n)
        r = v - np.eye(n)[0]
        H = np.eye(n) - 2 * np.outer(r, r) / (r @ r)
        P = H @ (np.eye(n) + d * np.outer(v, v))
        frame = {"frame": [np.zeros((n, n)).tolist(), P.tolist()]}
        reports = []
        for plane in (frame, "coordinate_xstar"):
            lifts = [{"plane": plane}, {"plane": "coordinate_x"}]
            job = {"n": n, "index": "leray", "lifts": lifts}
            code, out, err = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
            assert code == 0 and err == "", (n, err)
            reports.append(json.loads(out)["value"])
        assert reports[0] == reports[1]


def _sample_job(kind, count=5, n=2):
    """A valid sample job: frames of the graphs of t A, or the shears of t A."""
    A = np.array([[0.5, 0.2], [0.2, -0.3]])
    ts = np.linspace(0.0, 1.0, count)
    if kind == "lagrangian":
        samples = [lagrangian.frame_from_graph(t * A).frame.tolist() for t in ts]
        path = {"kind": "lagrangian_samples", "frames": samples}
        return {"n": n, "index": "lagrangian", "path": path, "plane": "coordinate_x"}
    samples = [np.block([[np.eye(n), np.zeros((n, n))], [t * A, np.eye(n)]]).tolist() for t in ts]
    path = {"kind": "symplectic_samples", "matrices": samples}
    return {"n": n, "index": "symplectic", "path": path, "plane": "coordinate_x"}


def _ragged(sample):
    sample[1] = sample[1][:-1]


def _string(sample):
    sample[0][0] = "0.5"


def _nan(sample):
    sample[0][0] = math.nan


def _scaled(sample):
    sample[:] = (1.5 * np.array(sample)).tolist()


def _off_symplectic(sample):
    sample[0][0] += 1e-3


# (path kind, fault): the message, or None where the parser names the sample
SAMPLE_FAULTS = {
    ("lagrangian", "ragged"): (_ragged, None),
    ("lagrangian", "string"): (_string, None),
    ("lagrangian", "nan"): (_nan, None),
    ("lagrangian", "non-orthonormal"): (_scaled, "frame columns are not orthonormal"),
    ("symplectic", "ragged"): (_ragged, None),
    ("symplectic", "string"): (_string, None),
    ("symplectic", "nan"): (_nan, None),
    ("symplectic", "non-symplectic"): (_off_symplectic, "path sample is not symplectic"),
}


@pytest.mark.parametrize("index", [0, 2, 4])
@pytest.mark.parametrize("kind, fault", sorted(SAMPLE_FAULTS))
def test_bad_sample_is_named(kind, fault, index, tmp_path, capsys):
    # the samples are parsed as one stack; a bad one is still reported by
    # its index, in a JSON payload with exit code 2
    job = _sample_job(kind)
    spoil, message = SAMPLE_FAULTS[kind, fault]
    key, what = ("frames", "frame sample") if kind == "lagrangian" else ("matrices", "matrix sample")
    spoil(job["path"][key][index])
    code, out, err = run(["compute", "--input", write_job(tmp_path, "j.json", job)], capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["code"] == "BAD_INPUT"
    if message is None:
        assert error["message"].startswith(f"{what} {index}: ")
    else:
        assert error["message"] == message
    with pytest.raises(BadInput) as excinfo:
        cli.compute_report(json.loads(json.dumps(job)), defaults.TOL_ROUND)
    assert str(excinfo.value) == error["message"]


def test_graph_plane_and_coefficient_share_the_symmetric_rule():
    # asymmetry 5e-8 on entries of 1000: inside the one relative rule, so the
    # matrix is a graph plane as well as a polynomial coefficient, and both
    # read as its symmetric part
    near = [[1000.0, 1000.0 + 5e-8], [1000.0, 1001.0]]
    sym = [[1000.0, 1000.0 + 2.5e-8], [1000.0 + 2.5e-8, 1001.0]]

    def plane_job(A):
        planes = ["coordinate_xstar", {"graph": A}, "coordinate_x"]
        return {"n": 2, "index": "kashiwara", "planes": planes}

    def values(A):
        path = {
            "n": 2,
            "index": "lagrangian",
            "path": {"kind": "graph_polynomial", "coefficients": [A, (-2 * np.eye(2)).tolist()]},
            "plane": "coordinate_x",
        }
        return [cli.compute_report(job, defaults.TOL_ROUND)["value"] for job in (plane_job(A), path)]

    assert values(near) == values(sym) == [2, -2]
    far = [[1000.0, 1000.0 + 5e-7], [1000.0, 1001.0]]
    with pytest.raises(BadInput, match="graph matrix must be symmetric"):
        cli.compute_report(plane_job(far), defaults.TOL_ROUND)


def test_transport_takes_every_validated_sample():
    # the second sample misses symplecticity by 0.9 of the rule; its image of
    # the plane misses isotropy by more than 1e-8, which a fixed 1e-8
    # transport bound rejected (BAD_INPUT) while the exact shear has a value
    graph = [[0.5, 1.0], [1.0, 0.0]]

    def job(defect):
        S = np.eye(4)
        S[2, 0] = 2.0
        S[3, 3] = 1.0 + defect  # S^T M S - M has max entry `defect`
        return S, {
            "index": "symplectic",
            "n": 2,
            "plane": {"graph": graph},
            "path": {"kind": "symplectic_samples", "matrices": [np.eye(4).tolist(), S.tolist()]},
        }

    S, near = job(0.9e-8 * 2.0**2)
    exact = cli.compute_report(job(0.0)[1], defaults.TOL_ROUND)["value"]
    assert exact == 1
    assert cli.compute_report(near, defaults.TOL_ROUND)["value"] == exact
    image = lagrangian.apply_symplectic(S, lagrangian.frame_from_graph(np.array(graph)))
    X, P = np.split(image.frame, 2)
    assert np.abs(X.T @ P - P.T @ X).max() > 1e-8


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--seed", "7", "--n-max", "1"], capsys)
    assert code == 0
    expected = [f"PASS {c} ({k} instances)" for c, k in VERIFY_N_MAX_1]
    assert out.splitlines() == expected + ["passed 33/33 checks"]


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--n-max", "0")])
def test_bad_verify_flags(flag, value, capsys):
    code, out, err = run(["verify", flag, value], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"


#: `maslov verify --seed 7 --n-max 1` with kashiwara_tau sign-flipped, under -O
SIGN_FLIP_UNDER_O = """
import sys
from maslov import cli, signature
from maslov.signature import TripleSignature

if __debug__:
    sys.exit("expected python -O")
original = signature.kashiwara_tau

def flipped(*args, **kwargs):
    r = original(*args, **kwargs)
    return TripleSignature(-r.tau, r.negative_count, r.positive_count, r.null_count)

signature.kashiwara_tau = flipped
sys.exit(cli.main(["verify", "--seed", "7", "--n-max", "1"]))
"""


def test_verify_full_strength_under_optimize(src_env):
    # the checks raise through verify._expect, which -O does not strip
    code, out, err = run_process(["verify", "--seed", "7", "--n-max", "1"], src_env, ["-O"])
    assert code == 0 and err == ""
    expected = [f"PASS {c} ({k} instances)" for c, k in VERIFY_N_MAX_1]
    assert out.splitlines() == expected + ["passed 33/33 checks"]
    done = subprocess.run(
        [sys.executable, "-O", "-c", SIGN_FLIP_UNDER_O],
        capture_output=True, text=True, env=src_env, timeout=120,
    )
    assert done.returncode == 5, done.stderr
    assert "FAIL mu-bar-coboundary" in done.stdout


def test_spectral_flow_check_fails_on_a_broken_spectral_flow(monkeypatch):
    # the check redraws an ill-conditioned endpoint only: a spectral_flow
    # that raises anything else fails it, where it passed with 0 instances
    def broken(family, tol_sig=defaults.TOL_SIG_BASE):
        raise TypeError("broken spectral_flow")

    monkeypatch.setattr(derived, "spectral_flow", broken)
    with pytest.raises(TypeError, match="^broken spectral_flow$"):
        verify.CHECKS["spectral-flow"](np.random.default_rng(7), 1)


def test_verify_detects_sign_flip(capsys, monkeypatch):
    original = signature.kashiwara_tau

    def flipped(*args, **kwargs):
        r = original(*args, **kwargs)
        return TripleSignature(
            -r.tau, r.negative_count, r.positive_count, r.null_count
        )

    monkeypatch.setattr(signature, "kashiwara_tau", flipped)
    code, out, _ = run(["verify", "--seed", "7", "--n-max", "1"], capsys)
    assert code == 5
    assert "FAIL mu-bar-coboundary" in out
