import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsvar
from tsvar import EvalDomainError, ParseError, cli, j_delta, j_nabla, parse_lagrangian

ROOT = Path(__file__).resolve().parent.parent


EXAMPLE = {
    "schema": "tsvar/1",
    "timescale": [0.0, 1.0, 2.0],
    "lagrangian_delta": "dy^2",
    "lagrangian_nabla": "dy^2",
    "alpha": 0.0,
    "beta": 2.0,
}


def write_problem(tmp_path, data, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def write_chord_csv(tmp_path, name="y.csv"):
    path = tmp_path / name
    path.write_text("t,y\n0,0\n1,1\n2,2\n")
    return str(path)


# --- solve -----------------------------------------------------------------


def test_solve_writes_solution_and_report(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    out = tmp_path / "out"
    assert cli.main(["solve", prob, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "converged: yes after 0 iterations" in stdout
    assert "j = 4" in stdout
    assert (out / "solution.csv").read_text() == "t,y\n0,0\n1,1\n2,2\n"
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["j_value"] == 4.0
    assert report["iterations"] == 0
    assert report["el1"]["constant_c"] == 8.0
    assert report["el2"]["constant_c"] == 8.0
    assert report["y"]["values"] == [0.0, 1.0, 2.0]


def test_solve_uniform_scale_with_catalog(tmp_path, capsys):
    data = {
        "timescale": {"uniform": {"a": 0.0, "b": 1.0, "n": 41}},
        "lagrangian_delta": {"catalog": "const(1)"},
        "lagrangian_nabla": {"catalog": "dy_squared"},
        "alpha": 0.0,
        "beta": 1.0,
    }
    prob = write_problem(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["solve", prob, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    t = np.array(report["y"]["scale"])
    y = np.array(report["y"]["values"])
    assert np.max(np.abs(y - t)) <= 1e-8


def test_solve_reports_non_convergence(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["lagrangian_delta"] = "dy^2 + y^2"
    data["solver"] = {"max_iterations": 1}
    prob = write_problem(tmp_path, data)
    rc = cli.main(["solve", prob, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "converged: no" in capsys.readouterr().out


def test_solve_numeric_failure_exits_2_and_writes_nothing(tmp_path, capsys):
    data = {
        "timescale": {"uniform": {"a": 0, "b": 1, "n": 11}},
        "lagrangian_delta": "1e300*dy^2",
        "lagrangian_nabla": "1e300*(dy^2 + y^2)",
        "alpha": 0,
        "beta": 1,
        "solver": {"max_iterations": 5},
    }
    out = tmp_path / "out"
    rc = cli.main(["solve", write_problem(tmp_path, data), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: line search step underflowed while the Lagrangian kept raising domain errors; "
        "last trial: non-finite value at (t=0.0, u=-inf, v=-inf)\n")
    assert not out.exists()


def test_solve_maximize_flag(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["lagrangian_delta"] = "-dy^2"
    prob = write_problem(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["solve", prob, "--out", str(out), "--maximize"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["j_value"] == -4.0
    assert report["y"]["values"] == [0.0, 1.0, 2.0]


def test_solver_overrides_are_honored(tmp_path):
    data = dict(EXAMPLE)
    data["solver"] = {"gradient_tolerance": 0.5, "max_iterations": 3}
    prob = write_problem(tmp_path, data)
    assert cli.main(["solve", prob, "--out", str(tmp_path / "out")]) == 0


# --- input validation --------------------------------------------------------


def expect_error(capsys, argv, fragment):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1, err
    assert fragment in err
    assert err.startswith("error:")


def test_missing_problem_file(tmp_path, capsys):
    expect_error(capsys, ["solve", str(tmp_path / "nope.json")], "nope.json")


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"timescale": [0, 1, 2,]}')
    expect_error(capsys, ["solve", str(path)], "invalid JSON at line")


def test_unknown_top_level_key(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["befuddle"] = 1
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "unknown keys: befuddle")


def test_missing_required_keys(tmp_path, capsys):
    data = dict(EXAMPLE)
    del data["alpha"]
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "missing keys: alpha")


def test_unsupported_schema(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["schema"] = "tsvar/9"
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "unsupported schema")


def test_bad_expression_reports_offset(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["lagrangian_delta"] = "y ++ dy"
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "syntax error at offset 4")


@pytest.mark.parametrize("source", [
    "-" * 1000 + "dy",
    "(" * 300 + "dy" + ")" * 300,
    "dy^" * 600 + "dy",
], ids=["neg-1000", "parens-300", "pow-600"])
def test_too_deep_expression_is_an_input_error(tmp_path, capsys, source):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_lagrangian(source)
    data = dict(EXAMPLE)
    data["lagrangian_delta"] = source
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "expression is nested too deeply")


def test_unknown_catalog_entry(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["lagrangian_nabla"] = {"catalog": "wat"}
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "unknown catalog")


@pytest.mark.parametrize("key", [
    "learning_rate", "seed", "armijo_c", "backtrack_factor", "initial_step",
])
def test_unknown_solver_key(tmp_path, capsys, key):
    data = dict(EXAMPLE)
    data["solver"] = {key: 0}
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 f"unknown solver keys: {key}")


@pytest.mark.parametrize("key,value,fragment", [
    ("max_iterations", 1.5, "max_iterations must be an integer, got 1.5"),
    ("max_iterations", "10", "max_iterations must be an integer, got '10'"),
    ("max_iterations", True, "max_iterations must be an integer, got True"),
    ("gradient_tolerance", "1e-3", "gradient_tolerance must be a positive number, got '1e-3'"),
    ("gradient_tolerance", float("nan"), "gradient_tolerance must be a positive number, got nan"),
    ("gradient_tolerance", False, "gradient_tolerance must be a positive number, got False"),
    ("maximize", "no", "maximize must be true or false, got 'no'"),
    ("maximize", 0, "maximize must be true or false, got 0"),
], ids=["max_iterations-float", "max_iterations-string", "max_iterations-bool", "gradient_tolerance-string",
        "gradient_tolerance-nan", "gradient_tolerance-bool", "maximize-string", "maximize-int"])
def test_solver_key_of_the_wrong_type(tmp_path, capsys, key, value, fragment):
    data = dict(EXAMPLE)
    data["solver"] = {key: value}
    rc = cli.main(["solve", write_problem(tmp_path, data), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {fragment}\n"
    assert not (tmp_path / "out").exists()


def test_bad_uniform_object(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["timescale"] = {"uniform": {"a": 0.0, "b": 1.0}}
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "'uniform' needs exactly the keys")


@pytest.mark.parametrize("command,change,message", [
    ("solve", {"timescale": {"linear": {}}}, "'timescale' object must contain exactly the key 'uniform'"),
    ("solve", {"timescale": {"uniform": {"a": 0.0, "b": 1.0, "n": 5.0}}}, "'n' must be an integer"),
    ("solve", {"timescale": "0,1,2"}, "'timescale' must be an array or a 'uniform' object"),
    ("solve", {"lagrangian_delta": {"expr": "dy"}},
     "'lagrangian_delta' object must contain exactly a string key 'catalog'"),
    ("solve", {"lagrangian_nabla": 3}, "'lagrangian_nabla' must be an expression string or a catalog object"),
    ("solve", None, "top level must be an object"),
    ("solve", {"solver": [1]}, "'solver' must be an object"),
    ("eval", {}, "[Errno 2] No such file or directory"),
], ids=["timescale-object", "n-float", "timescale-string", "lagrangian-object", "lagrangian-number",
        "top-level-array", "solver-array", "eval-missing-y"])
def test_malformed_input_exits_1(tmp_path, capsys, command, change, message):
    data = [EXAMPLE] if change is None else {**EXAMPLE, **change}
    prob = write_problem(tmp_path, data)
    if command == "eval":
        culprit = str(tmp_path / "missing.csv")
        argv = ["eval", prob, "--y", culprit]
    else:
        culprit = prob
        argv = ["solve", prob, "--out", str(tmp_path / "out")]
    expect_error(capsys, argv, f"error: {culprit}: {message}")
    assert not (tmp_path / "out").exists()


def test_non_numeric_boundary(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["alpha"] = "zero"
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "'alpha' must be a number")
    data["alpha"] = True
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "'alpha' must be a number")


def test_bad_timescale_points(tmp_path, capsys):
    data = dict(EXAMPLE)
    data["timescale"] = [0.0, 1.0, 1.0 + 1e-13]
    expect_error(capsys, ["solve", write_problem(tmp_path, data)],
                 "duplicate point at index 2")


# --- check-el ----------------------------------------------------------------


def test_check_el_pass(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    ycsv = write_chord_csv(tmp_path)
    assert cli.main(["check-el", prob, "--y", ycsv]) == 0
    out = capsys.readouterr().out
    assert "EL1: c = 8, deviation = 0" in out
    assert "EL2: c = 8, deviation = 0" in out
    assert "stationarity check: PASS" in out


def test_check_el_fail_and_loose_tolerance(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    path = tmp_path / "y.csv"
    path.write_text("t,y\n0,0\n1,0.5\n2,2\n")
    assert cli.main(["check-el", prob, "--y", str(path)]) == 2
    assert "stationarity check: FAIL" in capsys.readouterr().out
    assert cli.main(["check-el", prob, "--y", str(path), "--tol", "0.5"]) == 0
    assert "stationarity check: PASS" in capsys.readouterr().out


def test_check_el_rejects_bad_header(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    path = tmp_path / "y.csv"
    path.write_text("time,value\n0,0\n1,1\n2,2\n")
    expect_error(capsys, ["check-el", prob, "--y", str(path)],
                 "first row must be the header")


def test_check_el_rejects_mismatched_points(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    path = tmp_path / "y.csv"
    path.write_text("t,y\n0,0\n1,1\n3,2\n")
    expect_error(capsys, ["check-el", prob, "--y", str(path)],
                 "points do not match")


def test_check_el_rejects_non_numeric_cell(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    path = tmp_path / "y.csv"
    path.write_text("t,y\n0,0\n1,one\n2,2\n")
    expect_error(capsys, ["check-el", prob, "--y", str(path)],
                 "non-numeric cell")


def test_check_el_rejects_ragged_row(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    path = tmp_path / "y.csv"
    path.write_text("t,y\n0,0\n0.5,2,3\n1,1\n2,2\n")
    expect_error(capsys, ["check-el", prob, "--y", str(path)],
                 "every row needs exactly two columns")


@pytest.mark.parametrize("command", ["check-el", "eval"])
def test_header_only_y_csv_does_not_match_the_scale(tmp_path, capsys, command):
    prob = write_problem(tmp_path, EXAMPLE)
    path = tmp_path / "y.csv"
    path.write_text("t,y\n")
    expect_error(capsys, [command, prob, "--y", str(path)],
                 "points do not match the problem's time scale")


@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "inf", "-inf"])
def test_check_el_rejects_bad_tolerance(tmp_path, capsys, tol):
    prob = write_problem(tmp_path, EXAMPLE)
    ycsv = write_chord_csv(tmp_path)
    expect_error(capsys, ["check-el", prob, "--y", ycsv, f"--tol={tol}"],
                 "--tol must be a finite non-negative number")


# --- eval ---------------------------------------------------------------------


def test_eval_prints_functional_values(tmp_path, capsys):
    prob = write_problem(tmp_path, EXAMPLE)
    ycsv = write_chord_csv(tmp_path)
    assert cli.main(["eval", prob, "--y", ycsv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"j_delta": 2.0, "j_nabla": 2.0, "j": 4.0, "norm": 4.0}


@pytest.mark.parametrize("delta, failure", [("log(y) + dy^2", "log of non-positive value"),
                                            ("dy^2 + y", "square root of negative value")],
                         ids=["delta-fails", "nabla-fails"])
def test_eval_outside_a_density_domain_names_the_first_failure(tmp_path, capsys, delta, failure):
    # eval's one pass reports the error that j_delta, then j_nabla, raise for the same y.
    data = {**EXAMPLE, "timescale": [0.0, 0.25, 0.5, 0.75, 1.0], "lagrangian_delta": delta,
            "lagrangian_nabla": "sqrt(y) + 1", "alpha": 1.0, "beta": 1.0}
    prob = write_problem(tmp_path, data)
    path = tmp_path / "y.csv"
    path.write_text("t,y\n0,1\n0.25,0.5\n0.5,-0.5\n0.75,0.5\n1,1\n")
    problem, _ = cli.load_problem_file(prob)
    y = cli.read_y_csv(str(path), problem.scale)
    with pytest.raises(EvalDomainError) as info:
        j_delta(problem, y)
        j_nabla(problem, y)
    assert str(info.value).startswith(failure)
    expect_error(capsys, ["eval", prob, "--y", str(path)], f"error: {info.value}\n")


# --- verify-identities ----------------------------------------------------------


def test_verify_identities_reports_every_identity(capsys):
    assert cli.main(["verify-identities", "--cases", "25", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "worst residual" in l]
    assert len(lines) == 12
    values = [float(l.rsplit("=", 1)[1]) for l in lines]
    assert max(values) <= cli.IDENTITY_TOLERANCE
    assert "25 cases: all identities hold to 1e-10 relative" in out


def test_verify_identities_is_deterministic(capsys):
    cli.main(["verify-identities", "--cases", "10", "--seed", "5"])
    first = capsys.readouterr().out
    cli.main(["verify-identities", "--cases", "10", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_identities_zero_cases_warns(capsys):
    assert cli.main(["verify-identities", "--cases", "0"]) == 0
    assert "warning" in capsys.readouterr().out


def test_verify_identities_negative_cases(capsys):
    assert cli.main(["verify-identities", "--cases", "-1"]) == 1
    assert "must be non-negative" in capsys.readouterr().err


# --- process-level entry points ---------------------------------------------------


def test_module_entry_point(tmp_path):
    prob = write_problem(tmp_path, EXAMPLE)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "tsvar", "solve", prob, "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (out / "solution.csv").exists()
    proc = subprocess.run([sys.executable, "-m", "tsvar", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for name in ("solve", "check-el", "verify-identities", "eval"):
        assert name in proc.stdout


def test_version_is_the_package_version(capsys):
    # ``tsvar --version`` prints the version that pyproject.toml declares, and nothing else.
    declared = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (declared + "\n", "")
    assert tsvar.__version__ == declared
    proc = subprocess.run([sys.executable, "-m", "tsvar", "--version"], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, declared + "\n", "")


def test_console_script(tmp_path):
    exe = shutil.which("tsvar")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "verify-identities", "--cases", "3"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "all identities hold" in proc.stdout


def test_exit_code_1_from_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tsvar", "solve", str(tmp_path / "missing.json")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
