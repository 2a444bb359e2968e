"""Tests of the benchmark itself: tiny smoke runs, metric coverage, counters.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from harness import Tally, no_check  # noqa: E402
from instances import descent_instances, oracle_instances, EXPR_PAIR  # noqa: E402
from run import load_spec, run_one  # noqa: E402
from workloads import NAMES, TINY  # noqa: E402

SPEC = load_spec(ROOT)
COUNTERS = (
    "lagrangian.point_evals.eval",
    "lagrangian.point_evals.d2",
    "lagrangian.point_evals.d3",
    "solver.gradient_evals",
    "solver.objective_evals",
    "solver.objective_evals_per_iteration",
    "solver.iterations",
    "solver.stop_code",
)


def assert_reports(result, wanted):
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])


def test_spec_lists_every_workload_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_timed_run_prints_every_end_to_end_metric(name):
    result, lines = run_one(name, seed=3, seconds=0, trace=False, root=ROOT, sizes=TINY)
    assert_reports(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(m["unit"]) for line in lines)


def test_tiny_traced_run_prints_every_per_layer_metric():
    result, lines = run_one("descent-expr", seed=3, seconds=0, trace=True, root=ROOT, sizes=TINY)
    assert_reports(result, SPEC["per_layer"])
    assert any("decomposition:" in line and "unexplained" in line for line in lines)
    assert any("overhead" in line for line in lines)


@pytest.mark.parametrize("name", ["descent-catalog", "oracle-small"])
def test_counters_repeat_exactly_at_a_fixed_seed(name):
    first, _ = run_one(name, seed=5, seconds=0, trace=True, root=ROOT, sizes=TINY)
    second, _ = run_one(name, seed=5, seconds=0, trace=True, root=ROOT, sizes=TINY)
    for key in COUNTERS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_inputs_follow_the_seed():
    a = descent_instances(EXPR_PAIR, 11, 2, seed=1)
    b = descent_instances(EXPR_PAIR, 11, 2, seed=1)
    c = descent_instances(EXPR_PAIR, 11, 2, seed=2)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    assert np.array_equal(a[0].points, c[0].points)  # the reference ignores the seed
    assert not np.array_equal(a[1].points, c[1].points)
    for inst in a[1:]:
        assert inst.points[0] == 0.0 and inst.points[-1] == 1.0
        assert np.all(np.diff(inst.points) > 1e-12)
    assert [i.n - 2 for i in oracle_instances(4)[1:]] == [1, 1, 2, 2, 3, 3]


def test_tally_counts_raises_warnings_and_failed_checks():
    tally = Tally()
    assert tally.attempt("ok", lambda: 1.0, no_check)[0] == 1.0
    assert tally.attempt("raises", lambda: 1 / 0, no_check)[0] is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert tally.attempt("warns", lambda: np.float64(1e308) * 10, no_check)[0] is None
    assert tally.attempt("check", lambda: 2.0, lambda out: ["wrong"])[0] is None
    assert (tally.attempted, tally.failed) == (4, 3)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "descent-expr", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
