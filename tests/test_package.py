"""The package namespace: every public name, loaded on first use."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tsvar

# Each public name of the package, by the submodule that defines it.
PUBLIC = {
    "calculus": (
        "GridFunction", "PartialGridFunction", "c1_diamond_norm", "check_derivative_relation",
        "check_integral_conversion", "check_integral_splitting", "check_parts_formulas", "compose_rho",
        "compose_sigma", "delta_derivative", "delta_integral", "nabla_derivative", "nabla_integral",
    ),
    "lagrangian": ("EvalDomainError", "Lagrangian", "ParseError", "catalog", "parse_lagrangian", "register_catalog"),
    "solver": (
        "PerturbationAudit", "SolveResult", "SolverConfig", "StepUnderflowError", "brute_force_oracle", "chord",
        "perturbation_audit", "solve",
    ),
    "timescale": (
        "KappaKind", "KappaSet", "TimeScale", "TimeScaleError", "kappa_set", "make_timescale", "mu", "nu", "rho",
        "sigma", "uniform_scale",
    ),
    "variational": (
        "ELReport", "VariationalProblem", "classic_el_residuals", "el_residual_1", "el_residual_2",
        "el_residual_cor1", "el_residual_cor2", "first_variation_gradient", "j_delta", "j_nabla", "j_product",
    ),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_49_public_names():
    assert len(NAMES) == 49
    assert tsvar.__all__ == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_modules_object(module):
    source = importlib.import_module(f"tsvar.{module}")
    for name in PUBLIC[module]:
        assert getattr(tsvar, name) is getattr(source, name), name


def test_dir_and_star_import_cover_every_name():
    assert set(NAMES) <= set(dir(tsvar))
    namespace = {}
    exec("from tsvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_bare_import_loads_submodules_on_first_use():
    code = (
        "import json, sys, tsvar\n"
        "before = sorted(m for m in sys.modules if m.startswith('tsvar.'))\n"
        "names = [getattr(tsvar, m).__name__ for m in sys.argv[1:]]\n"
        "print(json.dumps([before, names, tsvar.solver.solve is tsvar.solve]))\n"
    )
    modules = ["calculus", "lagrangian", "program", "solver", "timescale", "variational"]
    proc = subprocess.run([sys.executable, "-c", code, *modules], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [f"tsvar.{m}" for m in modules], True]


def test_importing_the_cli_and_solver_loads_no_dataclasses():
    # In a child process, since pytest itself has loaded dataclasses here.  The
    # modules a command loads before tsvar are imported first; should one of
    # them load dataclasses, it is dropped so that only tsvar's imports count.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import argparse, csv, json, numpy\n"
        "sys.modules.pop('dataclasses', None)\n"
        "import tsvar.cli, tsvar.solver\n"
        "print(tsvar.cli.__file__)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(src / "tsvar" / "cli.py"), "False"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'tsvar' has no attribute 'no_such_name'$"):
        tsvar.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from tsvar import no_such_name  # noqa: F401
