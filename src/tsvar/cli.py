"""Command line interface.

Four subcommands: ``solve``, ``check-el``, ``verify-identities``, ``eval``;
``tsvar --version`` prints the package version.
Problem files are JSON objects under the versioned schema "tsvar/1":

    {
      "schema": "tsvar/1",                       (optional, checked if present)
      "timescale": [0, 1, 2]                     or {"uniform": {"a": 0, "b": 1, "n": 101}},
      "lagrangian_delta": "dy^2"                 or {"catalog": "dy_squared"},
      "lagrangian_nabla": "dy^2",
      "alpha": 0,
      "beta": 2,
      "solver": {"max_iterations": 500}          (optional overrides)
    }

Unknown keys are rejected.  Only the file's layout is checked here: each
number goes as written to the model, whose words name a bad value after the
file's path, and the commands print what the public API returns (``eval``
alone holds ``np.errstate``, for ``c1_diamond_norm``).  Exit codes:
0 success, 1 input error, 2 numeric failure (no convergence, or a failed check).
A ``solve`` that stops on an error of the numbers, not of the file, exits 2
after one ``error:`` line and writes nothing: a line search that underflows
(``StepUnderflowError``), or an iterate, the start included, outside a
density's domain (``EvalDomainError``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .calculus import (
    GridFunction,
    c1_diamond_norm,
    check_derivative_relation,
    check_integral_conversion,
    check_integral_splitting,
    check_parts_formulas,
)
from .timescale import TimeScale, make_timescale, uniform_scale

# The commands import lagrangian, solver and variational when they run, so
# that verify-identities, which needs none of them, never loads them.
if TYPE_CHECKING:
    from .lagrangian import Lagrangian
    from .solver import SolverConfig
    from .variational import VariationalProblem

__all__ = [
    "ProblemFileError",
    "cmd_check_el",
    "cmd_eval",
    "cmd_solve",
    "cmd_verify_identities",
    "load_problem_file",
    "main",
]

IDENTITY_TOLERANCE = 1e-10

_TOP_KEYS = {"schema", "timescale", "lagrangian_delta", "lagrangian_nabla", "alpha", "beta", "solver"}
_REQUIRED_KEYS = {"timescale", "lagrangian_delta", "lagrangian_nabla", "alpha", "beta"}


class ProblemFileError(ValueError):
    """A problem file failed validation."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_scale(spec) -> TimeScale:
    if isinstance(spec, list):
        return make_timescale(spec)
    if isinstance(spec, dict):
        if set(spec) != {"uniform"}:
            raise ValueError("'timescale' object must contain exactly the key 'uniform'")
        body = spec["uniform"]
        if not isinstance(body, dict) or set(body) != {"a", "b", "n"}:
            raise ValueError("'uniform' needs exactly the keys 'a', 'b', 'n'")
        return uniform_scale(body["a"], body["b"], body["n"])
    raise ValueError("'timescale' must be an array or a 'uniform' object")


def _load_lagrangian(spec, key: str) -> Lagrangian:
    from .lagrangian import catalog, parse_lagrangian

    if isinstance(spec, str):
        return parse_lagrangian(spec)
    if isinstance(spec, dict):
        if set(spec) != {"catalog"} or not isinstance(spec["catalog"], str):
            raise ValueError(f"{key!r} object must contain exactly a string key 'catalog'")
        return catalog(spec["catalog"])
    raise ValueError(f"{key!r} must be an expression string or a catalog object")


def load_problem_file(path: str) -> tuple[VariationalProblem, SolverConfig]:
    """Parse and validate one problem file; every error it raises names the file."""
    from .solver import SolverConfig
    from .variational import VariationalProblem

    try:
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ValueError("top level must be an object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ValueError(f"unknown keys: {', '.join(sorted(unknown))}")
        missing = _REQUIRED_KEYS - set(data)
        if missing:
            raise ValueError(f"missing keys: {', '.join(sorted(missing))}")
        if "schema" in data and data["schema"] != "tsvar/1":
            raise ValueError(f"unsupported schema {data['schema']!r}; expected 'tsvar/1'")

        problem = VariationalProblem(
            scale=_load_scale(data["timescale"]),
            l_delta=_load_lagrangian(data["lagrangian_delta"], "lagrangian_delta"),
            l_nabla=_load_lagrangian(data["lagrangian_nabla"], "lagrangian_nabla"),
            alpha=data["alpha"],
            beta=data["beta"],
        )

        overrides = data.get("solver", {})
        if not isinstance(overrides, dict):
            raise ValueError("'solver' must be an object")
        unknown = set(overrides) - set(SolverConfig._fields)
        if unknown:
            raise ValueError(f"unknown solver keys: {', '.join(sorted(unknown))}")
        return problem, SolverConfig(**overrides)
    except (OSError, ValueError) as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def write_solution_csv(path: Path, y: GridFunction) -> None:
    rows = [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(y.scale.points, y.values)]
    path.write_text("t,y\n" + "\n".join(rows) + "\n", newline="\n")


def read_y_csv(path: str, scale: TimeScale) -> GridFunction:
    """Read a t,y table and require its points to match the scale exactly; every error names the file."""
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
        if not rows or [cell.strip() for cell in rows[0]] != ["t", "y"]:
            raise ValueError("first row must be the header 't,y'")
        if any(len(row) != 2 for row in rows[1:]):
            raise ValueError("every row needs exactly two columns")
        try:
            table = np.array([[float(cell) for cell in row] for row in rows[1:]]).reshape(-1, 2)
        except ValueError as exc:
            raise ValueError(f"non-numeric cell: {exc}") from None
        if table.shape[0] != len(scale) or not np.array_equal(table[:, 0], scale.points):
            raise ValueError("points do not match the problem's time scale")
        return GridFunction(scale, table[:, 1])
    except (OSError, ValueError, csv.Error) as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _print_report(report) -> None:
    print(
        f"{report.which}: c = {_fmt(report.constant_c)}, "
        f"deviation = {_fmt(report.deviation)}"
    )
    for t, r in zip(report.times, report.residual_trace):
        print(f"  t = {_fmt(t)}  trace = {_fmt(r)}  trace - c = {_fmt(float(r) - report.constant_c)}")


def cmd_solve(args: argparse.Namespace) -> int:
    from .lagrangian import EvalDomainError
    from .solver import StepUnderflowError, solve

    problem, config = load_problem_file(args.problem)
    if args.maximize:
        config = config.replace(maximize=True)
    try:
        result = solve(problem, config)
    except (StepUnderflowError, EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_solution_csv(out / "solution.csv", result.y)
    (out / "report.json").write_text(json.dumps(result.to_dict(), indent=2) + "\n", newline="\n")
    print(f"converged: {'yes' if result.converged else 'no'} after {result.iterations} iterations")
    print(f"j = {_fmt(result.j_value)}")
    print(f"j_delta = {_fmt(result.el1.j_delta)}")
    print(f"j_nabla = {_fmt(result.el1.j_nabla)}")
    print(f"gradient sup-norm = {_fmt(result.gradient_norm)}")
    print(f"EL1 deviation = {_fmt(result.el1.deviation)} (c = {_fmt(result.el1.constant_c)})")
    print(f"EL2 deviation = {_fmt(result.el2.deviation)} (c = {_fmt(result.el2.constant_c)})")
    print(f"wrote {out / 'solution.csv'} and {out / 'report.json'}")
    return 0 if result.converged else 2


def cmd_check_el(args: argparse.Namespace) -> int:
    from .variational import el_residual_1, el_residual_2

    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ProblemFileError("--tol must be a finite non-negative number")
    problem, _ = load_problem_file(args.problem)
    y = read_y_csv(args.y, problem.scale)
    r1, r2 = el_residual_1(problem, y), el_residual_2(problem, y)
    _print_report(r1)
    _print_report(r2)
    ok = r1.passes(args.tol) and r2.passes(args.tol)
    print(f"stationarity check: {'PASS' if ok else 'FAIL'} at tolerance {args.tol:g}")
    return 0 if ok else 2


_IDENTITY_LABELS = (
    "integration-by-parts-1",
    "integration-by-parts-2",
    "integration-by-parts-3",
    "integration-by-parts-4",
    "derivative-relation-nabla-from-delta",
    "derivative-relation-delta-from-nabla",
    "integral-conversion-delta-to-nabla",
    "integral-conversion-nabla-to-delta",
    "integral-splitting-delta-last-cell",
    "integral-splitting-delta-first-cell",
    "integral-splitting-nabla-last-cell",
    "integral-splitting-nabla-first-cell",
)


def cmd_verify_identities(args: argparse.Namespace) -> int:
    if args.cases < 0:
        raise ProblemFileError("--cases must be non-negative")
    if args.cases == 0:
        print("warning: 0 cases requested; all identities pass vacuously")
        return 0
    rng = np.random.default_rng(args.seed)
    worst = np.zeros(len(_IDENTITY_LABELS))
    for _ in range(args.cases):
        n = int(rng.integers(5, 51))
        gaps = 10.0 ** rng.uniform(-3.0, 1.0, n - 1)
        start = float(rng.uniform(-10.0, 10.0))
        ts = make_timescale(start + np.concatenate(([0.0], np.cumsum(gaps))))
        f = GridFunction(ts, rng.standard_normal(n))
        g = GridFunction(ts, rng.standard_normal(n))
        residuals = (
            check_parts_formulas(f, g)
            + check_derivative_relation(f)
            + check_integral_conversion(f)
            + check_integral_splitting(f)
        )
        np.maximum(worst, residuals, out=worst)
    for label, value in zip(_IDENTITY_LABELS, worst):
        print(f"{label}: worst residual = {value:.3e}")
    ok = bool(np.all(worst <= IDENTITY_TOLERANCE))
    print(
        f"{args.cases} cases: "
        + ("all identities hold to 1e-10 relative" if ok else "identity check FAILED")
    )
    return 0 if ok else 2


@np.errstate(all="ignore")  # for c1_diamond_norm, which keeps the caller's warning settings
def cmd_eval(args: argparse.Namespace) -> int:
    from .variational import j_delta, j_nabla, j_product

    problem, _ = load_problem_file(args.problem)
    y = read_y_csv(args.y, problem.scale)
    jd, jn, j = j_delta(problem, y), j_nabla(problem, y), j_product(problem, y)
    try:
        norm = c1_diamond_norm(y)
    except ValueError as exc:  # a difference quotient of the y table overflows
        raise ProblemFileError(f"{args.y}: {exc}") from exc
    print(json.dumps({"j_delta": jd, "j_nabla": jn, "j": j, "norm": norm}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Variational calculus on finite time scales: solve, check, verify.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize the product objective of a problem file")
    p_solve.add_argument("problem", help="path to a tsvar/1 problem file")
    p_solve.add_argument("--out", default=".", help="output directory (default: current)")
    p_solve.add_argument("--maximize", action="store_true", help="flip the objective sign")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check-el", help="evaluate stationarity residuals for a given y")
    p_check.add_argument("problem", help="path to a tsvar/1 problem file")
    p_check.add_argument("--y", required=True, help="CSV file with header t,y")
    p_check.add_argument("--tol", type=float, default=1e-6, help="relative tolerance")
    p_check.set_defaults(func=cmd_check_el)

    p_verify = sub.add_parser(
        "verify-identities", help="stress the calculus identities on random scales"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.set_defaults(func=cmd_verify_identities)

    p_eval = sub.add_parser("eval", help="evaluate the functionals at a given y")
    p_eval.add_argument("problem", help="path to a tsvar/1 problem file")
    p_eval.add_argument("--y", required=True, help="CSV file with header t,y")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
