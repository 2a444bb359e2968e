"""The four workloads: what each runs, how it is checked, what it reports.

Every workload owns a list of generated instances and exposes the same
steps: ``build`` (the set-up that ``setup_s`` times), ``warm_up`` (one
untimed round, which also records the reference results), ``run_round``
(one timed round over every operation) and ``end_to_end`` (the metrics).
``reference`` hands the traced run one seed-independent instance with its
start and final iterates.

Accuracy (``grad_norm``, ``el_deviation``) is taken from that reference
instance, so it compares like with like between commits at any seed; the
seeded instances enter the timings and every correctness check.
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import CALIBRATION_REF_S, Tally, calibration_s, describe, median, subprocess_env
from instances import CATALOG_PAIR, EXPR_PAIR, descent_instances, oracle_instances

# Same rule as acceptance criterion 8.
ORACLE_J_RTOL = 1e-4
# Same rule as tests/test_goldens.py.
GOLDEN_TOL = 1e-8


def density(T, spec):
    kind, source = spec
    return T.parse_lagrangian(source) if kind == "expr" else T.catalog(source)


def make_problem(T, inst):
    """The instance as a ``VariationalProblem``."""
    ld, ln = density(T, inst.delta), density(T, inst.nabla)
    return T.VariationalProblem(T.make_timescale(inst.points), ld, ln, inst.alpha, inst.beta)


def stop_state(result, budget: int) -> str:
    """Why a solve stopped: converged, iteration budget, or a stall short of both."""
    if result.converged:
        return "converged"
    return "budget" if result.iterations == budget else "stall"


STOP_CODES = {"converged": 1, "budget": 2, "stall": 3}


def fingerprint(result) -> tuple:
    """Everything a solve returns, for bit-for-bit comparison."""
    return (
        result.y.values.tobytes(),
        result.j_value,
        result.gradient_norm,
        result.iterations,
        result.converged,
        result.el1.residual_trace.tobytes(),
        result.el2.residual_trace.tobytes(),
    )


@dataclass(frozen=True)
class Reference:
    """The seed-independent instance the traced run probes.

    ``start`` is the chord, ``final`` the workload's answer; ``result`` is
    the in-process solve of the problem when the workload made one.
    """

    problem: object
    config: object
    specs: tuple
    start: object
    final: object
    result: object


def boundary_problems(inst, values) -> list[str]:
    if float(values[0]) != inst.alpha or float(values[-1]) != inst.beta:
        return [f"boundary values {values[0]!r}, {values[-1]!r} != {inst.alpha!r}, {inst.beta!r}"]
    return []


class Workload:
    name = ""
    layers = ""

    def __init__(self):
        self.tracer = None
        self.samples: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}

    def op(self, name: str, layer: str, fn):
        """``fn`` itself, or ``fn`` inside a span when a tracer is attached."""
        if self.tracer is None:
            return fn

        def traced():
            with self.tracer.span(name, layer):
                return fn()

        return traced

    def timed(self, tally: Tally, key: str, label: str, fn, check, record: bool):
        """One checked operation, bracketed by calibration kernels.

        Records the raw seconds and the ratio to the mean of the two kernel
        times under ``key``; returns the result (None when it failed).
        """
        failed = tally.failed
        before = calibration_s()
        out, dt = tally.attempt(label, fn, check)
        after = calibration_s()
        if tally.failed == failed and record:
            self.samples.setdefault(key, []).append(dt)
            self.ratios.setdefault(key, []).append(dt / (0.5 * (before + after)))
        return out

    def op_ref_s(self) -> float:
        """Mean over instances (or command kinds) of each one's median time,
        in seconds at the reference speed (see ``harness.CALIBRATION_REF_S``).

        Averaging per-key medians keeps the mix of cheap and dear instances
        fixed, whatever number of rounds fits in the run.
        """
        return float(np.mean([median(v) for v in self.ratios.values()])) * CALIBRATION_REF_S

    def build(self, T) -> None:
        raise NotImplementedError

    def warm_up(self, tally: Tally) -> None:
        self.run_round(tally, record=False)

    def run_round(self, tally: Tally, record: bool = True) -> None:
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        raise NotImplementedError

    def reference(self):
        """The ``Reference`` the traced run probes."""
        raise NotImplementedError

    def report(self) -> list[str]:
        raise NotImplementedError


class DescentWorkload(Workload):
    """Fixed-budget descent from the chord on a uniform and seeded scales."""

    def __init__(self, name, layers, pair, n, budget, seeded, seed):
        super().__init__()
        self.name, self.layers = name, layers
        self.budget = budget
        self.instances = descent_instances(pair, n, seeded, seed)
        self.first: dict[str, tuple] = {}
        self.results: dict[str, object] = {}
        self.j_chord: dict[str, float] = {}

    def build(self, T) -> None:
        self.T = T
        self.config = T.SolverConfig(max_iterations=self.budget)
        self.problems = [make_problem(T, inst) for inst in self.instances]

    def check(self, inst, p, r) -> list[str]:
        T = self.T
        problems = boundary_problems(inst, r.y.values)
        if not math.isfinite(r.j_value):
            problems.append(f"J = {r.j_value!r} is not finite")
        if inst.label not in self.j_chord:
            self.j_chord[inst.label] = T.j_product(p, T.chord(p))
        if not r.j_value <= self.j_chord[inst.label]:
            problems.append(f"J = {r.j_value!r} above J(chord) = {self.j_chord[inst.label]!r}")
        fp = fingerprint(r)
        if self.first.setdefault(inst.label, fp) != fp:
            problems.append("differs from the first solve of this instance")
        self.results.setdefault(inst.label, r)
        return problems

    def run_round(self, tally: Tally, record: bool = True) -> None:
        for inst, p in zip(self.instances, self.problems):
            fn = self.op(f"solve {inst.label}", "solver", lambda p=p: self.T.solve(p, self.config))
            self.timed(tally, inst.label, f"solve {inst.label}", fn, lambda r, i=inst, p=p: self.check(i, p, r), record)

    def end_to_end(self) -> dict[str, float]:
        ref = self.results["uniform"]
        return {
            "op_ref_s": self.op_ref_s(),
            "grad_norm": float(ref.gradient_norm),
            "el_deviation": float(ref.el1.deviation),
        }

    def reference(self):
        p = self.problems[0]
        r = self.results["uniform"]
        inst = self.instances[0]
        return Reference(p, self.config, (inst.delta, inst.nabla), self.T.chord(p), r.y, r)

    def report(self) -> list[str]:
        lines = []
        for inst in self.instances:
            r = self.results.get(inst.label)
            if r is None or inst.label not in self.samples:
                lines.append(f"  {inst.label}: no successful solve")
                continue
            lines.append(
                f"  {inst.label} n={inst.n} budget={self.budget}: solve {describe(self.samples[inst.label], self.ratios[inst.label])}; "
                f"iterations={r.iterations} converged={r.converged} stop={stop_state(r, self.budget)} "
                f"J={r.j_value:.12g} grad={r.gradient_norm:.6g} EL1 dev={r.el1.deviation:.6g}"
            )
        return lines


class OracleWorkload(Workload):
    """Brute-force oracle on 1-3 interior points, checked against descent."""

    name = "oracle-small"
    layers = "stresses lagrangian eval and variational j_product per candidate; bypasses gradient, EL, Newton and large n"

    def __init__(self, seed):
        super().__init__()
        self.instances = oracle_instances(seed)
        self.j_descent: dict[str, float] = {}
        self.solves: dict[str, object] = {}
        self.first: dict[str, bytes] = {}
        self.answers: dict[str, object] = {}

    def build(self, T) -> None:
        self.T = T
        self.problems = [make_problem(T, inst) for inst in self.instances]

    def warm_up(self, tally: Tally) -> None:
        T = self.T
        for inst, p in zip(self.instances, self.problems):
            fn = self.op(f"solve {inst.label}", "solver", lambda p=p: T.solve(p))

            def check(r, inst=inst):
                problems = boundary_problems(inst, r.y.values)
                if not math.isfinite(r.j_value):
                    problems.append(f"descent J = {r.j_value!r} is not finite")
                return problems

            r, _ = tally.attempt(f"descent {inst.label}", fn, check)
            if r is not None:
                self.j_descent[inst.label] = r.j_value
                self.solves[inst.label] = r
        self.run_round(tally, record=False)

    def check(self, inst, p, y) -> list[str]:
        problems = boundary_problems(inst, y.values)
        j = self.T.j_product(p, y)
        jd = self.j_descent.get(inst.label)
        if jd is None:
            problems.append("no descent J to compare against")
        elif not abs(jd - j) <= ORACLE_J_RTOL * (1.0 + abs(j)):
            problems.append(f"oracle J {j!r} vs descent J {jd!r}: gap above {ORACLE_J_RTOL}")
        if self.first.setdefault(inst.label, y.values.tobytes()) != y.values.tobytes():
            problems.append("differs from the first oracle call on this instance")
        self.answers.setdefault(inst.label, y)
        return problems

    def run_round(self, tally: Tally, record: bool = True) -> None:
        T = self.T
        for inst, p in zip(self.instances, self.problems):
            fn = self.op(
                f"oracle {inst.label}",
                "solver",
                lambda p=p, inst=inst: T.brute_force_oracle(p, inst.bounds, inst.resolution),
            )
            self.timed(tally, inst.label, f"oracle {inst.label}", fn, lambda y, i=inst, p=p: self.check(i, p, y), record)

    def end_to_end(self) -> dict[str, float]:
        T = self.T
        p = self.problems[0]
        y = self.answers["reference"]
        return {
            "op_ref_s": self.op_ref_s(),
            "grad_norm": float(np.max(np.abs(T.first_variation_gradient(p, y)))),
            "el_deviation": float(T.el_residual_1(p, y).deviation),
        }

    def reference(self):
        p = self.problems[0]
        inst = self.instances[0]
        return Reference(
            p, self.T.SolverConfig(), (inst.delta, inst.nabla), self.T.chord(p),
            self.answers["reference"], self.solves["reference"],
        )

    def report(self) -> list[str]:
        lines = []
        for inst in self.instances:
            if inst.label not in self.samples:
                lines.append(f"  {inst.label}: no successful oracle call")
                continue
            lines.append(
                f"  {inst.label} interior={inst.n - 2} resolution={inst.resolution} "
                f"bounds=({inst.bounds[0]:.4g}, {inst.bounds[1]:.4g}): oracle {describe(self.samples[inst.label], self.ratios[inst.label])}; "
                f"descent J={self.j_descent[inst.label]:.12g}"
            )
        return lines


class CliWorkload(Workload):
    """A closed loop with one client over ``python -m tsvar`` subprocesses."""

    name = "cli-mix"
    layers = "the only workload that covers cli, process start-up, JSON/CSV I/O and the calculus identity battery"

    KINDS = ("solve", "eval", "check-el", "verify-identities")

    def __init__(self, root: Path, out: Path, seed: int, budget: int, n: int, cases: int):
        super().__init__()
        self.root, self.out, self.seed, self.budget, self.cases = root, out, seed, budget, cases
        self.env = subprocess_env(root)
        # The shipped problems all converge at the chord in 0 iterations and
        # report zero gradient, so one non-trivial problem with a fixed budget
        # carries the accuracy figures through the CLI.
        budget_file = out / "budget.json"
        budget_file.write_text(
            json.dumps(
                {
                    "schema": "tsvar/1",
                    "timescale": {"uniform": {"a": 0, "b": 1, "n": n}},
                    "lagrangian_delta": EXPR_PAIR[0][1],
                    "lagrangian_nabla": EXPR_PAIR[1][1],
                    "alpha": 0,
                    "beta": 1,
                    "solver": {"max_iterations": budget},
                }
            )
        )
        self.files = sorted((root / "problems").glob("*.json")) + [budget_file]
        self.goldens = root / "tests" / "goldens"
        self.reports: dict[str, dict] = {}

    def build(self, T) -> None:
        self.T = T
        self.cli = importlib.import_module("tsvar.cli")
        self.loaded = [self.cli.load_problem_file(str(f)) for f in self.files]

    def command(self, tally: Tally, kind: str, args: list[str], expect_rc: int, check, record: bool) -> None:
        argv = [sys.executable, "-m", "tsvar", kind, *args]

        def run():
            return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)

        def checked(proc):
            if proc.returncode != expect_rc:
                return [f"exit code {proc.returncode}, expected {expect_rc}: {proc.stderr.strip()[-200:]}"]
            return check(proc)

        self.timed(tally, kind, " ".join([kind, *args[:1]]), self.op(kind, "cli", run), checked, record)

    def check_solution(self, stem: str, sol: Path) -> list[str]:
        if stem == "budget":
            report = json.loads((sol.parent / "report.json").read_text())
            self.reports[stem] = report
            problems = []
            if report["iterations"] != self.budget or report["converged"]:
                problems.append(
                    f"budget problem stopped at {report['iterations']} iterations, converged={report['converged']}"
                )
            if not math.isfinite(report["j_value"]):
                problems.append("budget problem J is not finite")
            return problems
        golden = self.goldens / stem / "solution.csv"
        got = sol.read_text().strip().split("\n")
        want = golden.read_text().strip().split("\n")
        if got[0] != want[0] or len(got) != len(want):
            return [f"{stem}: solution.csv shape differs from the golden"]
        for g_row, w_row in zip(got[1:], want[1:]):
            for g, w in zip(map(float, g_row.split(",")), map(float, w_row.split(","))):
                if not abs(g - w) <= GOLDEN_TOL * (1.0 + abs(w)):
                    return [f"{stem}: solution.csv value {g!r} vs golden {w!r}"]
        self.reports[stem] = json.loads((sol.parent / "report.json").read_text())
        return []

    def check_eval(self, stem: str, proc) -> list[str]:
        values = json.loads(proc.stdout)
        want = self.reports[stem]["j_value"]
        if not abs(values["j"] - want) <= 1e-12 * (1.0 + abs(want)):
            return [f"{stem}: eval J {values['j']!r} vs solve J {want!r}"]
        return []

    def run_round(self, tally: Tally, record: bool = True) -> None:
        for path in self.files:
            stem = path.stem
            target = self.out / stem
            sol = target / "solution.csv"
            converges = stem != "budget"
            self.command(
                tally, "solve", [str(path), "--out", str(target)], 0 if converges else 2,
                lambda proc, stem=stem, sol=sol: self.check_solution(stem, sol), record,
            )
            self.command(
                tally, "eval", [str(path), "--y", str(sol)], 0,
                lambda proc, stem=stem: self.check_eval(stem, proc), record,
            )
            verdict = "PASS" if converges else "FAIL"
            self.command(
                tally, "check-el", [str(path), "--y", str(sol)], 0 if converges else 2,
                lambda proc, v=verdict: [] if f"stationarity check: {v}" in proc.stdout else [f"expected {v}"],
                record,
            )
            # Once per problem, so every command kind gets as many samples.
            self.command(
                tally, "verify-identities", ["--cases", str(self.cases), "--seed", str(self.seed)], 0,
                lambda proc: [] if "all identities hold" in proc.stdout else ["identity battery failed"], record,
            )

    def end_to_end(self) -> dict[str, float]:
        report = self.reports["budget"]
        return {
            "op_ref_s": self.op_ref_s(),
            "grad_norm": float(report["gradient_norm"]),
            "el_deviation": float(report["el1"]["deviation"]),
        }

    def reference(self):
        p, config = self.loaded[-1]
        final = self.cli.read_y_csv(str(self.out / "budget" / "solution.csv"), p.scale)
        return Reference(p, config, EXPR_PAIR, self.T.chord(p), final, None)

    def report(self) -> list[str]:
        lines = [f"  {kind}: {describe(self.samples[kind], self.ratios[kind])}" for kind in self.KINDS if kind in self.samples]
        r = self.reports.get("budget")
        if r is not None:
            lines.append(
                f"  budget problem: iterations={r['iterations']} converged={r['converged']} "
                f"J={r['j_value']:.12g} grad={r['gradient_norm']:.6g} EL1 dev={r['el1']['deviation']:.6g}"
            )
        return lines


NAMES = ("descent-expr", "descent-catalog", "oracle-small", "cli-mix")


@dataclass(frozen=True)
class Sizes:
    """Instance sizes and repetition counts; ``FULL`` is what the benchmark runs."""

    expr_n: int = 101
    expr_budget: int = 50
    catalog_n: int = 1001
    catalog_budget: int = 30
    seeded: int = 2
    cli_n: int = 11
    cli_budget: int = 40
    identity_cases: int = 200
    setup_reps: int = 25
    probe_k: int = 5


FULL = Sizes()
# For the benchmark's own smoke tests.  oracle-small has no size to shrink:
# its instances are already tiny, and coarser grids would miss the 1e-4 J rule.
TINY = Sizes(
    expr_n=11, expr_budget=3, catalog_n=21, catalog_budget=3, seeded=1,
    cli_budget=3, identity_cases=3, setup_reps=2, probe_k=1,
)


def make_workload(name: str, sizes, seed: int, root: Path, out: Path) -> Workload:
    if name == "descent-expr":
        return DescentWorkload(
            name,
            "stresses lagrangian (parsed closures) and dual on every grid point; the catalog twin bypasses dual",
            EXPR_PAIR, sizes.expr_n, sizes.expr_budget, sizes.seeded, seed,
        )
    if name == "descent-catalog":
        return DescentWorkload(
            name,
            "stresses variational and solver per-point loops and O(n) scaling; bypasses dual entirely",
            CATALOG_PAIR, sizes.catalog_n, sizes.catalog_budget, sizes.seeded, seed,
        )
    if name == "oracle-small":
        return OracleWorkload(seed)
    if name == "cli-mix":
        return CliWorkload(root, out, seed, sizes.cli_budget, sizes.cli_n, sizes.identity_cases)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")

