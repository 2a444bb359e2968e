#!/usr/bin/env python3
"""Median times of a density pair's passes, at n = 11, 101 and 1001.

For the expression pair ``dy^2 + y^2 + sin(t)*y`` / ``dy^2 + 1`` and the
catalog pair ``kinetic_minus_potential(2)`` / ``dy_squared`` (the descent
workloads' densities), on a uniform scale over [0, 1] from a seeded y off
the chord, it times three calls the way a solve makes them:

- ``values-row``: both value passes over one row and their factor sums;
- ``values-block``: the same over a block of 8192 // n rows, the largest
  line-search block at n points;
- ``partials``: both partials passes.

Each sample times a batch of calls (about 2 ms), and the samples of all
rows are taken in turn, so a drift in machine speed reaches every row
alike.  It prints the median and the quartiles of the time per call, in
microseconds, over ``--repeat`` samples per row.

A second table times, the same way, the brute-force oracle's pairs: the
expression pair ``dy^2 + 0.3*y^2 + 0.2*sin(y) + 1`` / ``dy^2 + 0.3`` and
the catalog pair ``kinetic_minus_potential(0.15)`` / ``dy_squared``, on a
seeded scale of m interior points at r values per axis, for (m, r) =
(1, 201), (2, 61) and (3, 25): ``scan-pass``, both value passes of the
first scan over its distinct pairs (the arguments read from a spy on the
solver's ``_passes``), and ``oracle``, one ``brute_force_oracle`` call.

A third table counts the line search's work in one budgeted solve from
the chord, for the expression pair at n = 101 (budget 50) and the catalog
pair at n = 1001 (budget 30), on a uniform and a seeded scale: the trial
rows it builds and its value passes, read from a spy on the solver's
``_slot_args``, and the rows a one-trial-at-a-time search would build, the
sum over iterations of the accepted rung + 1, read from a spy on its
``_row``.  Their ratio is the share of built rows the search needed.  The
counts repeat exactly.

A fourth table times a fresh import of each module of the package, in
dependency order, with numpy and the standard library already loaded:
``compile``, the module's source to a code object, and ``exec``, its body
run from that code object, as an import runs it from cached bytecode
(reading and unmarshalling the ``.pyc`` is left out).  Each of the
``--repeat`` samples imports every module afresh; ``total`` sums a
sample's modules.  The tool writes no bytecode and no other file.

It imports the package from the ``src`` of the checkout it sits in; to
compare two checkouts, copy it into both, as for ``tools/fingerprints.py``:

    python3 tools/pass_medians.py --repeat 30
"""

from __future__ import annotations

import argparse
import ast
import graphlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tsvar"
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

import tsvar as T  # noqa: E402
import tsvar.solver as solver  # noqa: E402
from tsvar.variational import _factors, _Partials, _passes, _slot_args  # noqa: E402

PAIRS = {
    "expr": (T.parse_lagrangian, "dy^2 + y^2 + sin(t)*y", "dy^2 + 1"),
    "catalog": (T.catalog, "kinetic_minus_potential(2)", "dy_squared"),
}
SIZES = (11, 101, 1001)
ORACLE_PAIRS = {
    "expr": (T.parse_lagrangian, "dy^2 + 0.3*y^2 + 0.2*sin(y) + 1", "dy^2 + 0.3"),
    "catalog": (T.catalog, "kinetic_minus_potential(0.15)", "dy_squared"),
}
ORACLE_GRIDS = ((1, 201), (2, 61), (3, 25))  # (interior points m, values per axis r)
ORACLE_BOUNDS = (-0.5, 1.0)
SEARCHES = {"expr": (101, 50), "catalog": (1001, 30)}  # n and budget per pair


def cases():
    """(pair, n, pass, call) for every row of the first table."""
    rng = np.random.default_rng(7)
    for name, (build, delta, nabla) in PAIRS.items():
        for n in SIZES:
            p = T.VariationalProblem(T.make_timescale(np.linspace(0.0, 1.0, n)), build(delta), build(nabla), 0.0, 1.0)
            y = T.chord(p).values.copy()
            y[1:-1] += 0.1 * rng.standard_normal(n - 2)
            rows = np.repeat(y[None, :], 8192 // n, axis=0)
            rows[:, 1:-1] += 1e-3 * rng.standard_normal((len(rows), n - 2))
            row, block = _slot_args(p, y), _slot_args(p, rows)
            yield name, n, "values-row", lambda p=p, a=row: _factors(p, a)
            yield name, n, "values-block", lambda p=p, a=block: _factors(p, a)
            yield name, n, "partials", lambda p=p, a=row: _Partials(p, a)


def oracle_cases():
    """(pair, m, r, kind, call) for every row of the oracle table; the caller holds np.errstate."""
    for name, (build, delta, nabla) in ORACLE_PAIRS.items():
        for m, r in ORACLE_GRIDS:
            gaps = np.random.default_rng(m).uniform(0.5, 1.5, m + 1)
            scale = T.make_timescale(np.concatenate(([0.0], np.cumsum(gaps))))
            p = T.VariationalProblem(scale, build(delta), build(nabla), 0.0, 0.5)
            seen = []
            solver._passes = lambda p, *sides: seen.append(sides) or _passes(p, *sides)
            try:
                list(solver._grid_objectives(p, [np.linspace(*ORACLE_BOUNDS, r)] * m))
            finally:
                solver._passes = _passes
            yield name, m, r, "scan-pass", lambda p=p, sides=seen[0]: _passes(p, *sides)
            yield name, m, r, "oracle", lambda p=p, r=r: T.brute_force_oracle(p, ORACLE_BOUNDS, r)


def seeded_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaps = 10.0 ** rng.uniform(-2.0, 0.0, n - 1)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) / float(np.sum(gaps))
    pts[-1] = 1.0
    return pts


def search_counts(p, budget: int) -> tuple[int, int, int]:
    """Trial rows, value passes, and rows one trial per pass would build, of one solve."""
    take = solver._row
    built, ladder = [], 0
    since = 0  # rows built since the last accepted trial

    def slot_args(p, vals):
        nonlocal since
        if vals.ndim == 2:
            built.append(len(vals))
            since += len(vals)
        return _slot_args(p, vals)

    def row(args, i: int):
        nonlocal ladder, since
        ladder += since - built[-1] + i % built[-1] + 1  # i = -1: the whole ladder
        since = 0
        return take(args, i)

    solver._slot_args, solver._row = slot_args, row
    try:
        solver.solve(p, T.SolverConfig(max_iterations=budget))
    finally:
        solver._slot_args, solver._row = _slot_args, take
    return sum(built), len(built), ladder


def search_table() -> list[str]:
    lines = [f"{'pair':8} {'n':>5} {'scale':8} {'rows':>6} {'passes':>6} {'ladder':>6} {'needed':>6}"]
    for name, (n, budget) in SEARCHES.items():
        build, delta, nabla = PAIRS[name]
        for kind, pts in (("uniform", np.linspace(0.0, 1.0, n)), ("seeded", seeded_points(n, 41))):
            p = T.VariationalProblem(T.make_timescale(pts), build(delta), build(nabla), 0.0, 1.0)
            rows, passes, ladder = search_counts(p, budget)
            lines.append(f"{name:8} {n:5d} {kind:8} {rows:6d} {passes:6d} {ladder:6d} {ladder / rows:6.2f}")
    return lines


def module_order() -> list[tuple[str, Path]]:
    """(name, path) of the package and each module it imports at load time, dependencies first."""
    paths = {"tsvar": PACKAGE / "__init__.py"}
    paths.update((f"tsvar.{f.stem}", f) for f in sorted(PACKAGE.glob("*.py")) if not f.stem.startswith("__"))
    graph = {}
    for name, path in paths.items():
        body = ast.parse(path.read_text()).body  # top-level statements only: lazy imports do not count
        graph[name] = {"tsvar"} - {name} | {
            f"tsvar.{node.module}" for node in body if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    return [(name, paths[name]) for name in graphlib.TopologicalSorter(graph).static_order()]


def import_table(repeat: int) -> list[str]:
    """Median and quartiles, in ms, of each module's compile and exec over ``repeat`` fresh imports."""
    order = module_order()
    sources = [path.read_text() for _, path in order]
    saved = {name: sys.modules.pop(name) for name, _ in order if name in sys.modules}
    samples = {name: ([], []) for name, _ in order}
    try:
        for sample in range(repeat + 1):  # the first loads the standard library modules, and is dropped
            for (name, path), source in zip(order, sources):
                start = time.perf_counter()
                code = compile(source, str(path), "exec", dont_inherit=True)
                compiled = time.perf_counter()
                spec = importlib.util.spec_from_file_location(
                    name, path, submodule_search_locations=[str(PACKAGE)] if name == "tsvar" else None
                )
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                begun = time.perf_counter()
                exec(code, module.__dict__)
                done = time.perf_counter()
                if sample:
                    samples[name][0].append((compiled - start) * 1e3)
                    samples[name][1].append((done - begun) * 1e3)
    finally:  # a module's dependencies come first in ``order``, so each sample replaced them before it ran
        for name, _ in order:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    rows = list(samples.items())
    totals = [[sum(col) for col in zip(*(times[k] for _, times in rows))] for k in (0, 1)]
    lines = [f"{'module':20} {'compile_ms':>10} {'q1':>7} {'q3':>7} {'exec_ms':>10} {'q1':>7} {'q3':>7}"]
    for name, times in [*rows, ("total", totals)]:
        cells = []
        for got in times:
            q1, _, q3 = statistics.quantiles(got, n=4) if len(got) > 1 else got * 3
            cells.append(f"{statistics.median(got):10.3f} {q1:7.3f} {q3:7.3f}")
        lines.append(f"{name:20} {' '.join(cells)}")
    return lines


def batch(call, number: int) -> float:
    """Seconds per call over ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def timed(rows: list, repeat: int, labels: str) -> list[str]:
    """Per row, its labels formatted by ``labels``, then the median and quartiles, in us, of ``repeat``
    samples of its call (the row's last entry)."""
    with np.errstate(all="ignore"):  # as a public call holds it around these private helpers
        numbers = [max(1, round(2e-3 / batch(call, 3))) for *_, call in rows]  # about 2 ms per sample
        samples: list[list[float]] = [[] for _ in rows]
        for _ in range(repeat):
            for (*_, call), number, got in zip(rows, numbers, samples):
                got.append(batch(call, number) * 1e6)
    lines = []
    for (*row, _), got in zip(rows, samples):
        q1, _, q3 = statistics.quantiles(got, n=4) if len(got) > 1 else got * 3
        lines.append(f"{labels.format(*row)} {statistics.median(got):10.1f} {q1:10.1f} {q3:10.1f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=30, help="samples per row (default 30)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with np.errstate(all="ignore"):
        rows, oracle_rows = list(cases()), list(oracle_cases())
    print(f"{'pair':8} {'n':>5} {'pass':13} {'median_us':>10} {'q1_us':>10} {'q3_us':>10}")
    print("\n".join(timed(rows, args.repeat, "{:8} {:5d} {:13}")))
    print()
    print(f"{'pair':8} {'m':>5} {'r':>5} {'call':9} {'median_us':>10} {'q1_us':>10} {'q3_us':>10}")
    print("\n".join(timed(oracle_rows, args.repeat, "{:8} {:5d} {:5d} {:9}")))
    print()
    print("\n".join(search_table()))
    print()
    print("\n".join(import_table(args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
