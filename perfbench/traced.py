"""The traced run: spans, point-evaluation counters and per-layer probes.

Spans and counters live only in the benchmark's files.  Spans wrap the
calls the benchmark makes into each layer (set-up, every solve, oracle call
and subprocess, every probe and identity case); they are kept in memory
and written out as JSON at the end.  Counters come from a solve of the
reference problem rebuilt from public ``Lagrangian(...)`` objects whose
callables wrap the originals and count each call, so they repeat exactly
at a fixed seed.  The solve itself is not instrumented.

Every probe is timed best-of-k on the workload's start iterate (the chord)
and on its final iterate (the workload's answer on its reference instance).
Like the end-to-end times, probe and solve times are at the reference
speed (see ``harness.CALIBRATION_REF_S``), so the decomposition compares
figures taken seconds apart on a box whose speed flips; span self times
are raw.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from harness import Tally, at_reference_speed, best_of, fresh_import, median, subprocess_env, until
from instances import EXPR_PAIR, identity_case, instance_rng
from workloads import STOP_CODES, density, fingerprint, stop_state

LAYERS = ("timescale", "calculus", "dual", "lagrangian", "variational", "solver", "cli", "setup")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    operation: int
    name: str
    layer: str
    start_ns: int
    end_ns: int


class Tracer:
    """In-memory spans; children of a span share its operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int]] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, layer: str):
        span_id = self._next
        self._next += 1
        parent, operation = self._stack[-1] if self._stack else (None, span_id)
        self._stack.append((span_id, operation))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, operation, name, layer, start, end))

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child_ns: Counter[int] = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        totals = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            totals[s.layer] = totals.get(s.layer, 0.0) + (s.end_ns - s.start_ns - child_ns[s.span_id]) / 1e9
        return totals

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def counting(T, counts: Counter):
    """Wrap a Lagrangian so every eval/d2/d3 call is counted."""

    def wrap(lag):
        def counted(fn, key):
            def call(t, u, v):
                counts[key] += 1
                return fn(t, u, v)

            return call

        return T.Lagrangian(counted(lag.eval, "eval"), counted(lag.d2, "d2"), counted(lag.d3, "d3"), lag.origin)

    return wrap


def slot_args(p, values) -> tuple[list[tuple], list[tuple]]:
    """The (t, u, v) probe points of the delta and the nabla factor."""
    pts = p.scale.points
    quot = (values[1:] - values[:-1]) / np.diff(pts)
    delta = [(float(t), float(u), float(v)) for t, u, v in zip(pts[:-1], values[1:], quot)]
    nabla = [(float(t), float(u), float(v)) for t, u, v in zip(pts[1:], values[:-1], quot)]
    return delta, nabla


def per_point_us(k: int, pairs, names: tuple[str, ...]) -> float:
    """Best-of-k time per grid point and density of the named partials, in us."""
    points = sum(len(args) for _, args in pairs)

    def run():
        for lag, args in pairs:
            for name in names:
                fn = getattr(lag, name)
                for a in args:
                    fn(*a)

    return at_reference_speed(lambda: best_of(k, run)) / points * 1e6


def probe_layers(T, wl, tracer: Tracer, k: int, seed: int, root: Path) -> dict[str, float]:
    """Best-of-k timings of each layer's public entry points."""
    ref = wl.reference()
    p, start, final = ref.problem, ref.start, ref.final
    points = p.scale.points
    m: dict[str, float] = {}

    def probe(name: str, layer: str, fn) -> float:
        with tracer.span(name, layer):
            return at_reference_speed(lambda: best_of(k, fn))

    m["timescale.make_s"] = probe("make_timescale", "timescale", lambda: T.make_timescale(points))
    m["lagrangian.parse_s"] = probe("parse", "lagrangian", lambda: [density(T, spec) for spec in ref.specs])
    dual_pair = [density(T, spec) for spec in EXPR_PAIR]
    for label, y in (("start", start), ("final", final)):
        d_args, n_args = slot_args(p, y.values)
        with tracer.span(f"value per point ({label})", "lagrangian"):
            m[f"lagrangian.value_point.{label}_us"] = per_point_us(
                k, [(p.l_delta, d_args), (p.l_nabla, n_args)], ("eval",)
            )
        with tracer.span(f"partials per point ({label})", "dual"):
            m[f"dual.partial_point.{label}_us"] = per_point_us(
                k, [(dual_pair[0], d_args), (dual_pair[1], n_args)], ("d2", "d3")
            )
        for short, fn in (
            ("j_product", T.j_product),
            ("gradient", T.first_variation_gradient),
            ("el1", T.el_residual_1),
            ("el2", T.el_residual_2),
        ):
            m[f"variational.{short}.{label}_s"] = probe(f"{short} ({label})", "variational", lambda fn=fn, y=y: fn(p, y))

    pts, f, g = identity_case(instance_rng(seed, 10_000))
    fg, gg = T.GridFunction(T.make_timescale(pts), f), T.GridFunction(T.make_timescale(pts), g)

    def identity():
        T.check_parts_formulas(fg, gg)
        T.check_derivative_relation(fg)
        T.check_integral_conversion(fg)
        T.check_integral_splitting(fg)

    m["calculus.identity_case_s"] = probe("identity case", "calculus", identity)

    env = subprocess_env(root)

    def start_process():
        subprocess.run([sys.executable, "-c", "import tsvar"], cwd=root, env=env, check=True, timeout=120)

    m["cli.process_start_s"] = probe("process start", "cli", start_process)
    return m


def traced_run(wl, sizes, seed: int, seconds: float, root: Path, out: Path) -> tuple[Tally, dict, list[str]]:
    tally = Tally()
    tracer = Tracer()
    with tracer.span("setup", "setup"):
        T = fresh_import()
        wl.build(T)
    wl.tracer = tracer
    wl.warm_up(tally)
    wl.tracer = None
    ref = wl.reference()
    p, config = ref.problem, ref.config

    # Counters: one solve of the reference problem through counting densities.
    counts: Counter = Counter()
    counted = T.VariationalProblem(p.scale, *map(counting(T, counts), (p.l_delta, p.l_nabla)), p.alpha, p.beta)
    with tracer.span("solve [counted]", "solver"):
        r, _ = tally.attempt("counted solve", lambda: T.solve(counted, config), lambda _: [])
    if r is None:
        return tally, {}, ["  the counted reference solve failed"]
    if ref.result is not None and fingerprint(r) != fingerprint(ref.result):
        tally.fail("counting densities changed the reference solve")

    point_evals = dict(counts)

    def same(result) -> list[str]:
        return [] if fingerprint(result) == fingerprint(r) else ["differs from the counted reference solve"]

    per_build = 2 * (len(p.scale) - 1)
    gradient_evals = point_evals["d2"] / per_build
    objective_evals = point_evals["eval"] / per_build - gradient_evals

    metrics = probe_layers(T, wl, tracer, sizes.probe_k, seed, root)

    # Overhead: untraced solves of the plain problem against traced solves of
    # the counting problem, alternated for the run's duration.
    plain, traced = [], []

    def pair():
        plain.append(at_reference_speed(lambda: tally.attempt("solve", lambda: T.solve(p, config), same)[1]))
        with tracer.span("solve [traced]", "solver"):
            traced.append(
                at_reference_speed(lambda: tally.attempt("traced solve", lambda: T.solve(counted, config), same)[1])
            )

    until(seconds, 3, pair)
    solve_s = median(plain)
    iterations = r.iterations
    stop = stop_state(r, config.max_iterations)

    def avg(name):
        return 0.5 * (metrics[f"variational.{name}.start_s"] + metrics[f"variational.{name}.final_s"])

    explained = (
        (gradient_evals - 2) * avg("gradient")
        + objective_evals * avg("j_product")
        + metrics["variational.el1.final_s"]
        + metrics["variational.el2.final_s"]
    )
    metrics.update(
        {
            "solver.solve_s": solve_s,
            "solver.iterations": float(iterations),
            "solver.iteration_s": solve_s / max(iterations, 1),
            "solver.stop_code": float(STOP_CODES[stop]),
            "solver.gradient_evals": gradient_evals,
            "solver.objective_evals": objective_evals,
            "solver.objective_evals_per_iteration": objective_evals / max(iterations, 1),
            "solver.unexplained_share": (solve_s - explained) / solve_s,
            "lagrangian.point_evals.eval": float(point_evals["eval"]),
            "lagrangian.point_evals.d2": float(point_evals["d2"]),
            "lagrangian.point_evals.d3": float(point_evals["d3"]),
            "trace.traced_solve_s": median(traced),
            "trace.overhead_s": median(traced) - solve_s,
        }
    )
    self_s = tracer.self_seconds()
    for layer, secs in self_s.items():
        metrics[f"{layer}.self_s"] = secs

    trace_file = out.parent / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(trace_file)
    lines = [
        f"  reference solve at reference speed: {len(plain)} untraced / {len(traced)} traced samples, "
        f"median {solve_s:.6g}s untraced, {median(traced):.6g}s traced, overhead {median(traced) - solve_s:+.3g}s",
        f"  stop state: {stop} after {iterations} iterations (converged={r.converged}, gradient {r.gradient_norm:.3g})",
        f"  decomposition: {gradient_evals - 2:g} gradients x {avg('gradient'):.4g}s + {objective_evals:g} objectives "
        f"x {avg('j_product'):.4g}s + EL tail {metrics['variational.el1.final_s'] + metrics['variational.el2.final_s']:.4g}s "
        f"= {explained:.4g}s of {solve_s:.4g}s; unexplained {solve_s - explained:+.4g}s "
        f"({100 * (solve_s - explained) / solve_s:+.1f}%)",
        "  self time per layer: "
        + ", ".join(f"{layer} {self_s[layer]:.4g}s" for layer in LAYERS),
        f"  spans: {len(tracer.spans)} written to {trace_file}",
    ]
    return tally, metrics, lines
