#!/usr/bin/env python3
"""Print one sha256 per budgeted solve, oracle answer and probe.

Every line hashes everything the call returns, bit for bit, or the type and
message of the exception it raised.  Run it on two checkouts and diff the
outputs to show that a change leaves results bit-identical:

    python3 tools/fingerprints.py > before.txt    # in the old checkout
    python3 tools/fingerprints.py > after.txt     # in the new checkout
    diff before.txt after.txt

Solves: three density pairs, n = 11, 101 and 1001, a uniform and a seeded
non-uniform scale, minimize and maximize, each at a fixed iteration budget.
A fourth pair whose large trial steps leave its density's domain, so that
line-search trials raise without the solve diverging, at n = 11 and 101.
All four pairs again at n = 11 and 101 from a seeded start off the chord.
The catalog pair at n = 8193 on a seeded scale, at a budget of 5, where
each line-search block holds one trial.
Oracle: seeded instances with 1-3 interior points, one whose densities
fail on part of the search box, one whose J overflows to +inf and -inf on
most of its box while the finite rest reaches down to about -1.8e308, and
an all-tie grid at 3 interior points (``const(1)``), so the lexicographic
tie-break is compared too, and two at 3 interior points where the oracle's
estimate prunes the grid: one at resolution 41, whose scans span several
slabs, and one with its densities scaled by 1e150; one at 3 interior
points and resolution 101, whose slabs are single first-digit values, and
one at resolution 41 whose delta density fails on some first-digit values
only.  Probes: the objective, the gradient and the EL1 trace at seeded
points for densities that fail on part of their domain, so the first
failing point and its message are compared too.
Points: the value and both partials of every probe density and of three
catalog entries, point by point at seeded and special points (signed
zeros, infinities, points outside the domain), and the errors of bad
catalog arguments.  Grids: the value and partials passes of the probe
densities and of ``log(y) + sqrt(dy)`` over the brute-force oracle's shape
(1-D t, 2-D u and v), on arrays where most of them fail, so the flat index
of the first failing point is compared too.  Powers: the value and
partials passes of densities built on ``^``, ``sqrt`` and ``exp``, among
them exponents free of y and dy (0, 1 and functions of t), over seeded
grids from moderate to extreme magnitudes (signed zeros, subnormals,
integers under negative bases, squares and exponentials that overflow),
most of which fail somewhere.  Constants: densities with subtrees free of
t, y and dy (``2^0.5``, ``cos(1)``, ``exp(700)``, and ones that overflow,
take a fractional power of a negative base or divide by zero), over the
same grids and point by point, and catalog arguments that fail the same
ways.  Seeds: the value and partials passes of densities whose two
partials fail at different points (``sqrt(dy) + sqrt(y)``, ``t^y + dy^y``,
``y^dy``), over seeded 1-D grids, a 2-row stack and single points, and
their ``d2`` and ``d3`` point by point, so that the order of the two
seeds' failures is compared too.  Hand-built: the bounded pair and
the oracle's domain-error densities rebuilt from their point callables, so
that every pass runs point by point, each in a budgeted solve at n = 11
(minimize and maximize) and a brute-force oracle call on the oracle's
domain-error scale, and a brute-force oracle call at 3 interior points
whose densities fail or overflow on part of the box.  Sharing: pairs
whose delta and nabla passes share registers, each in budgeted solves at
n = 11 and 101 (uniform and seeded, minimize and maximize): one whose
shared dy-only subtree ``exp(6*dy)`` overflows on large trial steps, with
a brute-force oracle call whose box overflows it and leaves the nabla
density's domain, one with subtrees that read only t on both sides, and
identical densities.  Repeats: densities that repeat a subtree, which
their tape computes once (``log(y) + log(y)``, ``sqrt(dy)*log(y) +
sqrt(dy)``, and ``exp(6*dy) + exp(6*dy)`` paired with ``exp(6*dy) + 1``):
their value and partials passes over grids where most points fail or
overflow, budgeted solves at n = 11 and 101 (uniform and seeded, minimize
and maximize), in which the log and sqrt pairs meet failing trials and
some fail, and a brute-force oracle call whose box overflows the shared
exponential.  Identities: the twelve residuals of the calculus
identity checks and ``c1_diamond_norm`` of both grid functions, per case:
200 cases at each of two seeds, drawn as ``verify-identities`` draws them,
then 3-point scales, scales with 1e-11 gaps beside gaps of 1 to 1e3, and
values scaled by 1e150 and 1e300, so that products and then difference
quotients overflow, each as it comes and with numpy's warnings off.  Uses only the public API and runs from a checkout
without installing the package.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tsvar as T  # noqa: E402

PAIRS = {
    "expr": (T.parse_lagrangian, "dy^2 + y^2 + sin(t)*y", "dy^2 + 1"),
    "catalog": (T.catalog, "kinetic_minus_potential(2)", "dy_squared"),
    "steep": (T.parse_lagrangian, "sqrt(dy^2+1)", "exp(y)*dy^2 + 1"),
}
SIZES = (11, 101, 1001)
# Trials of its ascents leave sqrt's domain, yet the solve stays finite.
BOUNDED = (T.parse_lagrangian, "sqrt(2 - y^2) + dy^2", "dy^2 + 1")
# Densities that fail on part of the oracle's search box, with their boundary
# values, and the oracle's 4-point scale for them.
DOMAIN_ERRORS = ("log(y + 1) + dy^2", "sqrt(y) + 1", 0.5, 1.0)
DOMAIN_ERROR_POINTS = [0.0, 1.0, 2.5, 3.0]
# Finite factors whose product overflows, to +inf and to -inf, on most of the
# oracle's box on the domain-error scale.
OVERFLOWS = ("dy^2 - 1e155*y + 1", "1e155*y^2 + 1", 0.0, 0.0)
# Densities that fail or overflow on part of the box at 3 interior points.
FAILING_3I = ("log(y + 1) + dy^2", "sqrt(y) + 1e300*dy^4", 0.25, 0.75)
BUDGET = 30
PROBE_SOURCES = (
    ("log(y - 0.6) + dy^2", "dy^2 + 1"),
    ("sqrt(dy + 1)", "y^dy"),
    ("1/(y - 0.9) + y", "(dy + 1)^0.5 + 1"),
    ("(y - 0.7)^1.5 * dy", "exp(3*y) + dy^3"),
    ("sin(y)*cos(dy) + t^2", "(y - 0.8)^dy + sqrt(y^2)"),
)

CATALOG_ENTRIES = ("kinetic_minus_potential(2)", "dy_squared", "const(0.5)")
BAD_CATALOG_ARGUMENTS = ("const(1/0)", "const(log(0))", "const(exp(1000))", "const(1e308*10)", "const(1e999)",
                         "const(10^400)", "const((-8)^(1/3))")
# Densities whose subtrees free of t, y and dy are constants, some failing.
CONSTANT_SOURCES = ("y*2^0.5 + cos(1)*dy", "dy^2 + exp(700)*y", "y + 1e200^2", "y + (-8)^(1/3)", "dy + 0^-1")
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def outcome(fn) -> str:
    try:
        return digest(*fn())
    except Exception as exc:  # the failure itself is the fingerprint
        return f"{type(exc).__name__}: {exc}"


def seeded_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaps = 10.0 ** rng.uniform(-2.0, 0.0, n - 1)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) / float(np.sum(gaps))
    pts[-1] = 1.0
    return pts


def solve_parts(p, maximize: bool, y0=None, budget: int = BUDGET) -> tuple:
    r = T.solve(p, T.SolverConfig(max_iterations=budget, maximize=maximize), y0=y0)
    parts = [r.y.values, r.j_value, r.gradient_norm, r.iterations, r.converged,
             r.el1.residual_trace, r.el1.constant_c, r.el2.residual_trace,
             T.first_variation_gradient(p, r.y),
             T.el_residual_cor1(p, r.y).residual_trace,
             T.el_residual_cor2(p, r.y).residual_trace]
    if len(p.scale) >= 4:
        parts.extend(res.values for res in T.classic_el_residuals(p, r.y))
    return tuple(parts)


def problems(pairs: dict, sizes: tuple):
    for name, (build, ld, ln) in pairs.items():
        for n in sizes:
            for kind, pts in (("uniform", np.linspace(0.0, 1.0, n)), ("seeded", seeded_points(n, n))):
                yield f"{name} n={n} {kind}", T.VariationalProblem(T.make_timescale(pts), build(ld), build(ln), 0.0, 1.0)


def solves():
    for label, p in [*problems(PAIRS, SIZES), *problems({"bounded": BOUNDED}, SIZES[:2])]:
        for maximize in (False, True):
            sense = "max" if maximize else "min"
            yield f"solve {label} {sense}", lambda p=p, m=maximize: solve_parts(p, m)
    for label, p in problems({**PAIRS, "bounded": BOUNDED}, SIZES[:2]):
        vals = T.chord(p).values + 0.1 * np.random.default_rng(len(p.scale)).standard_normal(len(p.scale))
        vals[0], vals[-1] = p.alpha, p.beta
        y0 = T.GridFunction(p.scale, vals)
        for maximize in (False, True):
            sense = "max" if maximize else "min"
            yield f"solve {label} start {sense}", lambda p=p, m=maximize, y0=y0: solve_parts(p, m, y0)
    build, ld, ln = PAIRS["catalog"]
    p = T.VariationalProblem(T.make_timescale(seeded_points(8193, 8193)), build(ld), build(ln), 0.0, 1.0)
    yield "solve catalog n=8193 seeded min budget=5", lambda p=p: solve_parts(p, False, budget=5)


def oracles():
    for seed in range(6):
        rng = np.random.default_rng(1000 + seed)
        interior = 1 + seed % 3
        pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, interior + 1))))
        c = float(rng.uniform(0.1, 0.5))
        if seed < 3:
            ld, ln = T.parse_lagrangian(f"dy^2 + {c!r}*y^2 + 0.2*sin(y) + 1"), T.parse_lagrangian(f"dy^2 + {c!r}")
        else:
            ld, ln = T.catalog(f"kinetic_minus_potential({0.5 * c!r})"), T.catalog("dy_squared")
        alpha, beta = (float(x) for x in rng.uniform(-0.5, 0.5, 2))
        p = T.VariationalProblem(T.make_timescale(pts), ld, ln, alpha, beta)
        lo, hi = min(alpha, beta) - 0.5, max(alpha, beta) + 0.5
        resolution = {1: 101, 2: 31, 3: 15}[interior]
        yield (f"oracle seed={seed} interior={interior}",
               lambda p=p, b=(lo, hi), r=resolution: (T.brute_force_oracle(p, b, r).values,))
    # Domain errors on part of the box: candidates that raise are skipped.
    ld, ln, alpha, beta = DOMAIN_ERRORS
    p = T.VariationalProblem(T.make_timescale(DOMAIN_ERROR_POINTS), T.parse_lagrangian(ld), T.parse_lagrangian(ln),
                             alpha, beta)
    yield "oracle domain-errors", lambda: (T.brute_force_oracle(p, (-2.0, 2.0), 21).values,)
    ld, ln, alpha, beta = OVERFLOWS
    p = T.VariationalProblem(T.make_timescale(DOMAIN_ERROR_POINTS), T.parse_lagrangian(ld), T.parse_lagrangian(ln),
                             alpha, beta)
    yield "oracle overflows", lambda p=p: (T.brute_force_oracle(p, (-2.0, 2.0), 21).values,)
    const = T.catalog("const(1)")
    p = T.VariationalProblem(T.make_timescale([0.0, 1.0, 2.0, 3.0, 4.0]), const, const, 0.0, 0.0)
    yield "oracle all-tie interior=3", lambda p=p: (T.brute_force_oracle(p, (-1.0, 1.0), 11).values,)
    # 41^3 candidates: a scan spans eleven slabs of the estimate.  Then the
    # densities scaled by 1e150, so J is near 1e300 and the bound is widest.
    pts = [0.0, 0.8, 1.7, 2.9, 3.6]
    for label, scale, resolution in (("interior=3 resolution=41", "", 41), ("scaled 1e150 interior=3", "1e150*", 21)):
        ld, ln = (T.parse_lagrangian(f"{scale}({s})") for s in ("dy^2 + 0.3*y^2 + 0.2*sin(y) + 1", "dy^2 + 0.3"))
        p = T.VariationalProblem(T.make_timescale(pts), ld, ln, 0.2, -0.3)
        yield f"oracle {label}", lambda p=p, r=resolution: (T.brute_force_oracle(p, (-0.8, 0.7), r).values,)
    # 101^3 candidates: a slab is one first-digit value of 101^2 candidates.
    # Then a delta density that fails on part of the first-digit values only.
    nabla = T.parse_lagrangian("dy^2 + 0.3")
    for label, pts, ld, bounds, resolution in (
            ("uniform n=5 interior=3 resolution=101", np.linspace(0.0, 1.0, 5), "dy^2 + 0.3*y^2 + 0.2*sin(y) + 1",
             (-1.0, 2.0), 101),
            ("partial failures interior=3 resolution=41", [0.0, 0.7, 1.5, 2.2, 3.0], "log(y + 1 + 10*t) + dy^2",
             (-2.0, 2.0), 41)):
        p = T.VariationalProblem(T.make_timescale(pts), T.parse_lagrangian(ld), nabla, 0.25, 0.75)
        yield f"oracle {label}", lambda p=p, b=bounds, r=resolution: (T.brute_force_oracle(p, b, r).values,)


def probes():
    rng = np.random.default_rng(7)
    for ld, ln in PROBE_SOURCES:
        for n in (5, 40):
            p = T.VariationalProblem(T.make_timescale(seeded_points(n, n + 3)), T.parse_lagrangian(ld),
                                     T.parse_lagrangian(ln), 0.5, 1.0)
            t = p.scale.points
            for k in range(4):
                # The chord plus a wave that dips below each density's domain
                # somewhere inside the scale, or nowhere.
                vals = 0.5 + 0.5 * t + rng.uniform(0.0, 0.6) * np.sin(np.pi * rng.integers(1, 4) * t)
                vals[0], vals[-1] = 0.5, 1.0
                y = T.GridFunction(p.scale, vals)
                tag = f"probe {ld!r} / {ln!r} n={n} k={k}"
                yield f"{tag} j", lambda p=p, y=y: (T.j_product(p, y),)
                yield f"{tag} gradient", lambda p=p, y=y: (T.first_variation_gradient(p, y),)
                yield f"{tag} el1", lambda p=p, y=y: (T.el_residual_1(p, y).residual_trace,)


def point_outcomes(fn, points) -> tuple:
    """``fn`` at each point: its value, or the type and message of its error."""
    out = []
    for point in points:
        try:
            out.append(fn(*point))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return tuple(out)


def points():
    rng = np.random.default_rng(11)
    pts = [tuple(row) for row in rng.uniform(-2.0, 2.0, (40, 3)).tolist()]
    pts += [(0.3, u, v) for u in SPECIAL for v in SPECIAL]
    pts += [(t, 0.5, -0.0) for t in SPECIAL]
    densities = [(T.parse_lagrangian, s) for pair in PROBE_SOURCES for s in pair]
    densities += [(T.parse_lagrangian, s) for s in CONSTANT_SOURCES]
    densities += [(T.catalog, name) for name in CATALOG_ENTRIES]
    for build, source in densities:
        L = build(source)
        for method in ("eval", "d2", "d3"):
            yield f"point {source!r} {method}", lambda fn=getattr(L, method): point_outcomes(fn, pts)
    for name in BAD_CATALOG_ARGUMENTS:
        yield f"catalog {name!r}", lambda name=name: (T.catalog(name).origin,)


def grids():
    rng = np.random.default_rng(13)
    arrays = [(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 2.0, 3.0], [1.0, -1.0, -2.0]]),
               np.array([[1.0, 0.0, -4.0], [1.0, 1.0, 1.0]]))]
    arrays += [(rng.uniform(0.0, 1.0, 6), *rng.uniform(-0.5, 3.0, (2, 5, 6))) for _ in range(2)]
    sources = ("log(y) + sqrt(dy)",) + tuple(s for pair in PROBE_SOURCES for s in pair)
    for source in sources:
        L = T.parse_lagrangian(source)
        for k, (t, u, v) in enumerate(arrays):
            yield f"grid {source!r} k={k} values", lambda L=L, a=(t, u, v): (L.values(*a),)
            yield f"grid {source!r} k={k} partials", lambda L=L, a=(t, u, v): L.partials(*a)


POWER_SOURCES = ("y^dy", "y^3 + dy^-2", "(dy^2 + 1)^0.5", "sqrt(y) + sqrt(dy^2 + y^2)", "exp(y)",
                 "exp(3*y) + dy", "y^0 + dy^1", "y^t + dy^(t - 0.5)")
POWER_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e155, -1e155, 2.0, -3.0,
                 math.inf, -math.inf, math.nan)


def evaluating(L, arrays) -> tuple:
    """The points of ``arrays`` where ``L``'s value and both partials evaluate, as three 1-D arrays."""
    shape = np.broadcast(*arrays).shape
    kept = list(zip(*(np.broadcast_to(x, shape).ravel().tolist() for x in arrays)))
    for method in (L.eval, L.d2, L.d3):
        kept = [point for point, out in zip(kept, point_outcomes(method, kept)) if not isinstance(out, str)]
    return tuple(np.array(kept, dtype=float).reshape(-1, 3).T)


def powers():
    rng = np.random.default_rng(17)
    shape = (5, 8)
    t = rng.uniform(0.0, 1.0, shape[1])

    def signed(lo: float, hi: float) -> np.ndarray:
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)

    arrays = [
        (t, 10.0 ** rng.uniform(-2.0, 2.0, shape), 10.0 ** rng.uniform(-2.0, 2.0, shape)),
        (t, signed(-2.0, 2.0), rng.integers(-6, 7, shape).astype(float)),
        (t, signed(-323.0, 308.0), signed(-323.0, 308.0)),
        (t, rng.uniform(230.0, 240.0, shape), signed(150.0, 160.0)),
        (0.5, *(np.array(column) for column in zip(*itertools.product(POWER_SPECIAL, repeat=2)))),
    ]
    for source in POWER_SOURCES + CONSTANT_SOURCES:
        L = T.parse_lagrangian(source)
        for k, a in enumerate(arrays):
            yield f"powers {source!r} k={k} values", lambda L=L, a=a: (L.values(*a),)
            yield f"powers {source!r} k={k} partials", lambda L=L, a=a: L.partials(*a)
            # Only where every point evaluates, so that the values are compared.
            yield f"powers {source!r} k={k} evaluating values", lambda L=L, a=a: (L.values(*evaluating(L, a)),)
            yield f"powers {source!r} k={k} evaluating partials", lambda L=L, a=a: L.partials(*evaluating(L, a))


SEED_SOURCES = ("sqrt(dy) + sqrt(y)", "t^y + dy^y", "y^dy")
SEED_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, math.inf)


def seeds():
    rng = np.random.default_rng(19)
    n = 12
    arrays = [(rng.uniform(-0.5, 1.0, n), *rng.choice(SEED_SPECIAL, (2, n))) for _ in range(3)]
    for _ in range(3):  # mostly inside the domain, with one zero in y or dy
        t, u, v = rng.uniform(0.05, 1.0, n), *rng.uniform(0.1, 2.0, (2, n))
        (u, v)[rng.integers(2)][rng.integers(n)] = 0.0
        arrays.append((t, u, v))
    arrays.append((arrays[3][0], np.stack([arrays[3][1], arrays[4][1]]), np.stack([arrays[3][2], arrays[4][2]])))
    arrays.append((np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])))  # d3 fails first, d2 after
    pts = [tuple(float(x) for x in point) for t, u, v in arrays[:4] for point in zip(t, u, v)]
    pts += [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.0, 0.0), (-0.5, 2.0, 0.0)]
    for source in SEED_SOURCES:
        L = T.parse_lagrangian(source)
        for k, a in enumerate(arrays):
            yield f"seeds {source!r} k={k} values", lambda L=L, a=a: (L.values(*a),)
            yield f"seeds {source!r} k={k} partials", lambda L=L, a=a: L.partials(*a)
        yield f"seeds {source!r} point passes", lambda L=L: point_outcomes(
            lambda *point: (L.values(*point), *L.partials(*point)), pts)
        for method in ("d2", "d3"):
            yield f"seeds {source!r} {method}", lambda fn=getattr(L, method): point_outcomes(fn, pts)


def hand_built():
    def by_hand(source: str):
        L = T.parse_lagrangian(source)
        return T.Lagrangian(L.eval, L.d2, L.d3, L.origin)

    for name, (ld, ln, alpha, beta) in (("bounded", (*BOUNDED[1:], 0.0, 1.0)), ("oracle domain-errors", DOMAIN_ERRORS)):
        ld, ln = by_hand(ld), by_hand(ln)
        p = T.VariationalProblem(T.make_timescale(np.linspace(0.0, 1.0, 11)), ld, ln, alpha, beta)
        for maximize in (False, True):
            sense = "max" if maximize else "min"
            yield f"hand-built {name} n=11 {sense}", lambda p=p, m=maximize: solve_parts(p, m)
        q = T.VariationalProblem(T.make_timescale(DOMAIN_ERROR_POINTS), ld, ln, alpha, beta)
        yield f"hand-built {name} oracle", lambda q=q: (T.brute_force_oracle(q, (-2.0, 2.0), 21).values,)
    ld, ln, alpha, beta = FAILING_3I
    p = T.VariationalProblem(T.make_timescale([0.0, 0.7, 1.5, 2.8, 3.5]), by_hand(ld), by_hand(ln), alpha, beta)
    yield "hand-built failing oracle interior=3", lambda p=p: (T.brute_force_oracle(p, (-1.5, 1.5), 11).values,)


SHARING = {
    "shared-overflow": (T.parse_lagrangian, "exp(6*dy) + y^2", "exp(6*dy) + log(y + 2)"),
    "t-only": (T.parse_lagrangian, "dy^2 + sin(t)*y + exp(t)", "dy^2 + cos(3*t)*y + t^2"),
    "identical": (T.parse_lagrangian, "dy^2 + y^2 + 1", "dy^2 + y^2 + 1"),
}


def sharing():
    for label, p in problems(SHARING, SIZES[:2]):
        for maximize in (False, True):
            sense = "max" if maximize else "min"
            yield f"sharing solve {label} {sense}", lambda p=p, m=maximize: solve_parts(p, m)
    build, ld, ln = SHARING["shared-overflow"]
    p = T.VariationalProblem(T.make_timescale([0.0, 0.01, 0.025, 0.03]), build(ld), build(ln), 0.0, 0.5)
    yield "sharing oracle shared-overflow", lambda p=p: (T.brute_force_oracle(p, (-3.0, 3.0), 21).values,)


# Densities that repeat a subtree: log(y), sqrt(dy) and exp(6*dy) are each one register of their tape.
REPEATS = {
    "log-twice": (T.parse_lagrangian, "log(y) + log(y)", "dy^2 + 1"),
    "sqrt-twice": (T.parse_lagrangian, "sqrt(dy)*log(y) + sqrt(dy)", "dy^2 + y^2 + 1"),
    "exp-twice": (T.parse_lagrangian, "exp(6*dy) + exp(6*dy)", "exp(6*dy) + 1"),
}


def repeats():
    rng = np.random.default_rng(29)
    arrays = [(rng.uniform(0.0, 1.0, 6), *rng.uniform(-0.5, 3.0, (2, 5, 6))),
              (rng.uniform(0.0, 1.0, 6), rng.uniform(-0.5, 3.0, (5, 6)), rng.uniform(100.0, 140.0, (5, 6))),
              (0.5, *(np.array(column) for column in zip(*itertools.product(SPECIAL, repeat=2))))]
    for source in ("log(y) + log(y)", "sqrt(dy)*log(y) + sqrt(dy)", "exp(6*dy) + exp(6*dy)", "exp(6*dy) + 1"):
        L = T.parse_lagrangian(source)
        for k, a in enumerate(arrays):
            yield f"repeats {source!r} k={k} values", lambda L=L, a=a: (L.values(*a),)
            yield f"repeats {source!r} k={k} partials", lambda L=L, a=a: L.partials(*a)
            yield f"repeats {source!r} k={k} evaluating partials", lambda L=L, a=a: L.partials(*evaluating(L, a))
    for label, p in problems(REPEATS, SIZES[:2]):
        for maximize in (False, True):
            sense = "max" if maximize else "min"
            yield f"repeats solve {label} {sense}", lambda p=p, m=maximize: solve_parts(p, m)
    build, ld, ln = REPEATS["exp-twice"]
    p = T.VariationalProblem(T.make_timescale([0.0, 0.01, 0.025, 0.03]), build(ld), build(ln), 0.0, 0.5)
    yield "repeats oracle exp-twice", lambda p=p: (T.brute_force_oracle(p, (-3.0, 3.0), 21).values,)


def identity_cases():
    """Points and two value vectors per case, with the case's label."""
    for seed in (0, 41):
        rng = np.random.default_rng(seed)
        for k in range(200):  # as verify-identities draws them
            n = int(rng.integers(5, 51))
            gaps = 10.0 ** rng.uniform(-3.0, 1.0, n - 1)
            start = float(rng.uniform(-10.0, 10.0))
            yield f"seed={seed} k={k}", start + np.concatenate(([0.0], np.cumsum(gaps))), *rng.standard_normal((2, n))
    rng = np.random.default_rng(23)
    for k in range(20):
        yield f"3-point k={k}", np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, 3)), *rng.standard_normal((2, 3))
    for k in range(20):
        n = int(rng.integers(4, 41))
        gaps = np.where(rng.random(n - 1) < 0.5, 1e-11, 10.0 ** rng.uniform(0.0, 3.0, n - 1))
        yield f"1e-11 gaps k={k}", np.concatenate(([0.0], np.cumsum(gaps))), *rng.standard_normal((2, n))
    for scale in (1e150, 1e300):
        for k in range(10):
            n = int(rng.integers(3, 21))
            gaps = 10.0 ** rng.uniform(-11.0, 3.0, n - 1)
            yield (f"scaled {scale:g} k={k}", np.concatenate(([0.0], np.cumsum(gaps))),
                   *scale * rng.standard_normal((2, n)))


def identity_outcomes(f, g) -> tuple:
    """The residuals and the norms, as they come and with numpy's warnings off."""
    def residuals():
        return (T.check_parts_formulas(f, g) + T.check_derivative_relation(f) + T.check_integral_conversion(f)
                + T.check_integral_splitting(f))

    def norms():
        return T.c1_diamond_norm(f), T.c1_diamond_norm(g)

    with np.errstate(all="ignore"):  # so that overflowing cases give their inf, nan or error
        quiet = outcome(residuals), outcome(norms)
    return outcome(residuals), outcome(norms), *quiet


def identities():
    for label, pts, fv, gv in identity_cases():
        ts = T.make_timescale(pts)
        f, g = T.GridFunction(ts, fv), T.GridFunction(ts, gv)
        yield f"identities {label}", lambda f=f, g=g: identity_outcomes(f, g)


def main() -> int:
    for group in (solves, oracles, probes, points, grids, powers, seeds, hand_built, sharing, repeats, identities):
        for label, fn in group():
            print(f"{label}: {outcome(fn)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
