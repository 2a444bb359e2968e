import contextlib
import inspect
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tsvar.solver
import tsvar.variational
from tsvar import (
    EvalDomainError,
    GridFunction,
    Lagrangian,
    PartialGridFunction,
    SolverConfig,
    StepUnderflowError,
    VariationalProblem,
    brute_force_oracle,
    catalog,
    chord,
    classic_el_residuals,
    el_residual_1,
    el_residual_2,
    el_residual_cor1,
    el_residual_cor2,
    first_variation_gradient,
    j_product,
    make_timescale,
    parse_lagrangian,
    perturbation_audit,
    solve,
    uniform_scale,
)
from tsvar.program import _run, run
from tsvar.solver import _grid_objectives
from tsvar.variational import _slot_args


def square_problem(pts=(0.0, 1.0, 2.0), beta=2.0):
    ts = make_timescale(pts)
    return VariationalProblem(ts, parse_lagrangian("dy^2"),
                              parse_lagrangian("dy^2"), 0.0, beta)


# --- configuration --------------------------------------------------------


def test_config_validation():
    SolverConfig()  # defaults are valid
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        SolverConfig(gradient_tolerance=0.0)


@pytest.mark.parametrize("field,value", [
    ("max_iterations", 2.0), ("max_iterations", "10"), ("max_iterations", True), ("max_iterations", None),
    ("gradient_tolerance", "1e-3"), ("gradient_tolerance", math.nan), ("gradient_tolerance", -math.inf),
    ("gradient_tolerance", True), ("gradient_tolerance", 1j), ("maximize", "no"), ("maximize", 1),
    ("maximize", None), ("maximize", np.True_),
])
def test_config_rejects_fields_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        SolverConfig(**{field: value})


def test_config_accepts_numpy_numbers():
    config = SolverConfig(max_iterations=np.int64(3), gradient_tolerance=np.float64(0.5), maximize=True)
    assert solve(square_problem(), config).converged


def test_chord_past_the_float_range_raises_without_warning():
    # beta - alpha overflows to inf, so the chord is not finite inside and
    # GridFunction rejects it, from ``chord`` and from ``solve``, with no
    # RuntimeWarning (the suite turns one into an error).  A finite chord
    # whose last entry overflows before beta replaces it keeps its bits.
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("dy^2"), parse_lagrangian("dy^2"), -1e308, 1e308)
    for call in (chord, solve):
        with pytest.raises(ValueError, match=r"^non-finite value at index 1$"):
            call(p)
    p = VariationalProblem(ts, p.l_delta, p.l_nabla, -8e307, 9e307)
    assert chord(p).values.tolist() == [-8e307, -8e307 + (9e307 - -8e307) * 1.0 / 2.0, 9e307]


def test_chord_divides_first_where_only_the_product_overflows():
    # (beta - alpha) * (t - a) overflows at index 2, though the chord there
    # is finite: that entry is alpha + (beta - alpha) * ((t - a) / span).
    ts = make_timescale([0.0, 1.0, 2.0, 3.0])
    p = VariationalProblem(ts, parse_lagrangian("1"), parse_lagrangian("1"), -8e307, 9e307)
    rise = 9e307 - -8e307
    want = [-8e307, -8e307 + rise * 1.0 / 3.0, -8e307 + rise * (2.0 / 3.0), 9e307]
    assert chord(p).values.tolist() == want
    assert solve(p).y.values.tolist() == want


def test_chord_is_linear_with_exact_endpoints():
    ts = make_timescale([0.0, 0.3, 1.0, 3.0])
    p = VariationalProblem(ts, parse_lagrangian("dy^2"),
                           parse_lagrangian("dy^2"), -1.0, 0.1)
    y = chord(p)
    assert y.values[0] == -1.0
    assert y.values[-1] == 0.1
    slopes = np.diff(y.values) / np.diff(ts.points)
    np.testing.assert_allclose(slopes, slopes[0], rtol=1e-12)


# --- descent ----------------------------------------------------------------


def test_solve_from_stationary_start():
    p = square_problem()
    r = solve(p)
    assert r.converged
    assert r.iterations == 0
    assert r.gradient_norm == 0.0
    assert r.j_value == 4.0
    np.testing.assert_array_equal(r.y.values, [0.0, 1.0, 2.0])
    assert r.el1.passes() and r.el2.passes()
    assert r.el1.constant_c == 8.0


def test_solve_from_perturbed_start_recovers_minimizer():
    p = square_problem()
    y0 = GridFunction(p.scale, [0.0, -0.7, 2.0])
    r = solve(p, y0=y0)
    # descent drives the value to the floor even when the strict-decrease
    # test stalls before the gradient tolerance is met
    assert abs(r.j_value - 4.0) <= 1e-12
    assert abs(r.y.values[1] - 1.0) <= 1e-6
    assert r.iterations >= 1
    assert r.gradient_norm <= 1e-6
    if not r.converged:
        assert r.gradient_norm > SolverConfig().gradient_tolerance


def test_solve_is_deterministic():
    p = square_problem()
    y0 = GridFunction(p.scale, [0.0, -0.7, 2.0])
    a = solve(p, y0=y0)
    b = solve(p, y0=y0)
    np.testing.assert_array_equal(a.y.values, b.y.values)
    assert a.iterations == b.iterations
    assert a.j_value == b.j_value
    assert a.converged == b.converged


def test_solve_respects_iteration_budget():
    p = square_problem()
    y0 = GridFunction(p.scale, [0.0, -5.0, 2.0])
    r = solve(p, SolverConfig(max_iterations=2), y0=y0)
    assert not r.converged
    assert r.iterations == 2


@pytest.mark.parametrize("maximize", [False, True])
def test_solve_report_matches_standalone_functions(maximize):
    # The report reuses the final iterate's density pass; it must agree bit
    # for bit with evaluating the public functions afresh at result.y.
    p = VariationalProblem(uniform_scale(0.0, 1.0, 11),
                           parse_lagrangian("dy^2 + y^2 + sin(t)*y"),
                           parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    r = solve(p, SolverConfig(max_iterations=5, maximize=maximize))
    assert r.iterations == 5 and not r.converged
    assert r.j_value == j_product(p, r.y)
    assert r.gradient_norm == float(np.max(np.abs(first_variation_gradient(p, r.y))))
    for got, want in ((r.el1, el_residual_1(p, r.y)), (r.el2, el_residual_2(p, r.y))):
        assert got.which == want.which and got.domain == want.domain
        np.testing.assert_array_equal(got.residual_trace, want.residual_trace)
        assert got.constant_c == want.constant_c
        assert got.deviation == want.deviation
        assert (got.j_delta, got.j_nabla) == (want.j_delta, want.j_nabla)
    # EL1 and EL2 are one trace on two index sets; neither can be edited
    # through the other.
    np.testing.assert_array_equal(r.el1.residual_trace, r.el2.residual_trace)
    before = r.el2.residual_trace.copy()
    with pytest.raises(ValueError):
        r.el1.residual_trace[0] = 123.0
    np.testing.assert_array_equal(r.el2.residual_trace, before)


def recording(lag, calls):
    """``lag`` with the arguments of every value call appended to ``calls``."""

    def recorded_eval(t, u, v):
        calls.append((t, u, v))
        return lag.eval(t, u, v)

    return Lagrangian(recorded_eval, lag.d2, lag.d3, lag.origin)


def test_no_value_pass_is_repeated():
    # The pointwise residuals need no factor values.  A solve evaluates each
    # iterate's values once: the accepting line-search trial's factors carry
    # over, so no value pass repeats the one before it.
    ts = uniform_scale(0.0, 1.0, 11)
    calls = []
    p = VariationalProblem(ts, recording(parse_lagrangian("dy^2 + y^2 + sin(t)*y"), calls),
                           parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    classic_el_residuals(p, chord(p))
    assert calls == []
    r = solve(p, SolverConfig(max_iterations=20))
    assert r.iterations == 20 and not r.converged
    m = len(ts) - 1
    assert len(calls) % m == 0
    passes = [calls[i:i + m] for i in range(0, len(calls), m)]
    assert len(passes) > 20
    assert all(a != b for a, b in zip(passes, passes[1:]))


def test_each_value_array_builds_its_slot_arguments_once(monkeypatch):
    # The accepting trial's slot arguments carry over to the next iterate's
    # partials pass, so a solve builds them once per row of a factor's value
    # pass.  One build covers a whole block of line-search trials, one per row.
    builds = []

    def counted(p, vals):
        builds.append(vals)
        return _slot_args(p, vals)

    monkeypatch.setattr("tsvar.solver._slot_args", counted)
    monkeypatch.setattr("tsvar.variational._slot_args", counted)
    ts = uniform_scale(0.0, 1.0, 11)
    calls = []
    p = VariationalProblem(ts, recording(parse_lagrangian("dy^2 + y^2 + sin(t)*y"), calls),
                           parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    r = solve(p, SolverConfig(max_iterations=20))
    assert r.iterations == 20 and not r.converged
    assert len(calls) % (len(ts) - 1) == 0
    assert sum(len(vals) if vals.ndim == 2 else 1 for vals in builds) == len(calls) // (len(ts) - 1)
    assert any(vals.ndim == 2 and len(vals) > 1 for vals in builds)


def test_solve_with_zero_budget_reports_start():
    p = square_problem()
    y0 = GridFunction(p.scale, [0.0, -5.0, 2.0])
    r = solve(p, SolverConfig(max_iterations=0), y0=y0)
    assert not r.converged
    assert r.iterations == 0
    np.testing.assert_array_equal(r.y.values, y0.values)


def test_solve_rejects_bad_start():
    p = square_problem()
    with pytest.raises(ValueError, match="initial guess"):
        solve(p, y0=GridFunction(p.scale, [0.1, 1.0, 2.0]))
    with pytest.raises(ValueError):
        solve(p, y0=GridFunction(make_timescale([0, 1, 2, 3]),
                                 [0.0, 1.0, 1.5, 2.0]))
    # Same length and boundary values, but another scale.
    with pytest.raises(ValueError, match="initial guess does not live on the problem's scale"):
        solve(p, y0=GridFunction(make_timescale([0, 5, 100]), [0.0, 3.0, 2.0]))


def test_solve_pure_nabla_dirichlet_hits_chord():
    ts = uniform_scale(0.0, 1.0, 21)
    k = 1.0 / (ts.b - ts.a)
    p = VariationalProblem(ts, catalog(f"const({k!r})"),
                           catalog("dy_squared"), 0.0, 1.0)
    r = solve(p)
    assert r.converged
    assert np.max(np.abs(r.y.values - ts.points)) <= 1e-8
    assert r.j_value == pytest.approx(1.0, rel=1e-12)


def test_maximize_flips_the_descent_direction():
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("-dy^2"),
                           parse_lagrangian("dy^2"), 0.0, 2.0)
    r = solve(p, SolverConfig(maximize=True))
    assert r.converged
    assert r.j_value == -4.0
    np.testing.assert_array_equal(r.y.values, [0.0, 1.0, 2.0])
    audit = perturbation_audit(p, r, radius=0.25, trials=200)
    assert audit.classification == "local-max evidence"
    assert audit.j_max <= r.j_value


def test_huge_gradient_still_takes_a_step():
    # |grad| = 2e200, so |grad|^2 overflows a float; the Armijo threshold
    # must stay finite for small steps instead of rejecting every trial
    p = VariationalProblem(make_timescale([0.0, 1.0, 2.0]),
                           parse_lagrangian("1e200*y"), catalog("const(1)"), 0.0, 0.0)
    assert j_product(p, chord(p)) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = solve(p, SolverConfig(max_iterations=1))
    assert r.iterations == 1
    assert r.j_value < 0.0


def test_step_underflow_raises_when_domain_never_clears():
    ts = make_timescale([0.0, 1.0, 2.0])

    def fussy_eval(t, u, v):
        if u not in (1.0, 2.0):
            raise EvalDomainError("forced failure", t, u, v)
        return 1.0

    # the gradient must stay large enough that even a 1e-300 step moves
    # the trial point; otherwise the trial rounds back onto the feasible
    # start and the search stalls instead of underflowing
    fussy = Lagrangian(eval=fussy_eval,
                       d2=lambda t, u, v: 1e305,
                       d3=lambda t, u, v: 0.0,
                       origin="fussy")
    p = VariationalProblem(ts, fussy, catalog("const(0.5)"), 0.0, 2.0)
    with pytest.raises(StepUnderflowError, match="last trial: forced failure at") as exc:
        solve(p)
    assert isinstance(exc.value.__cause__, EvalDomainError)


def test_overflowing_trial_steps_warn_nothing():
    # A divergent ascent on a seeded non-uniform scale takes trial steps
    # whose difference quotients and factor sums overflow.  Those trials
    # are rejected as non-finite without a numpy RuntimeWarning, and the
    # search still ends in StepUnderflowError, naming its last trial's error.
    rng = np.random.default_rng(101)
    gaps = 10.0 ** rng.uniform(-2.0, 0.0, 100)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) / float(np.sum(gaps))
    pts[-1] = 1.0
    p = VariationalProblem(make_timescale(pts), parse_lagrangian("sqrt(dy^2+1)"),
                           parse_lagrangian("exp(y)*dy^2 + 1"), 0.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StepUnderflowError, match=r"last trial: (overflow|non-finite value) at \(t="):
            solve(p, SolverConfig(max_iterations=10, maximize=True))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("ld,ln", [("1e200*(dy^2+1)", "1e200*(dy^2+1)"),
                                   ("1e300*dy^2", "1e300*(dy^2 + y^2)")])
def test_overflowing_product_warns_nothing(ld, ln):
    # Both factors are finite but Jd*Jn overflows.  The gradient, the EL
    # traces and their reports, and a solve multiply by the factors with
    # numpy's warnings off, and the infinite trace fails EL1.  The first
    # pair's solve stops at once, not converged, with J = inf (see
    # test_solve_at_an_infinite_objective_does_not_converge); the second
    # ends in StepUnderflowError.
    p = VariationalProblem(uniform_scale(0.0, 1.0, 11), parse_lagrangian(ld),
                           parse_lagrangian(ln), 0.0, 1.0)
    y = chord(p)
    assert j_product(p, y) == math.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first_variation_gradient(p, y)
        el1 = el_residual_1(p, y)
        for report in (el_residual_2, el_residual_cor1, el_residual_cor2):
            report(p, y)
        with contextlib.suppress(StepUnderflowError):
            solve(p, SolverConfig(max_iterations=5))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not el1.passes()


def test_infinite_gradient_component_warns_nothing():
    # A divergent ascent reaches an iterate whose gradient has an infinite
    # component: the sup-norm is inf, the power-of-two rescale is 1, and
    # the slope's dot product overflows.  It does so with numpy's warnings
    # off (the suite turns a RuntimeWarning into an error), and the search
    # still ends in StepUnderflowError.
    p = VariationalProblem(uniform_scale(0.0, 1.0, 101), parse_lagrangian("exp(8*dy) + y^2"),
                           parse_lagrangian("exp(8*dy) + log(y + 2)"), 0.0, 1.0)
    with pytest.raises(StepUnderflowError, match="last trial: "):
        solve(p, SolverConfig(max_iterations=30, maximize=True))


def test_solve_at_a_hundred_thousand_points():
    # Two descent steps on the expression pair at n = 100,000 lower J below
    # the chord's, stay finite, warn nothing, and repeat bit for bit.
    p = VariationalProblem(uniform_scale(0.0, 1.0, 100_000), parse_lagrangian("dy^2 + y^2 + sin(t)*y"),
                           parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = (solve(p, SolverConfig(max_iterations=2)) for _ in range(2))
    assert first.iterations == 2
    assert math.isfinite(first.j_value)
    assert first.j_value < j_product(p, chord(p))
    assert first.y.values.tobytes() == second.y.values.tobytes()
    assert (first.j_value, first.gradient_norm) == (second.j_value, second.gradient_norm)
    assert first.el1.residual_trace.tobytes() == second.el1.residual_trace.tobytes()


def test_solve_at_an_infinite_objective_does_not_converge():
    # Each factor is 2e200, so Jd*Jn overflows; the gradient at the chord is
    # exactly 0, but a solve at J = inf is not converged.
    ld = ln = parse_lagrangian("1e200*(dy^2+1)")
    p = VariationalProblem(uniform_scale(0.0, 1.0, 11), ld, ln, 0.0, 1.0)
    r = solve(p)
    assert (r.gradient_norm, r.iterations, r.j_value) == (0.0, 0, math.inf)
    assert not r.converged


@pytest.mark.parametrize("interior", [1, 2, 3])
def test_batched_oracle_matches_j_product(interior, monkeypatch):
    # The oracle evaluates each density once per distinct pair of neighbouring
    # values, estimates every candidate's J slab by slab, and sums exactly only
    # the candidates whose estimate can still be the minimum.  Each of those
    # J equals j_product bit for bit, and a candidate that fails, or whose J
    # is not finite, gets J = inf without dropping its slab.  They come in
    # lexicographic order, and every candidate that attains the minimum is
    # among them, at any slab size.
    rng = np.random.default_rng(30 + interior)
    ts = make_timescale(np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, interior + 1)))))
    resolution = {1: 40, 2: 13, 3: 7}[interior]
    axes = list(rng.uniform(-1.5, 1.5, (interior, resolution)))
    for axis in axes:
        axis[rng.choice(resolution, 2, replace=False)] = 0.0
    candidates = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, interior)
    failing = (parse_lagrangian("log(y + 1) + dy^2"), parse_lagrangian("sqrt(y) + 1e300*dy^4"))
    pairs = [
        (parse_lagrangian("dy^2 + 0.3*y^2 + 0.2*sin(y) + 1"), parse_lagrangian("dy^2 + 0.3")),
        (catalog("kinetic_minus_potential(0.2)"), catalog("dy_squared")),
        (parse_lagrangian("dy^2 + y^2 + sin(t)*y"), parse_lagrangian("dy^2 + t*y + 1")),
        (parse_lagrangian("dy^2 - 1e155*y + 1"), parse_lagrangian("1e155*y^2 + 1")),  # J = +-inf
        # Rounding in the sums is far above the differences between neighbours.
        (parse_lagrangian("1e14*(t - 1) + dy^2 + 0.3*y^2 + 0.2*sin(y) + 1"), catalog("const(1)")),
        failing,
        tuple(Lagrangian(L.eval, L.d2, L.d3, L.origin) for L in failing),
    ]
    for ld, ln in pairs:
        p = VariationalProblem(ts, ld, ln, 0.25, 0.75)
        want = []
        for row in candidates:
            try:
                j = j_product(p, GridFunction(ts, np.concatenate(([0.25], row, [0.75]))))
            except EvalDomainError:
                j = np.inf
            want.append(j if np.isfinite(j) else np.inf)
        want = np.array(want)
        for block in (5, 30, 8192):
            monkeypatch.setattr("tsvar.solver._BLOCK_ELEMENTS", block)
            with np.errstate(all="ignore"):  # the caller of ``_grid_objectives`` holds np.errstate
                f, got = (np.concatenate(part) for part in zip(*_grid_objectives(p, axes)))
            assert np.all(np.diff(f) > 0)
            assert got.tobytes() == want[f].tobytes()
            assert set(np.flatnonzero(want == want.min())) <= set(f.tolist())
    assert 0 < np.sum(np.isinf(want)) < len(want)  # the last pair fails on part of the grid


def exhaustive_oracle(p, bounds, resolution):
    """The oracle's two scans, each the first minimum of a list of every candidate's j_product.

    Returns the answer and, per scan, how many candidates attain its minimum.
    """
    ties = []

    def scan(axes):
        rows = list(itertools.product(*axes))
        js = []
        for row in rows:
            try:
                j = j_product(p, GridFunction(p.scale, np.array([p.alpha, *row, p.beta])))
            except EvalDomainError:
                j = math.inf
            js.append(j if math.isfinite(j) else math.inf)
        if min(js) == math.inf:
            raise ValueError("no feasible candidate inside the search bounds")
        ties.append(js.count(min(js)))
        return rows[js.index(min(js))]

    lo, hi = bounds
    step = (hi - lo) / (resolution - 1)
    best = scan([np.linspace(lo, hi, resolution)] * (len(p.scale) - 2))
    best = scan([np.linspace(max(lo, c - step), min(hi, c + step), resolution) for c in best])
    return np.array([p.alpha, *best, p.beta]), ties


@pytest.mark.parametrize("interior", [1, 2, 3])
def test_oracle_is_the_first_minimum_of_every_j_product(interior, monkeypatch):
    # Seeded instances: expression and catalog pairs, densities that fail on
    # part of the box, J = +-inf on most of it, an all-tie grid, a tie
    # between mirror-image candidates, and a pair scaled by 1e150, where the
    # estimate's bound is widest.  At the default slab size and at 16
    # elements, where the threshold carries across many slabs, the answer is
    # the exhaustive one byte for byte, and no numpy warning escapes.
    rng = np.random.default_rng(50 + interior)
    seeded = make_timescale(np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, interior + 1)))))
    unit = make_timescale(np.arange(interior + 2.0))
    c = float(rng.uniform(0.1, 0.5))
    alpha, beta = (float(x) for x in rng.uniform(-0.5, 0.5, 2))
    box = (min(alpha, beta) - 0.5, max(alpha, beta) + 0.5)
    expr = (f"dy^2 + {c!r}*y^2 + 0.2*sin(y) + 1", f"dy^2 + {c!r}")
    resolution = {1: 41, 2: 15, 3: 11}[interior]
    cases = [
        (seeded, *map(parse_lagrangian, expr), alpha, beta, box, resolution),
        (seeded, catalog(f"kinetic_minus_potential({0.5 * c!r})"), catalog("dy_squared"), alpha, beta, box,
         resolution),
        (seeded, *(parse_lagrangian(f"1e150*({s})") for s in expr), alpha, beta, box, resolution),
        (seeded, parse_lagrangian("log(y + 1) + dy^2"), parse_lagrangian("sqrt(y) + 1"), 0.5, 1.0, (-2.0, 2.0),
         resolution),
        (seeded, parse_lagrangian("dy^2 - 1e155*y + 1"), parse_lagrangian("1e155*y^2 + 1"), 0.0, 0.0, (-2.0, 2.0),
         resolution),
        (seeded, catalog("const(1)"), catalog("const(1)"), 0.0, 0.0, (-1.0, 1.0), 11),
        # Terms near 1e14 that cancel between edges: rounding in the sums
        # is far above the differences between neighbouring candidates' J.
        (seeded, parse_lagrangian(f"1e14*(t - 1) + {expr[0]}"), catalog("const(1)"), alpha, beta, box, resolution),
        # Even in y and dy, with alpha = beta = 0 on unit gaps and a grid of
        # integers, so mirror-image candidates tie exactly.
        (unit, parse_lagrangian("(y^2 - 4)^2 + dy^2"), catalog("const(1)"), 0.0, 0.0, (-5.0, 5.0), 11),
    ]
    for ts, ld, ln, a, b, bounds, res in cases:
        p = VariationalProblem(ts, ld, ln, a, b)
        try:
            want, ties = exhaustive_oracle(p, bounds, res)
        except ValueError as exc:
            want, ties = str(exc), None
        for block in (8192, 16):
            monkeypatch.setattr("tsvar.solver._BLOCK_ELEMENTS", block)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = brute_force_oracle(p, bounds, res).values.tobytes()
                except ValueError as exc:
                    got = str(exc)
            assert got == (want if ties is None else want.tobytes())
        if ld.origin in ("const(1)", "(y^2 - 4)^2 + dy^2"):
            assert ties[0] >= 2


def test_oracle_chunk_with_failing_candidates_is_one_pass_per_factor(monkeypatch):
    # A failing pair of neighbouring values gets nan in its factor's pass; no
    # candidate is evaluated again on its own.  The pair's one tape runs
    # once, both factors' passes covering the 16 + 256 + 16 distinct pairs
    # of the three edges, as rows of 16.
    calls = []

    def counted(program, slots, *args):
        calls.append((np.shape(slots[1]), np.shape(slots[4])))
        return _run(program, slots, *args)

    monkeypatch.setattr("tsvar.variational._run", counted)
    ts = make_timescale([0.0, 1.0, 2.5, 3.0])
    p = VariationalProblem(ts, parse_lagrangian("log(y + 1) + dy^2"), parse_lagrangian("sqrt(y) + 1"), 0.5, 1.0)
    j = np.concatenate([j for _, j in _grid_objectives(p, [np.linspace(-2.0, 2.0, 16)] * 2)])
    assert calls == [((18, 16), (18, 16))]
    assert 0 < np.sum(j == np.inf) < 256 and np.all(np.isfinite(j) | (j == np.inf))


def summed_per_scan(monkeypatch, p, bounds, resolution):
    """Each oracle scan's axes and the flat indices of the candidates it sums exactly."""
    scans = []

    def counted(p, axes):
        scans.append((axes, []))
        for f, j in _grid_objectives(p, axes):
            scans[-1][1].append(f)
            yield f, j

    monkeypatch.setattr("tsvar.solver._grid_objectives", counted)
    brute_force_oracle(p, bounds, resolution)
    return [(axes, np.concatenate(f)) for axes, f in scans]


PRUNED_POINTS = [0.0, 0.7, 1.5, 2.2, 3.0]


def test_oracle_sums_few_candidates_exactly(monkeypatch):
    # The estimate prunes: of the 2 * 25^3 candidates of both scans the
    # oracle sums at most 16 exactly.
    p = VariationalProblem(make_timescale(PRUNED_POINTS), parse_lagrangian("dy^2 + 0.3*y^2 + 0.2*sin(y) + 1"),
                           parse_lagrangian("dy^2 + 0.3"), 0.25, 0.75)
    scans = summed_per_scan(monkeypatch, p, (-1.0, 2.0), 25)
    assert 0 < sum(len(f) for _, f in scans) <= 16


def test_oracle_sums_slabs_with_failing_first_digits_whole(monkeypatch):
    # log(y + 1 + 10*t) fails where y_1 <= -1 on the first scan's grid.  The
    # slabs of those first-digit values are summed whole, and the estimate
    # still prunes: fewer than half of the 2 * 41^3 candidates are summed.
    p = VariationalProblem(make_timescale(PRUNED_POINTS), parse_lagrangian("log(y + 1 + 10*t) + dy^2"),
                           parse_lagrangian("dy^2 + 0.3"), 0.25, 0.75)
    scans = summed_per_scan(monkeypatch, p, (-2.0, 2.0), 41)
    assert 0 < sum(len(f) for _, f in scans) < 41**3
    (axes, first), _ = scans
    size = 41**2
    failing = np.flatnonzero(axes[0] <= -1.0)
    assert len(failing) == 11
    for d in failing:
        assert np.isin(np.arange(d * size, (d + 1) * size), first).all()


def test_oracle_memory_stays_bounded():
    # 101^3 candidates per scan; one factor's (candidates x edges) stack
    # alone would take 33 MB.
    p = VariationalProblem(uniform_scale(0.0, 1.0, 5), parse_lagrangian("dy^2 + 0.3*y^2 + 0.2*sin(y) + 1"),
                           parse_lagrangian("dy^2 + 0.3"), 0.25, 0.75)
    tracemalloc.start()
    try:
        y = brute_force_oracle(p, (-1.0, 2.0), 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.all(np.diff(y.values) > 0.0)


def test_domain_error_at_start_propagates():
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("log(y)"),
                           parse_lagrangian("dy^2"), -1.0, -1.0)
    with pytest.raises(EvalDomainError):
        solve(p)


def test_solve_result_serialization():
    r = solve(square_problem())
    d = r.to_dict()
    assert d["converged"] is True
    assert d["j_value"] == 4.0
    assert d["iterations"] == 0
    assert d["y"]["values"] == [0.0, 1.0, 2.0]
    assert d["el1"]["constant_c"] == 8.0
    assert json.loads(r.to_json()) == d


# --- brute force oracle ------------------------------------------------------


@pytest.mark.parametrize("bounds, resolution, name", [
    ((-1.0, 1.0), 10, "resolution"),
    ((-1.0, 1.0), 21.5, "resolution"),
    ((-1.0, 1.0), "21", "resolution"),
    ((-1.0, 1.0), True, "resolution"),
    ((-1.0, 1.0), np.float64(21.0), "resolution"),
    ((1.0, 1.0), 21, "bounds"),
    ((1.0, -1.0), 21, "bounds"),
    ((-math.inf, 1.0), 21, "bounds"),
    ((0.0, math.inf), 21, "bounds"),
    ((math.nan, 1.0), 21, "bounds"),
    ((-1e308, 1e308), 21, "bounds"),
    (("0", "1"), 21, "bounds"),
    ((False, True), 21, "bounds"),
])
def test_oracle_rejects_bad_input(bounds, resolution, name):
    # Each fails before any scan, naming its argument, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} "):
            brute_force_oracle(square_problem(), bounds, resolution)


def test_oracle_accepts_numpy_integers_and_a_span_near_the_float_range():
    p = square_problem()
    assert brute_force_oracle(p, (-1.0, 3.0), np.int64(21)).values.tolist() == [0.0, 1.0, 2.0]
    # Every J ties, so the first candidate wins both scans.
    flat = VariationalProblem(p.scale, catalog("const(1)"), catalog("const(1)"), 0.0, 2.0)
    assert brute_force_oracle(flat, (-8e307, 8e307), 21).values.tolist() == [0.0, -8e307, 2.0]


def test_oracle_validation():
    p = square_problem()
    big = VariationalProblem(uniform_scale(0.0, 1.0, 6),
                             parse_lagrangian("dy^2"),
                             parse_lagrangian("dy^2"), 0.0, 1.0)
    with pytest.raises(ValueError, match="3 interior"):
        brute_force_oracle(big, (-1.0, 1.0), 21)


def test_oracle_finds_the_square_problem_minimizer():
    p = square_problem()
    y = brute_force_oracle(p, (-2.0, 4.0), 601)
    coarse_step = 6.0 / 600
    refined_width = 2.0 * coarse_step / 600
    assert abs(y.values[1] - 1.0) <= refined_width
    assert j_product(p, y) == pytest.approx(4.0, abs=1e-6)


def test_oracle_ties_break_lexicographically():
    ts = make_timescale([0.0, 1.0, 2.0, 3.0])
    p = VariationalProblem(ts, catalog("const(1)"), catalog("const(1)"),
                           0.0, 0.0)
    y = brute_force_oracle(p, (-1.0, 1.0), 11)
    np.testing.assert_array_equal(y.values[1:-1], [-1.0, -1.0])


def test_oracle_skips_domain_errors():
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("log(y) + dy^2"),
                           parse_lagrangian("dy^2"), 1.0, 1.0)
    y = brute_force_oracle(p, (-2.0, 2.0), 41)
    assert y.values[1] > 0.0


def test_oracle_raises_when_nothing_is_feasible():
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("log(y)"),
                           parse_lagrangian("dy^2"), -1.0, -1.0)
    with pytest.raises(ValueError, match="no feasible candidate"):
        brute_force_oracle(p, (-2.0, 2.0), 21)


def test_oracle_matches_solver_on_an_asymmetric_problem():
    ts = make_timescale([0.0, 0.5, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("dy^2 + y^2"),
                           parse_lagrangian("dy^2"), 0.0, 1.0)
    r = solve(p)
    y = brute_force_oracle(p, (-2.0, 3.0), 601)
    coarse_step = 5.0 / 600
    refined_width = 2.0 * coarse_step / 600
    assert abs(r.y.values[1] - y.values[1]) <= max(refined_width, 1e-6)
    assert j_product(p, y) == pytest.approx(r.j_value, rel=1e-6)


# --- perturbation audit -------------------------------------------------------


def test_audit_confirms_local_minimum():
    p = square_problem()
    r = solve(p)
    audit = perturbation_audit(p, r, radius=0.1, trials=500)
    assert audit.classification == "local-min evidence"
    assert audit.fraction_below == 0.0
    assert audit.trials == 500
    assert audit.j_reference == 4.0
    assert audit.j_min >= 4.0
    assert audit.j_max > 4.0


def test_audit_requires_convergence():
    p = square_problem()
    r = solve(p)
    stalled = r.replace(converged=False)
    with pytest.raises(ValueError, match="converged"):
        perturbation_audit(p, stalled, radius=0.1, trials=10)


def test_audit_validation():
    p = square_problem()
    r = solve(p)
    with pytest.raises(ValueError):
        perturbation_audit(p, r, radius=0.0, trials=10)
    with pytest.raises(ValueError):
        perturbation_audit(p, r, radius=0.1, trials=0)


@pytest.mark.parametrize("radius, trials, name", [
    (0.0, 10, "radius"),
    (-0.1, 10, "radius"),
    (math.nan, 10, "radius"),
    (math.inf, 10, "radius"),
    (True, 10, "radius"),
    ("0.1", 10, "radius"),
    (0.1, 0, "trials"),
    (0.1, 2.5, "trials"),
    (0.1, True, "trials"),
    (0.1, "3", "trials"),
    (0.1, np.float64(3.0), "trials"),
])
def test_audit_rejects_bad_input(radius, trials, name):
    # Each fails before any sample, naming its argument, with no numpy warning.
    p = square_problem()
    r = solve(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} "):
            perturbation_audit(p, r, radius=radius, trials=trials)


def test_audit_stores_plain_numbers():
    p = square_problem()
    audit = perturbation_audit(p, solve(p), radius=np.float32(0.25), trials=np.int64(3))
    assert type(audit.radius) is float and type(audit.trials) is int
    assert json.loads(json.dumps(audit.to_dict()))["trials"] == 3


def test_audit_is_deterministic_per_seed():
    p = square_problem()
    r = solve(p)
    a = perturbation_audit(p, r, radius=0.1, trials=100, seed=42)
    b = perturbation_audit(p, r, radius=0.1, trials=100, seed=42)
    assert a.to_dict() == b.to_dict()
    c = perturbation_audit(p, r, radius=0.1, trials=100, seed=43)
    assert c.j_max != a.j_max


def test_audit_of_flat_objective_is_indeterminate():
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, catalog("const(1)"), catalog("const(1)"),
                           0.0, 0.0)
    r = solve(p)
    assert r.converged
    audit = perturbation_audit(p, r, radius=0.5, trials=50)
    assert audit.classification == "saddle/indeterminate"
    assert audit.j_min == audit.j_max == audit.j_reference


# --- one floating-point policy ----------------------------------------------

OVERFLOWING = parse_lagrangian("1e300*dy^2"), parse_lagrangian("1e300*(dy^2 + y^2)")
FIVE = uniform_scale(0.0, 1.0, 5)
MID = VariationalProblem(FIVE, *OVERFLOWING, 0.0, 1.0)  # J, the gradient and the EL traces overflow
HUGE = VariationalProblem(FIVE, *OVERFLOWING, -1e308, 1e308)  # every quotient overflows
Y_MID = GridFunction(FIVE, [0.0, 0.3, 0.4, 0.8, 1.0])
Y_HUGE = GridFunction(FIVE, [-1e308, 1e308, -1e308, 1e308, 1e308])
# Each public function of variational and solver, by name: calls whose arithmetic overflows.
POLICY_CALLS = {name: lambda fn=getattr(tsvar.variational, name): [lambda: fn(MID, Y_MID), lambda: fn(HUGE, Y_HUGE)]
                for name in ("j_delta", "j_nabla", "j_product", "first_variation_gradient", "el_residual_1",
                             "el_residual_2", "el_residual_cor1", "el_residual_cor2", "classic_el_residuals")}
POLICY_CALLS.update(
    # Only (beta - alpha) * (t - a) overflows, and then the span beta - alpha.
    chord=lambda: [lambda: chord(VariationalProblem(make_timescale([0.0, 1.0, 2.0, 3.0]), *OVERFLOWING, -8e307, 9e307)),
                   lambda: chord(HUGE)],
    # The gradient at the chord is 0 and the EL traces overflow; then the search meets domain errors only.
    solve=lambda L=parse_lagrangian("1e200*(dy^2 + 1)"): [lambda: solve(VariationalProblem(FIVE, L, L, 0.0, 1.0)),
                                                         lambda: solve(MID, SolverConfig(max_iterations=3))],
    # Some candidates' pairs fail or overflow and the rest are finite; then every J overflows.
    brute_force_oracle=lambda: [
        lambda: brute_force_oracle(VariationalProblem(make_timescale([0.0, 1.0, 2.0, 3.0, 4.0]), OVERFLOWING[0],
                                                      parse_lagrangian("1e-300*(dy^2 + y^2 + 1)"), 0.0, 1.0),
                                   (-1e300, 1e300), 21),
        lambda: brute_force_oracle(VariationalProblem(make_timescale([0.0, 1.0, 2.0]), *OVERFLOWING, 0.0, 1.0),
                                   (-1e307, 1e307), 11)],
    perturbation_audit=lambda r=solve(square_problem(pts=(0.0, 0.25, 0.5, 0.75, 1.0))): [
        lambda: perturbation_audit(MID, r, 0.1, 3), lambda: perturbation_audit(MID, r, 1e306, 3)],
)


def fingerprint(x):
    """The bytes or exact JSON of a public call's result."""
    if isinstance(x, tuple):
        return [fingerprint(v) for v in x]
    if isinstance(x, (np.ndarray, PartialGridFunction)):
        return getattr(x, "values", x).tobytes()
    return json.dumps(x.to_dict()) if hasattr(x, "to_dict") else repr(x)


def policy_outcome(call):
    """``call()``'s result, or the type and message of what it raises; numpy's settings must be as they were."""
    before = np.geterr()
    try:
        return fingerprint(call())
    except (ValueError, EvalDomainError, StepUnderflowError) as exc:
        return type(exc), str(exc)
    finally:
        assert np.geterr() == before


@pytest.mark.parametrize("name", sorted(
    name for module in (tsvar.variational, tsvar.solver) for name in module.__all__
    if inspect.isfunction(getattr(module, name))))
def test_public_calls_switch_numpy_warnings_off_and_restore_the_callers_settings(name):
    # Each public call runs wholly with numpy's warnings off and gives the
    # caller back its own settings, whether it returns or raises.  So under
    # an outer all="raise" each of these overflowing calls returns, or raises
    # the same error, as under numpy's defaults (where a RuntimeWarning
    # fails the test), and never raises FloatingPointError.
    calls = POLICY_CALLS[name]()
    outcomes = []
    for call in calls:
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):  # numpy's defaults
            want = policy_outcome(call)
        with np.errstate(all="raise"):
            assert policy_outcome(call) == want
        outcomes.append(isinstance(want, tuple) and isinstance(want[0], type))
    assert outcomes == [False, True]  # the first call returns, the second raises
