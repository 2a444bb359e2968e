import dataclasses
import json
import warnings

import numpy as np
import pytest

from tsvar import (
    EvalDomainError,
    GridFunction,
    Lagrangian,
    SolverConfig,
    StepUnderflowError,
    VariationalProblem,
    brute_force_oracle,
    catalog,
    chord,
    classic_el_residuals,
    el_residual_1,
    el_residual_2,
    first_variation_gradient,
    j_product,
    make_timescale,
    parse_lagrangian,
    perturbation_audit,
    solve,
    uniform_scale,
)


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
    with pytest.raises(StepUnderflowError):
        solve(p)


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


def test_oracle_validation():
    p = square_problem()
    with pytest.raises(ValueError, match="resolution"):
        brute_force_oracle(p, (-1.0, 1.0), 10)
    with pytest.raises(ValueError, match="bounds"):
        brute_force_oracle(p, (1.0, 1.0), 21)
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
    stalled = dataclasses.replace(r, converged=False)
    with pytest.raises(ValueError, match="converged"):
        perturbation_audit(p, stalled, radius=0.1, trials=10)


def test_audit_validation():
    p = square_problem()
    r = solve(p)
    with pytest.raises(ValueError):
        perturbation_audit(p, r, radius=0.0, trials=10)
    with pytest.raises(ValueError):
        perturbation_audit(p, r, radius=0.1, trials=0)


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
