import json
import math
import warnings

import numpy as np
import pytest

import tsvar.lagrangian
import tsvar.program
import tsvar.variational
from tsvar import (
    EvalDomainError,
    GridFunction,
    KappaKind,
    Lagrangian,
    SolverConfig,
    VariationalProblem,
    brute_force_oracle,
    catalog,
    chord,
    classic_el_residuals,
    delta_derivative,
    el_residual_1,
    el_residual_2,
    el_residual_cor1,
    el_residual_cor2,
    first_variation_gradient,
    j_delta,
    j_nabla,
    j_product,
    make_timescale,
    nabla_derivative,
    parse_lagrangian,
    solve,
    uniform_scale,
)

from conftest import fd_gradient_oracle, hat_gradient_oracle, random_scale
from tsvar.variational import _factor, _factors, _Partials, _slot_args


def square_problem(pts, beta):
    """Both densities dy^2, zero left boundary."""
    ts = make_timescale(pts)
    return VariationalProblem(ts, parse_lagrangian("dy^2"),
                              parse_lagrangian("dy^2"), 0.0, beta)


def random_problem(rng, n_min=4, n_max=10):
    ts = random_scale(rng, n_min=n_min, n_max=n_max)
    pool = [
        "dy^2",
        "dy^2 + y^2",
        "dy^2 + 0.3*y*dy - 0.1*y",
        "0.5*dy^2 + 0.25*sin(y)",
        "dy^2 + cos(t)*y",
    ]
    ld = parse_lagrangian(pool[int(rng.integers(len(pool)))])
    ln = parse_lagrangian(pool[int(rng.integers(len(pool)))])
    return VariationalProblem(ts, ld, ln,
                              float(rng.standard_normal()),
                              float(rng.standard_normal()))


def interior_perturbed(rng, p, scale=0.5):
    y = chord(p)
    vals = y.values.copy()
    vals[1:-1] += rng.standard_normal(len(vals) - 2) * scale
    return GridFunction(p.scale, vals)


# --- functionals --------------------------------------------------------


def test_functional_values_linear_path():
    # oracle by hand: each factor integrates (slope 1)^2 over a span of 2
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 1.0, 2.0])
    assert j_delta(p, y) == 2.0
    assert j_nabla(p, y) == 2.0
    assert j_product(p, y) == 4.0


def test_functional_values_constant_path():
    ts = make_timescale([0.0, 1.0, 2.0])
    p = VariationalProblem(ts, parse_lagrangian("dy^2"),
                           parse_lagrangian("dy^2"), 1.0, 1.0)
    y = GridFunction(ts, [1.0, 1.0, 1.0])
    assert j_product(p, y) == 0.0


def test_normalized_constant_density_integrates_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ts = random_scale(rng)
        k = 1.0 / (ts.b - ts.a)
        p = VariationalProblem(ts, catalog(f"const({k!r})"),
                               parse_lagrangian("dy^2"), 0.0, 1.0)
        y = interior_perturbed(rng, p)
        assert j_delta(p, y) == pytest.approx(1.0, rel=1e-12)


def test_product_reduces_to_single_factor_with_constant_partner():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ts = random_scale(rng)
        k = 1.0 / (ts.b - ts.a)
        const = catalog(f"const({k!r})")
        ld = parse_lagrangian("dy^2 + y^2")
        p = VariationalProblem(ts, ld, const, -0.5, 1.5)
        y = interior_perturbed(rng, p)
        jd = j_delta(p, y)
        assert abs(j_product(p, y) - jd) <= 1e-12 * (1.0 + abs(jd))


def test_boundary_mismatch_is_rejected():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    bad = GridFunction(p.scale, [0.0, 1.0, 2.5])
    with pytest.raises(ValueError, match="boundary mismatch"):
        first_variation_gradient(p, bad)
    with pytest.raises(ValueError, match="boundary mismatch"):
        el_residual_1(p, bad)


def test_scale_mismatch_is_rejected():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    other = make_timescale([0.0, 1.0, 3.0])
    y = GridFunction(other, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        j_product(p, y)


def test_problem_validates_boundary_values():
    ts = make_timescale([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        VariationalProblem(ts, parse_lagrangian("dy^2"),
                           parse_lagrangian("dy^2"), 0.0, float("nan"))


@pytest.mark.parametrize("value", [True, np.True_, "0", None, math.nan, math.inf, -math.inf])
def test_problem_rejects_boundary_values_that_are_not_finite_reals(value):
    # A bool is not a number here, as in a problem file; a string or None
    # is refused with the value named instead of numpy's ufunc TypeError.
    L = parse_lagrangian("dy^2")
    for alpha, beta in ((value, 1.0), (0.0, value)):
        with pytest.raises(ValueError, match="boundary value") as exc:
            VariationalProblem(make_timescale([0.0, 1.0, 2.0]), L, L, alpha, beta)
        if not isinstance(value, float):
            assert repr(value) in str(exc.value)


def test_problem_stores_boundary_values_as_floats():
    L = parse_lagrangian("dy^2")
    for alpha, beta in ((0, 2), (np.float64(0.5), np.int64(3)), (np.float32(0.25), 1.5)):
        p = VariationalProblem(make_timescale([0.0, 1.0, 2.0]), L, L, alpha, beta)
        assert (type(p.alpha), type(p.beta)) == (float, float)
        assert (p.alpha, p.beta) == (float(alpha), float(beta))


# --- first variation ----------------------------------------------------


def test_gradient_vanishes_on_linear_path():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 1.0, 2.0])
    g = first_variation_gradient(p, y)
    np.testing.assert_array_equal(g, [0.0])


def test_gradient_single_interior_value():
    # oracle by hand: J(y1) = (y1^2 + (2-y1)^2)^2, dJ/dy1 at 0.5:
    # 2*(0.25 + 2.25)*(4*0.5 - 4) = -10
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 0.5, 2.0])
    g = first_variation_gradient(p, y)
    np.testing.assert_array_equal(g, [-10.0])
    dt, nt, full = hat_gradient_oracle(p, y)
    np.testing.assert_allclose(full, [-10.0], rtol=1e-12)


def test_gradient_matches_hat_expansion_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_problem(rng)
        y = interior_perturbed(rng, p)
        g = first_variation_gradient(p, y)
        _, _, oracle = hat_gradient_oracle(p, y)
        np.testing.assert_allclose(g, oracle, rtol=1e-10, atol=1e-10)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(15):
        p = random_problem(rng)
        y = interior_perturbed(rng, p)
        g = first_variation_gradient(p, y)
        fd = fd_gradient_oracle(p, y)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)


def test_gradient_is_product_rule_combination():
    # the full gradient weights each factor's variation by the other factor
    rng = np.random.default_rng(13)
    p = random_problem(rng)
    y = interior_perturbed(rng, p)
    dt, nt, full = hat_gradient_oracle(p, y)
    jd = j_delta(p, y)
    jn = j_nabla(p, y)
    np.testing.assert_allclose(first_variation_gradient(p, y),
                               jn * dt + jd * nt, rtol=1e-10, atol=1e-12)


# --- integral Euler-Lagrange reports -------------------------------------


def test_el_reports_on_extremizer():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 1.0, 2.0])
    r1 = el_residual_1(p, y)
    r2 = el_residual_2(p, y)
    # oracle by hand: both factors are 2, each trace entry is
    # jn*2 + jd*2 = 8 with no running-integral contribution on a line
    np.testing.assert_array_equal(r1.residual_trace, [8.0, 8.0])
    assert r1.constant_c == 8.0
    assert r1.deviation == 0.0
    assert r1.passes()
    assert r2.constant_c == 8.0
    assert r2.deviation == 0.0
    assert r1.domain.kind is KappaKind.LOWER
    assert r2.domain.kind is KappaKind.UPPER
    np.testing.assert_array_equal(r1.times, [1.0, 2.0])
    np.testing.assert_array_equal(r2.times, [0.0, 1.0])
    assert r1.j_delta == 2.0 and r1.j_nabla == 2.0


def test_el_reports_on_non_extremizer():
    # oracle by hand at y = (0, 0.5, 2): jd = jn = 2.5,
    # f = (1.0, 3.0) - (0, 2.5*1) and g likewise, trace = (5.0, 15.0)
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 0.5, 2.0])
    r1 = el_residual_1(p, y)
    np.testing.assert_allclose(r1.residual_trace, [5.0, 15.0], rtol=1e-14)
    assert r1.constant_c == pytest.approx(10.0)
    assert r1.deviation == pytest.approx(5.0)
    assert not r1.passes()
    assert not r1.passes(tol=0.4)
    assert r1.passes(tol=0.5)


def test_el_constants_agree_between_forms():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_problem(rng)
        y = interior_perturbed(rng, p)
        r1 = el_residual_1(p, y)
        r2 = el_residual_2(p, y)
        c = max(abs(r1.constant_c), abs(r2.constant_c))
        assert abs(r1.constant_c - r2.constant_c) <= 1e-9 * (1.0 + c)


def test_corollary_traces_on_linear_path():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 1.0, 2.0])
    c1 = el_residual_cor1(p, y)
    c2 = el_residual_cor2(p, y)
    np.testing.assert_array_equal(c1.residual_trace, [2.0, 2.0])
    np.testing.assert_array_equal(c2.residual_trace, [2.0, 2.0])
    assert c1.domain.kind is KappaKind.LOWER
    assert c2.domain.kind is KappaKind.UPPER
    assert c1.passes() and c2.passes()


def test_full_traces_collapse_when_one_factor_is_constant():
    rng = np.random.default_rng(15)
    for _ in range(15):
        ts = random_scale(rng)
        k = 1.0 / (ts.b - ts.a)
        const = catalog(f"const({k!r})")
        dyn = parse_lagrangian("dy^2 + 0.5*y^2")
        y_vals = rng.standard_normal(len(ts))
        # nabla factor constant: full EL2 trace is j_nabla times the
        # delta corollary trace
        p = VariationalProblem(ts, dyn, const, y_vals[0], y_vals[-1])
        y = GridFunction(ts, y_vals)
        r2 = el_residual_2(p, y)
        c2 = el_residual_cor2(p, y)
        np.testing.assert_allclose(
            r2.residual_trace, r2.j_nabla * c2.residual_trace,
            rtol=1e-12, atol=1e-12)
        # delta factor constant: full EL1 trace is j_delta times the
        # nabla corollary trace
        q = VariationalProblem(ts, const, dyn, y_vals[0], y_vals[-1])
        r1 = el_residual_1(q, y)
        c1 = el_residual_cor1(q, y)
        np.testing.assert_allclose(
            r1.residual_trace, r1.j_delta * c1.residual_trace,
            rtol=1e-12, atol=1e-12)


def test_stationary_trace_iff_gradient_vanishes():
    rng = np.random.default_rng(16)
    for _ in range(10):
        p = random_problem(rng)
        y = interior_perturbed(rng, p)
        g = first_variation_gradient(p, y)
        r1 = el_residual_1(p, y)
        gaps = np.diff(p.scale.points)
        # differencing the trace against consecutive cells recovers the
        # gradient components
        trace = r1.residual_trace
        rebuilt = trace[:-1] - trace[1:]
        np.testing.assert_allclose(rebuilt, g, rtol=1e-9, atol=1e-9)


# --- classic pointwise residuals -----------------------------------------


def test_classic_residuals_vanish_on_linear_path():
    ts = make_timescale([0.0, 1.0, 2.0, 3.0])
    p = square_problem([0.0, 1.0, 2.0, 3.0], 3.0)
    y = GridFunction(ts, ts.points.copy())
    delta_res, nabla_res = classic_el_residuals(p, y)
    assert delta_res.domain.kind is KappaKind.UPPER_SQUARED
    assert nabla_res.domain.kind is KappaKind.LOWER_SQUARED
    np.testing.assert_array_equal(delta_res.values, [0.0, 0.0])
    np.testing.assert_array_equal(nabla_res.values, [0.0, 0.0])


def test_classic_residuals_match_direct_loop():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_problem(rng, n_min=5, n_max=9)
        y = interior_perturbed(rng, p)
        delta_res, nabla_res = classic_el_residuals(p, y)
        pts = p.scale.points
        vals = y.values
        yd = delta_derivative(y).values
        yn = nabla_derivative(y).values
        n = len(pts)
        for row, i in enumerate(delta_res.domain.indices):
            d3_here = p.l_delta.d3(pts[i], vals[i + 1], yd[i])
            d3_next = p.l_delta.d3(pts[i + 1], vals[i + 2], yd[i + 1])
            d2_here = p.l_delta.d2(pts[i], vals[i + 1], yd[i])
            mu_i = pts[i + 1] - pts[i]
            want = (d3_next - d3_here) / mu_i - d2_here
            assert delta_res.values[row] == pytest.approx(want, rel=1e-12,
                                                          abs=1e-12)
        for row, i in enumerate(nabla_res.domain.indices):
            d3_here = p.l_nabla.d3(pts[i], vals[i - 1], yn[i - 1])
            d3_prev = p.l_nabla.d3(pts[i - 1], vals[i - 2], yn[i - 2])
            d2_here = p.l_nabla.d2(pts[i], vals[i - 1], yn[i - 1])
            nu_i = pts[i] - pts[i - 1]
            want = (d3_here - d3_prev) / nu_i - d2_here
            assert nabla_res.values[row] == pytest.approx(want, rel=1e-12,
                                                          abs=1e-12)


def test_classic_residuals_need_four_points():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = chord(p)
    with pytest.raises(Exception, match="at least 4"):
        classic_el_residuals(p, y)


def test_differenced_corollary_trace_is_classic_residual():
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = random_problem(rng, n_min=5, n_max=10)
        y = interior_perturbed(rng, p)
        c2 = el_residual_cor2(p, y)
        delta_res, _ = classic_el_residuals(p, y)
        gaps = np.diff(p.scale.points)
        diffed = np.diff(c2.residual_trace) / gaps[:-1]
        np.testing.assert_allclose(diffed, delta_res.values,
                                   rtol=1e-10, atol=1e-10)
        c1 = el_residual_cor1(p, y)
        _, nabla_res = classic_el_residuals(p, y)
        diffed_n = np.diff(c1.residual_trace) / gaps[1:]
        np.testing.assert_allclose(diffed_n, nabla_res.values,
                                   rtol=1e-10, atol=1e-10)


# --- report serialization -------------------------------------------------


def test_el_report_dict_and_json():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 1.0, 2.0])
    r = el_residual_1(p, y)
    d = r.to_dict()
    assert d["which"] == "EL1"
    assert d["domain"] == {"kind": "lower-kappa", "start": 1, "stop": 3}
    assert d["t"] == [1.0, 2.0]
    assert d["residual_trace"] == [8.0, 8.0]
    assert d["constant_c"] == 8.0
    assert d["deviation"] == 0.0
    assert d["j_delta"] == 2.0
    assert d["j_nabla"] == 2.0
    assert json.loads(r.to_json()) == d


def test_el_report_csv():
    p = square_problem([0.0, 1.0, 2.0], 2.0)
    y = GridFunction(p.scale, [0.0, 0.5, 2.0])
    r = el_residual_1(p, y)
    lines = r.to_csv().strip().split("\n")
    assert lines[0] == "t,trace,c,trace_minus_c"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == 5.0
    assert float(row[2]) == 10.0
    assert float(row[3]) == -5.0


def test_chord_endpoints_are_exact():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = random_problem(rng)
        y = chord(p)
        assert y.values[0] == p.alpha
        assert y.values[-1] == p.beta
        g = first_variation_gradient(p, y)
        assert len(g) == len(p.scale) - 2


def test_passes_at_large_n():
    # On a uniform scale with 100,000 points the value and partials passes
    # of the expression pair give, at seeded indices, bit for bit what the
    # per-point callables give there, and the gradient is finite and warns
    # nothing.
    n = 100_000
    ts = uniform_scale(0.0, 1.0, n)
    p = VariationalProblem(ts, parse_lagrangian("dy^2 + y^2 + sin(t)*y"), parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    rng = np.random.default_rng(29)
    vals = ts.points + 0.1 * np.sin(7.0 * ts.points) + 1e-3 * rng.standard_normal(n)
    vals[0], vals[-1] = 0.0, 1.0
    y = GridFunction(ts, vals)
    pts = ts.points
    idx = rng.integers(0, n - 1, 50)
    for L, (t, u, v) in ((p.l_delta, (pts[:-1], vals[1:], delta_derivative(y).values)),
                         (p.l_nabla, (pts[1:], vals[:-1], nabla_derivative(y).values))):
        got = np.array([L.values(t, u, v)[idx], *(d[idx] for d in L.partials(t, u, v))])
        points = list(zip(t[idx].tolist(), u[idx].tolist(), v[idx].tolist()))
        want = np.array([[method(*point) for point in points] for method in (L.eval, L.d2, L.d3)])
        assert got.tobytes() == want.tobytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = first_variation_gradient(p, y)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert g.shape == (n - 2,) and np.isfinite(g).all()


# Densities that fail on part of their domain (three of the pairs that
# tools/fingerprints.py probes), and one of them rebuilt by hand.
LOG_Y = parse_lagrangian("log(y - 0.6) + dy^2")
STACKED_PAIRS = {
    "log": (LOG_Y, parse_lagrangian("dy^2 + 1")),
    "sqrt-pow": (parse_lagrangian("sqrt(dy + 1)"), parse_lagrangian("y^dy")),
    "pow-exp": (parse_lagrangian("(y - 0.7)^1.5 * dy"), parse_lagrangian("exp(3*y) + dy^3")),
    "hand-built": (Lagrangian(LOG_Y.eval, LOG_Y.d2, LOG_Y.d3, LOG_Y.origin), parse_lagrangian("sqrt(y)")),
}


def row_factor(gaps, lag, args):
    """One factor of one row through the public strict pass, or None where it raises."""
    try:
        return _factor(gaps, lag.values(*args))
    except EvalDomainError:
        return None


@pytest.mark.parametrize("pair", sorted(STACKED_PAIRS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_factors_are_nan_exactly_where_a_row_raises(pair, seed):
    # A stacked value pass never raises: a row's factor is nan exactly when
    # that row's own pass raises, and every other row's factor is the row's
    # own, bit for bit.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    gaps = 10.0 ** rng.uniform(-2.0, 0.0, n - 1)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) / float(np.sum(gaps))
    pts[-1] = 1.0
    ld, ln = STACKED_PAIRS[pair]
    p = VariationalProblem(make_timescale(pts), ld, ln, 0.5, 1.0)
    rows = 60
    # Each row a level plus a wave; some rows dip out of a domain somewhere.
    vals = (rng.uniform(0.5, 1.5, (rows, 1)) + rng.uniform(0.0, 0.8, (rows, 1))
            * np.sin(np.pi * rng.integers(1, 4, (rows, 1)) * pts))
    vals[:, 0], vals[:, -1] = 0.5, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _factors(p, _slot_args(p, vals))
    failed = 0
    for lag, got, slot in ((ld, stacked[0], 1), (ln, stacked[1], 2)):
        assert got.shape == (rows,)
        want = [row_factor(p.scale.gaps, lag, _slot_args(p, row)[slot]) for row in vals]
        failed += sum(w is None for w in want)
        assert sum(w is None for w in want) < rows
        for g, w in zip(got.tolist(), want):
            if w is None:
                assert np.isnan(g)
            else:
                assert np.float64(g).tobytes() == np.float64(w).tobytes()
    assert failed > 0


def test_factors_of_one_row_raise_and_of_a_stack_give_nan():
    # Strictness follows the shape of the slot arguments: a 1-D row raises
    # its pass's EvalDomainError, and the same row as a one-row stack gives
    # a nan factor for the density that fails and the row's own for the other.
    p = VariationalProblem(uniform_scale(0.0, 1.0, 5), LOG_Y, parse_lagrangian("dy^2 + 1"), 0.5, 1.0)
    row = np.array([0.5, 0.7, 0.5, 0.8, 1.0])
    with pytest.raises(EvalDomainError, match=r"^log of non-positive value -0.09999999999999998 at \(t=0.25, u=0.5, "):
        _factors(p, _slot_args(p, row))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jd, jn = _factors(p, _slot_args(p, row[None, :]))
    assert jd.shape == jn.shape == (1,)
    assert np.isnan(jd[0])
    assert jn[0] == j_nabla(p, GridFunction(p.scale, row))


# --- registers shared by the two passes ---------------------------------


def counting_each(monkeypatch):
    """Every libm call of the passes to come, as (function, first operand).

    ``^`` runs as ``np.float_power`` and ``exp``, ``log``, ``sin`` and ``cos``
    as ``tsvar.program._map``; both are looked up when a rule runs.
    """
    calls = []
    float_power, each = np.float_power, tsvar.program._map

    def counted_pow(x, z):
        calls.append((pow, x))
        return float_power(x, z)

    def counted(fn, x):
        calls.append((fn, x))
        return each(fn, x)

    monkeypatch.setattr(tsvar.program.np, "float_power", counted_pow)
    monkeypatch.setattr(tsvar.program, "_map", counted)
    return calls


def test_shared_registers_run_once_per_pair_of_passes(monkeypatch):
    # The delta and nabla slots read one quotient array as dy, so ``dy^2``
    # is one register of the pair's tape: its pow runs once per
    # pair of value passes and once per pair of partials passes (the value
    # and the power rule's b^(e-1)), where each pass ran it before.  A
    # register that reads only t runs once per side in a whole solve.
    rng = np.random.default_rng(5)
    pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, 12))))
    p = VariationalProblem(make_timescale(pts), parse_lagrangian("dy^2 + y^2 + sin(t)*y"),
                           parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    vals = chord(p).values + np.sin(pts)
    vals[-1] = 1.0
    args = _slot_args(p, vals)
    quot = args[1][2]
    calls = counting_each(monkeypatch)
    _factors(p, args)
    assert [fn for fn, x in calls if fn is pow and np.array_equal(x, quot)] == [pow]
    del calls[:]
    _Partials(p, args)
    assert [fn for fn, x in calls if fn is pow and np.array_equal(x, quot)] == [pow]

    p = VariationalProblem(p.scale, p.l_delta, parse_lagrangian("dy^2 + cos(t)*y + 1"), 0.0, 1.0)
    del calls[:]
    r = solve(p, SolverConfig(max_iterations=5))
    assert r.iterations == 5
    assert [(fn, x.tobytes()) for fn, x in calls if fn in (math.sin, math.cos)] == [
        (math.sin, pts[:-1].tobytes()), (math.cos, pts[1:].tobytes())]
    assert sum(fn is pow for fn, _ in calls) > 5  # the solve's own passes ran under the count


# Both densities read exp(40*dy), which overflows on large jumps; log(y + 2)
# fails below y = -2 in the nabla density alone.
SHARED_FAILING = ("exp(40*dy) + y^2", "exp(40*dy) + log(y + 2)")


def bits(x):
    """Every float of ``x`` (nested tuples of numbers and arrays) as bytes."""
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return np.asarray(x, dtype=float).tobytes()


def outcome(fn):
    """The bits of what ``fn`` returns, or the type, message and probe point of its error."""
    try:
        return bits(fn())
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc), [getattr(exc, k, None) for k in ("t", "u", "v")]


def solve_bits(p, maximize):
    r = solve(p, SolverConfig(max_iterations=10, maximize=maximize))
    return (r.y.values, r.j_value, r.gradient_norm, r.iterations, r.converged,
            r.el1.residual_trace, r.el2.residual_trace)


def test_pair_that_shares_nothing_runs_as_one_tape(monkeypatch):
    # The catalog pair shares no subtree, yet runs as one tape: each
    # ``_factors`` call, over one row or a block, runs the steps once, and
    # no density runs alone.  The slots pick the tape: a row, a block and a
    # partials pass read the scale's one t and run the tape fixed for it,
    # and the oracle's passes, a t per row, run the unfixed tape.  A pair
    # that reads t has a fixed tape of its own.
    scale = uniform_scale(0.0, 1.0, 11)
    p = VariationalProblem(scale, catalog("kinetic_minus_potential(2)"), catalog("dy_squared"), 0.0, 1.0)
    tape = p._tape
    assert not [r for r in set(tape.outs[0][1]) & set(tape.outs[1][1]) if tape.reads[r] & tsvar.program.COMPUTES]
    q = VariationalProblem(scale, parse_lagrangian("dy^2 + sin(t)*y"), parse_lagrangian("dy^2 + cos(t)"), 0.0, 1.0)
    assert q._fixed is not q._tape
    calls, each = [], tsvar.variational._run

    def counted(*args):
        calls.append(args[0])
        return each(*args)

    def alone(*args, **kwargs):
        raise AssertionError("a density ran alone")

    monkeypatch.setattr(tsvar.variational, "_run", counted)
    monkeypatch.setattr(tsvar.lagrangian, "run", alone)
    for x in (p, q):
        y = chord(x).values + 0.1 * np.sin(np.pi * x.scale.points)
        for vals in (y, np.stack([y, 2.0 * y])):
            del calls[:]
            _factors(x, _slot_args(x, vals))
            assert calls == [x._fixed]
        del calls[:]
        _Partials(x, _slot_args(x, y))
        assert calls == [x._fixed]
        small = VariationalProblem(make_timescale([0.0, 0.3, 0.7, 1.0]), x.l_delta, x.l_nabla, 0.0, 1.0)
        del calls[:]
        brute_force_oracle(small, (-1.0, 2.0), 11)
        assert calls and all(c is small._tape for c in calls)


def test_shared_failing_register_replays_its_failures():
    # A pair sharing a dy-only subtree that overflows or fails gives what the
    # same densities give rebuilt by hand, which share nothing and run point
    # by point: values, gradients, the nan rows of a block, a budgeted solve
    # that meets overflowing trials, an oracle call whose box overflows and
    # leaves log's domain, and every error with its message and probe point.
    parsed = [parse_lagrangian(s) for s in SHARED_FAILING]
    by_hand = [Lagrangian(L.eval, L.d2, L.d3, L.origin) for L in parsed]
    rng = np.random.default_rng(3)
    pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, 10))))
    scale = make_timescale(pts / pts[-1])
    p, q = (VariationalProblem(scale, *pair, 0.0, 0.2) for pair in (parsed, by_hand))
    # 40*dy and exp(40*dy) are one register each of the one tape; the pair's five slots are one fewer than
    # the two densities' six.  The hand-built pair has no tape.
    tape, both = p._tape, set(p._tape.outs[0][1]) & set(p._tape.outs[1][1])
    assert [tape.code[r][0] for r in sorted(both) if tape.reads[r] & tsvar.program.COMPUTES] == ["mul", "exp"]
    assert len(tape.code) < len(p.l_delta.program.code) + len(p.l_nabla.program.code) - 1 and q._tape is None
    base = chord(p).values
    rows = [base, base + np.where(pts == pts[3], 3.0, 0.0), base + np.where(pts == pts[6], 3.0, 0.0),
            base - np.where(pts == pts[4], 0.3, 0.0)]  # two overflowing jumps, then neither
    rows.append(np.array([0.0, -2.5, -2.2, -1.8, -1.4, -1.0, -0.6, -0.3, 0.0, 0.1, 0.2]))  # log fails
    stack = np.array(rows)
    got = [_factors(x, _slot_args(x, stack)) for x in (p, q)]
    assert bits(got[0]) == bits(got[1])
    assert np.isnan(got[0]).tolist() == [[False, True, True, False, False], [False, True, True, False, True]]
    errors = []
    for row in rows:
        for fn in (j_product, first_variation_gradient, lambda x, y: el_residual_1(x, y).residual_trace):
            want, have = (outcome(lambda x=x: fn(x, GridFunction(scale, row))) for x in (q, p))
            assert have == want
            errors += [have[1]] if isinstance(have[0], type) else []
    assert any(e.startswith("overflow at") for e in errors)
    assert any(e.startswith("log of non-positive value") for e in errors)
    for maximize in (False, True):
        want, have = (outcome(lambda x=x: solve_bits(x, maximize)) for x in (q, p))
        assert have == want
    box = VariationalProblem(make_timescale([0.0, 0.1, 0.25, 0.3]), parsed[0], parsed[1], 0.0, 0.5)
    boxed = VariationalProblem(box.scale, *by_hand, 0.0, 0.5)
    want, have = (outcome(lambda x=x: brute_force_oracle(x, (-3.0, 3.0), 15).values) for x in (boxed, box))
    assert have == want and not isinstance(have[0], type)


# --- overflow inside the EL reports, without a RuntimeWarning ------------


def test_overflowing_el_running_sums_warn_nothing():
    # The delta density's state partial is 1e308, so the running sum of its
    # terms overflows at the last point: the EL1 and EL2 trace runs into
    # -inf and its deviation is nan, which fails, and no RuntimeWarning
    # escapes (the suite turns one into an error).  The corollary traces
    # read no overflowed sum and stay finite.  The CSV's
    # trace - c is nan where the trace and c are both -inf.
    p = VariationalProblem(make_timescale([0.0, 1.0, 2.0]), parse_lagrangian("1e308*y"),
                           parse_lagrangian("dy^2 + 1"), 0.0, 1.0)
    y = chord(p)
    r = solve(p, SolverConfig(max_iterations=0))
    assert r.iterations == 0 and not r.converged
    for report in (el_residual_1(p, y), el_residual_2(p, y), r.el1, r.el2):
        assert report.residual_trace.tolist() == [1.5e308, -math.inf]
        assert report.constant_c == -math.inf
        assert math.isnan(report.deviation) and not report.passes()
    cor1, cor2 = el_residual_cor1(p, y), el_residual_cor2(p, y)
    assert (cor1.residual_trace.tolist(), cor1.deviation) == ([1.0, 1.0], 0.0)
    assert (cor2.residual_trace.tolist(), cor2.deviation) == ([0.0, -1e308], 1e308 / 2)
    assert el_residual_1(p, y).to_csv() == "t,trace,c,trace_minus_c\n1,1.5e+308,-inf,inf\n2,-inf,-inf,nan\n"


def test_overflowing_classic_residual_raises_without_warning():
    # d3Ld = 1.5e308*sin(t) is about 1.5e308 at t = 1.5 and -1.5e308 at
    # t = 4.5, so their difference in the delta residual overflows: the
    # residual is not finite and PartialGridFunction rejects it, with no
    # RuntimeWarning.
    scale = make_timescale([0.0, 1.5, 4.5, 6.0, 7.0])
    p = VariationalProblem(scale, parse_lagrangian("1.5e308*sin(t)*dy"), parse_lagrangian("dy^2"), 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^non-finite value at domain position 1$"):
        classic_el_residuals(p, GridFunction(scale, [0.0, 0.1, -0.1, 0.1, 0.0]))
