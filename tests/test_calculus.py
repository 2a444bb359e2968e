import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsvar import (
    GridFunction,
    KappaKind,
    PartialGridFunction,
    c1_diamond_norm,
    check_derivative_relation,
    check_integral_conversion,
    check_integral_splitting,
    check_parts_formulas,
    compose_rho,
    compose_sigma,
    delta_derivative,
    delta_integral,
    kappa_set,
    make_timescale,
    nabla_derivative,
    nabla_integral,
)
from tsvar import calculus

import identities as reference
from conftest import hat, random_grid, random_scale


@st.composite
def scale_and_values(draw, n_funcs=1):
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                         min_size=2, max_size=15))
    start = draw(st.floats(min_value=-10, max_value=10))
    ts = make_timescale(start + np.concatenate(([0.0], np.cumsum(gaps))))
    val = st.floats(min_value=-100, max_value=100)
    funcs = [GridFunction(ts, np.array(draw(
        st.lists(val, min_size=len(ts), max_size=len(ts)))))
        for _ in range(n_funcs)]
    return (ts, *funcs)


# --- grid functions ---------------------------------------------------


def test_grid_function_validation():
    ts = make_timescale([0.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="expected 3"):
        GridFunction(ts, [0.0, 1.0])
    with pytest.raises(ValueError, match="non-finite value at index 1"):
        GridFunction(ts, [0.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="^non-finite value at index 1$"):
        GridFunction(ts, [0.0, -np.inf, np.nan])
    with pytest.raises(ValueError, match="^expected an object with exactly the keys 'scale' and 'values'$"):
        GridFunction.from_dict({"scale": [0, 1, 2]})
    domain = kappa_set(make_timescale([0.0, 1.0, 3.0, 4.0]), KappaKind.UPPER)
    with pytest.raises(ValueError, match=r"^need one value per domain index: expected 3, got \(2,\)$"):
        PartialGridFunction(ts, domain, [0.0, 1.0])
    with pytest.raises(ValueError, match="^non-finite value at domain position 1$"):
        PartialGridFunction(ts, domain, [0.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="^non-finite value at domain position 1$"):
        PartialGridFunction(ts, domain, [0.0, np.nan, np.inf])


@pytest.mark.parametrize("values, message", [
    ([False, "1", True], "value at index 0 must be a real number, got False"),
    ([0.0, "1", 2.0], "value at index 1 must be a real number, got '1'"),
    (np.array([False, True, True]), "need an array of integers or floats, got dtype bool"),
    (np.array([0.0, 1.0, None]), "need an array of integers or floats, got dtype object"),
], ids=["bools", "string", "bool-array", "object-array"])
def test_grid_values_must_be_numbers(values, message):
    # The rule of the time scale's points: a bool or a numeric string is not
    # a value, in a list as in an array, for a grid function, a partial one
    # and one read from a dict.
    ts = make_timescale([0.0, 1.0, 3.0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GridFunction(ts, values)
    with pytest.raises(ValueError, match=f"^{re.escape(message.replace('index', 'domain position'))}$"):
        PartialGridFunction(ts, kappa_set(ts, KappaKind.FULL), values)
    if isinstance(values, list):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridFunction.from_dict({"scale": [0.0, 1.0, 3.0], "values": values})
    assert GridFunction(ts, np.array([0, 1, 2])).values.tolist() == [0.0, 1.0, 2.0]


def test_grid_function_values_read_only():
    ts = make_timescale([0.0, 1.0, 3.0])
    y = GridFunction(ts, [0.0, 1.0, 9.0])
    with pytest.raises((ValueError, RuntimeError)):
        y.values[0] = 5.0


def test_grid_function_sample():
    ts = make_timescale([0.0, 1.0, 3.0])
    y = GridFunction.sample(ts, lambda t: t * t)
    np.testing.assert_array_equal(y.values, [0.0, 1.0, 9.0])


def test_grid_function_json_round_trip():
    ts = make_timescale([0.0, 0.1, 1.0 / 3.0])
    y = GridFunction(ts, [0.3, -1.7, 2.5e-8])
    again = GridFunction.from_json(y.to_json())
    np.testing.assert_array_equal(again.values, y.values)
    np.testing.assert_array_equal(again.scale.points, ts.points)


# --- derivatives -------------------------------------------------------


def test_delta_derivative_example():
    # difference-quotient oracle on t^2 over {0,1,3}:
    # (1-0)/1 = 1, (9-1)/2 = 4
    ts = make_timescale([0.0, 1.0, 3.0])
    y = GridFunction(ts, [0.0, 1.0, 9.0])
    d = delta_derivative(y)
    np.testing.assert_array_equal(d.values, [1.0, 4.0])
    assert d.domain.kind is KappaKind.UPPER
    assert list(d.domain.indices) == [0, 1]
    np.testing.assert_array_equal(d.times, [0.0, 1.0])


def test_nabla_derivative_example():
    # backward quotients at points 1 and 3 are the same two numbers
    ts = make_timescale([0.0, 1.0, 3.0])
    y = GridFunction(ts, [0.0, 1.0, 9.0])
    d = nabla_derivative(y)
    np.testing.assert_array_equal(d.values, [1.0, 4.0])
    assert d.domain.kind is KappaKind.LOWER
    assert list(d.domain.indices) == [1, 2]
    np.testing.assert_array_equal(d.times, [1.0, 3.0])


def test_partial_grid_function_value_at():
    ts = make_timescale([0.0, 1.0, 3.0])
    d = nabla_derivative(GridFunction(ts, [0.0, 1.0, 9.0]))
    assert d.value_at(1) == 1.0
    assert d.value_at(2) == 4.0
    with pytest.raises(IndexError):
        d.value_at(0)
    assert d.sup_norm() == 4.0


def test_value_at_takes_numpy_integers_and_rejects_non_indices():
    ts = make_timescale([0.0, 1.0, 3.0, 4.0])
    d = delta_derivative(GridFunction(ts, [0.0, 1.0, 9.0, 16.0]))
    assert d.value_at(np.int64(1)) == d.value_at(1) == 4.0
    for index in (1.5, True):
        with pytest.raises(TypeError, match=f"^point index must be an integer, got {index!r}$"):
            d.value_at(index)


def test_derivative_of_constant_is_zero():
    ts = make_timescale([0.0, 0.5, 1.0, 4.0])
    y = GridFunction(ts, [3.0] * 4)
    assert np.all(delta_derivative(y).values == 0.0)
    assert np.all(nabla_derivative(y).values == 0.0)


@given(scale_and_values())
def test_derivative_linearity(tf):
    ts, f = tf
    g = GridFunction(ts, np.arange(len(ts), dtype=float))
    lhs = delta_derivative(GridFunction(ts, 2.0 * f.values + g.values)).values
    rhs = 2.0 * delta_derivative(f).values + delta_derivative(g).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# --- integrals ---------------------------------------------------------


def test_delta_integral_example():
    # weighted-sum oracle: mu_0*f(0) + mu_1*f(1) = 1*0 + 2*1 = 2
    ts = make_timescale([0.0, 1.0, 3.0])
    f = GridFunction(ts, [0.0, 1.0, 9.0])
    gaps = np.diff(ts.points)
    oracle = float(np.dot(gaps, f.values[:-1]))
    assert oracle == 2.0
    assert delta_integral(f) == 2.0


def test_nabla_integral_example():
    # weighted-sum oracle: nu_1*f(1) + nu_2*f(2) = 1*1 + 2*9 = 19
    ts = make_timescale([0.0, 1.0, 3.0])
    f = GridFunction(ts, [0.0, 1.0, 9.0])
    gaps = np.diff(ts.points)
    oracle = float(np.dot(gaps, f.values[1:]))
    assert oracle == 19.0
    assert nabla_integral(f) == 19.0


def test_integral_sub_ranges():
    ts = make_timescale([0.0, 1.0, 3.0, 7.0])
    f = GridFunction(ts, [2.0, -1.0, 5.0, 0.5])
    assert delta_integral(f, 0, 1) == 2.0
    assert delta_integral(f, 1, 3) == -1.0 * 2.0 + 5.0 * 4.0
    assert nabla_integral(f, 1, 3) == 5.0 * 2.0 + 0.5 * 4.0  # nu weights
    assert nabla_integral(f, 0, 2) == 1.0 * -1.0 + 2.0 * 5.0
    assert delta_integral(f, 2, 2) == 0.0
    assert nabla_integral(f, 2, 2) == 0.0


def test_integral_bounds_checking():
    ts = make_timescale([0.0, 1.0, 3.0])
    f = GridFunction(ts, [0.0, 1.0, 9.0])
    with pytest.raises(ValueError):
        delta_integral(f, 2, 1)
    with pytest.raises(IndexError):
        delta_integral(f, 0, 5)
    with pytest.raises(IndexError):
        nabla_integral(f, -1, 2)


@pytest.mark.parametrize("integral", [delta_integral, nabla_integral])
@pytest.mark.parametrize("start, stop", [(True, 3), (0, True), (np.True_, 3), (1.0, 3)],
                         ids=["bool-start", "bool-stop", "numpy-bool-start", "float-start"])
def test_integral_bounds_follow_the_point_index_rule(integral, start, stop):
    f = GridFunction(make_timescale([0.0, 1.0, 3.0, 4.0]), [0.0, 1.0, 9.0, 16.0])
    bad = stop if start == 0 else start
    with pytest.raises(TypeError, match=f"^point index must be an integer, got {bad!r}$"):
        integral(f, start, stop)


def test_integral_bounds_take_numpy_integers():
    f = GridFunction(make_timescale([0.0, 1.0, 3.0, 4.0]), [0.0, 1.0, 9.0, 16.0])
    for integral in (delta_integral, nabla_integral):
        assert integral(f, np.int64(1), np.int64(3)) == integral(f, 1, 3)


@given(scale_and_values(n_funcs=2))
def test_integral_linearity(tfg):
    ts, f, g = tfg
    comb = GridFunction(ts, 2.5 * f.values - 0.5 * g.values)
    for integral in (delta_integral, nabla_integral):
        lhs = integral(comb)
        rhs = 2.5 * integral(f) - 0.5 * integral(g)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


@given(scale_and_values())
def test_fundamental_theorem(tf):
    ts, y = tf
    n = len(ts)
    jump = y.values[-1] - y.values[0]
    d = np.append(delta_derivative(y).values, 0.0)
    lhs = delta_integral(GridFunction(ts, d))
    assert abs(lhs - jump) <= 1e-9 * (1.0 + abs(jump))
    dn = np.concatenate(([0.0], nabla_derivative(y).values))
    assert abs(nabla_integral(GridFunction(ts, dn)) - jump) \
        <= 1e-9 * (1.0 + abs(jump))


def test_integral_additivity_over_split_point():
    ts = make_timescale([0.0, 1.0, 3.0, 7.0])
    f = GridFunction(ts, [2.0, -1.0, 5.0, 0.5])
    assert delta_integral(f, 0, 3) == \
        delta_integral(f, 0, 2) + delta_integral(f, 2, 3)
    assert nabla_integral(f, 0, 3) == \
        nabla_integral(f, 0, 2) + nabla_integral(f, 2, 3)


# --- shift composition -------------------------------------------------


def test_compose_sigma_and_rho():
    ts = make_timescale([0.0, 1.0, 3.0])
    f = GridFunction(ts, ts.points.copy())
    np.testing.assert_array_equal(compose_sigma(f).values, [1.0, 3.0, 3.0])
    np.testing.assert_array_equal(compose_rho(f).values, [0.0, 0.0, 1.0])


# --- identity checks ---------------------------------------------------


def test_parts_formulas_hand_example():
    # f = g = t on {0,1,2}: both sides of the first formula equal 3
    ts = make_timescale([0.0, 1.0, 2.0])
    f = GridFunction(ts, ts.points.copy())
    res = check_parts_formulas(f, f)
    assert len(res) == 4
    assert max(res) == 0.0


def test_parts_formulas_reject_mixed_scales():
    f = GridFunction(make_timescale([0.0, 1.0, 2.0]), [0.0, 1.0, 2.0])
    g = GridFunction(make_timescale([0.0, 1.0, 3.0]), [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^grid functions live on different scales$"):
        check_parts_formulas(f, g)


def test_parts_formulas_constant_f():
    ts = make_timescale([0.0, 0.3, 1.1, 4.0])
    f = GridFunction(ts, np.ones(4))
    g = GridFunction(ts, [0.5, -2.0, 3.5, 1.0])
    assert max(check_parts_formulas(f, g)) <= 1e-12


@given(scale_and_values(n_funcs=2))
def test_parts_formulas_random(tfg):
    ts, f, g = tfg
    assert max(check_parts_formulas(f, g)) <= 1e-10


@given(scale_and_values())
def test_derivative_relation_is_exact(tf):
    ts, f = tf
    res = check_derivative_relation(f)
    assert res == (0.0, 0.0)


@given(scale_and_values())
def test_integral_conversion_is_exact(tf):
    ts, f = tf
    assert check_integral_conversion(f) == (0.0, 0.0)


def test_integral_conversion_hand_example():
    # delta integral of t^2 over {0,1,3} is 2; the rho-shifted nabla
    # integral gives nu_1*f(rho(1)) + nu_2*f(rho(2)) = 0 + 2*1 = 2
    ts = make_timescale([0.0, 1.0, 3.0])
    f = GridFunction(ts, [0.0, 1.0, 9.0])
    shifted = compose_rho(f)
    assert nabla_integral(shifted) == delta_integral(f) == 2.0


@given(scale_and_values())
def test_integral_splitting_random(tf):
    ts, f = tf
    res = check_integral_splitting(f)
    assert len(res) == 4
    assert max(res) <= 1e-10


def test_integral_splitting_hand_example():
    # peeling the last cell off the delta integral over {0,1,3}:
    # full 2 = sub-integral 0 + (3-1)*f(1) = 2
    ts = make_timescale([0.0, 1.0, 3.0])
    f = GridFunction(ts, [0.0, 1.0, 9.0])
    assert delta_integral(f) == delta_integral(f, 0, 1) + 2.0 * f.values[1]
    # nabla keeps the endpoint value instead: 19 = 1 + 2*9
    assert nabla_integral(f) == nabla_integral(f, 0, 1) + 2.0 * f.values[2]
    assert max(check_integral_splitting(f)) == 0.0


UNIFORM_21 = np.linspace(0.0, 1.0, 21)


@pytest.mark.parametrize("points", [
    np.sort(np.concatenate((UNIFORM_21, UNIFORM_21[[1, 4, 9]] + 1e-11, UNIFORM_21[[13, 20]] - 1e-11))),
    np.concatenate(([0.0], np.cumsum(np.tile([1e3, 1e-11], 8)))),
], ids=["uniform-21-and-five-close-points", "gaps-1e3-beside-1e-11"])
def test_identities_next_to_1e_11_gaps(points):
    # Gaps of 1e-11, ten times the duplicate tolerance, beside gaps of 0.05
    # or of 1e3: every identity still holds to 1e-10 relative.
    ts = make_timescale(points)
    assert np.min(ts.gaps) < 2e-11
    rng = np.random.default_rng(17)
    for _ in range(50):
        f, g = random_grid(rng, ts), random_grid(rng, ts)
        residuals = (check_parts_formulas(f, g) + check_derivative_relation(f)
                     + check_integral_conversion(f) + check_integral_splitting(f))
        assert max(residuals) <= 1e-10


def identity_outcomes(checks, f, g) -> list[str]:
    """Every residual tuple and both norms, by ``repr``, or the error raised instead."""
    calls = (
        lambda: checks.check_parts_formulas(f, g),
        lambda: checks.check_derivative_relation(f),
        lambda: checks.check_integral_conversion(f),
        lambda: checks.check_integral_splitting(f),
        lambda: (checks.c1_diamond_norm(f), checks.c1_diamond_norm(g)),
    )
    out = []
    for errors in ("ignore", "raise"):
        with np.errstate(all=errors):
            for call in calls:
                try:
                    out.append(repr(call()))
                except (ValueError, FloatingPointError) as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
    return out


@st.composite
def identity_inputs(draw):
    # A seeded draw, so that a failure shrinks in a few steps.
    n = draw(st.integers(min_value=3, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    gaps = 10.0 ** rng.uniform(draw(st.floats(min_value=-11.0, max_value=3.0)), 3.0, n - 1)
    try:
        ts = make_timescale(rng.uniform(-10.0, 10.0) + np.concatenate(([0.0], np.cumsum(gaps))))
    except ValueError:  # a 1e-11 gap lost to rounding in the sum
        assume(False)
    # Up to 1e300, so that products, then difference quotients, overflow.
    magnitude = draw(st.sampled_from([1.0, 1e5, 1e150, 1e300]))
    fv, gv = magnitude * rng.standard_normal((2, n))
    return GridFunction(ts, fv), GridFunction(ts, gv)


@settings(max_examples=400)
@given(identity_inputs())
def test_identity_checks_match_the_object_built_reference(fg):
    f, g = fg
    assert identity_outcomes(calculus, f, g) == identity_outcomes(reference, f, g)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [11, 21, 41, 81, 161])
def test_derivatives_on_a_q_scale_are_jacksons(n, a):
    # The quantum scale {a q^k : k = 0..n-1}, q = 2^(1/(n-1)), has sigma(t) = qt
    # and rho(t) = t/q, so mu(t) = (q - 1) t, the delta derivative is Jackson's
    # q-derivative and the nabla derivative its backward form, to rounding
    # relative to each array's largest entry.
    q = 2.0 ** (1.0 / (n - 1))
    t = a * q ** np.arange(n)
    ts = make_timescale(t)
    assert np.max(np.abs(ts.gaps - (q - 1.0) * t[:-1]) / ts.gaps) <= 1e-12
    up, down = t[:-1], t[1:]
    for f in (np.sin, np.exp, lambda x: x**3 - 2.0 * x, np.log):
        y = GridFunction(ts, f(t))
        jackson = (f(q * up) - f(up)) / ((q - 1.0) * up)
        backward = (f(down) - f(down / q)) / ((1.0 - 1.0 / q) * down)
        for got, want in ((delta_derivative(y).values, jackson), (nabla_derivative(y).values, backward)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- norm ---------------------------------------------------------------


def c1_norm_oracle(y):
    """Direct evaluation of the four norm terms."""
    vals = y.values
    sig_part = float(np.max(np.abs(vals[2:])))
    rho_part = float(np.max(np.abs(vals[:-2])))
    dd = float(np.max(np.abs(delta_derivative(y).values)))
    dn = float(np.max(np.abs(nabla_derivative(y).values)))
    return sig_part + rho_part + dd + dn


def test_c1_norm_linear_example():
    # frozen from c1_norm_oracle: |y(sigma)| peaks at 2, |y(rho)| at 0,
    # both derivative sups are 1, total 4
    ts = make_timescale([0.0, 1.0, 2.0])
    y = GridFunction(ts, ts.points.copy())
    assert c1_norm_oracle(y) == 4.0
    assert c1_diamond_norm(y) == 4.0


def test_c1_norm_zero_function():
    ts = make_timescale([0.0, 1.0, 2.0, 5.0])
    assert c1_diamond_norm(GridFunction(ts, np.zeros(4))) == 0.0


def test_c1_norm_constant_function():
    ts = make_timescale([0.0, 1.0, 2.0, 5.0])
    assert c1_diamond_norm(GridFunction(ts, np.full(4, -3.0))) == 6.0


@given(scale_and_values(n_funcs=2))
def test_c1_norm_is_a_norm(tfg):
    ts, f, g = tfg
    nf = c1_diamond_norm(f)
    ng = c1_diamond_norm(g)
    assert nf >= 0.0
    # absolute homogeneity is exact for a power-of-two factor
    assert c1_diamond_norm(GridFunction(ts, -2.0 * f.values)) == 2.0 * nf
    tri = c1_diamond_norm(GridFunction(ts, f.values + g.values))
    assert tri <= nf + ng + 1e-12 * (1.0 + nf + ng)


@given(scale_and_values())
def test_c1_norm_matches_oracle(tf):
    ts, f = tf
    assert c1_diamond_norm(f) == c1_norm_oracle(f)


# --- hat functions as variations ---------------------------------------


def test_hat_derivatives():
    ts = make_timescale([0.0, 1.0, 3.0, 4.0])
    e = hat(ts, 1)
    np.testing.assert_array_equal(delta_derivative(e).values,
                                  [1.0, -0.5, 0.0])
    np.testing.assert_array_equal(nabla_derivative(e).values,
                                  [1.0, -0.5, 0.0])


def test_hat_pairing_matrix_has_constants_as_kernel():
    # the matrix that pairs interior hat variations with an upper-kappa
    # density has a one-dimensional kernel spanned by the constants
    rng = np.random.default_rng(7)
    for _ in range(10):
        ts = random_scale(rng, n_min=5, n_max=12)
        n = len(ts)
        gaps = np.diff(ts.points)
        rows = [gaps * delta_derivative(hat(ts, k)).values
                for k in range(1, n - 1)]
        m = np.array(rows)
        assert m.shape == (n - 2, n - 1)
        s = np.linalg.svd(m, compute_uv=False)
        assert s.min() > 1e-10 * s.max()
        ones = np.ones(n - 1)
        assert np.max(np.abs(m @ ones)) <= 1e-10
