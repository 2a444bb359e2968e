import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dual import Dual, DomainError, cos, exp, log, power, sin, sqrt


finite = st.floats(min_value=-50, max_value=50)


def test_arithmetic_values_and_tangents():
    x = Dual(3.0, 1.0)
    y = Dual(2.0, 0.0)
    assert (x + y).val == 5.0 and (x + y).dot == 1.0
    assert (x - y).val == 1.0 and (x - y).dot == 1.0
    assert (x * y).val == 6.0 and (x * y).dot == 2.0
    q = x / y
    assert q.val == 1.5 and q.dot == 0.5
    assert (-x).val == -3.0 and (-x).dot == -1.0


def test_mixed_float_operands():
    x = Dual(3.0, 2.0)
    assert (1.0 + x).dot == 2.0
    assert (1.0 - x).dot == -2.0
    assert (4.0 * x).dot == 8.0
    assert (6.0 / x).val == 2.0
    assert (6.0 / x).dot == pytest.approx(-6.0 * 2.0 / 9.0)


def test_division_by_zero_raises():
    with pytest.raises(DomainError):
        Dual(1.0, 0.0) / Dual(0.0, 1.0)
    with pytest.raises(DomainError):
        1.0 / Dual(0.0, 0.0)


@given(finite)
def test_product_rule(a):
    x = Dual(a, 1.0)
    p = x * x
    assert p.val == a * a
    assert p.dot == 2.0 * a


def test_elementary_functions_match_math():
    x = Dual(0.7, 1.0)
    assert sin(x).val == math.sin(0.7)
    assert sin(x).dot == math.cos(0.7)
    assert cos(x).dot == -math.sin(0.7)
    assert exp(x).dot == math.exp(0.7)
    assert log(x).dot == pytest.approx(1.0 / 0.7)
    assert sqrt(x).dot == pytest.approx(0.5 / math.sqrt(0.7))
    # floats pass straight through
    assert sin(0.7) == math.sin(0.7)
    assert log(2.0) == math.log(2.0)


@pytest.mark.parametrize("fn", [sin, cos])
@pytest.mark.parametrize("x", [math.inf, -math.inf, Dual(math.inf, 1.0)])
def test_trig_of_infinity_is_a_domain_error(fn, x):
    # math.sin/math.cos raise a bare ValueError here; the dual layer names it
    with pytest.raises(DomainError, match=f"{fn.__name__} of infinite value"):
        fn(x)


def test_chain_rule_through_composition():
    x = Dual(0.3, 1.0)
    f = sin(exp(x))
    assert f.val == pytest.approx(math.sin(math.exp(0.3)))
    assert f.dot == pytest.approx(math.cos(math.exp(0.3)) * math.exp(0.3))


def test_log_domain():
    with pytest.raises(DomainError):
        log(Dual(0.0, 1.0))
    with pytest.raises(DomainError):
        log(-1.0)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        sqrt(Dual(-1.0, 0.0))
    # derivative of sqrt blows up at zero
    with pytest.raises(DomainError):
        sqrt(Dual(0.0, 1.0))
    assert sqrt(Dual(0.0, 0.0)).val == 0.0
    assert sqrt(4.0) == 2.0


def test_integer_powers_allow_negative_base():
    x = Dual(-2.0, 1.0)
    p = power(x, 3.0)
    assert p.val == -8.0
    assert p.dot == 12.0
    assert power(-2.0, 2.0) == 4.0


def test_fractional_power_of_negative_base_raises():
    with pytest.raises(DomainError):
        power(Dual(-2.0, 1.0), 0.5)
    with pytest.raises(DomainError):
        power(-2.0, 0.5)


def test_zero_base_powers():
    assert power(Dual(0.0, 1.0), 2.0).val == 0.0
    assert power(Dual(0.0, 1.0), 2.0).dot == 0.0
    with pytest.raises(DomainError):
        power(Dual(0.0, 1.0), -1.0)
    # d/dx x^1 at 0 is 1
    assert power(Dual(0.0, 1.0), 1.0).dot == 1.0
    # d/dx x^0.5 at 0 is unbounded
    with pytest.raises(DomainError):
        power(Dual(0.0, 1.0), 0.5)


def test_dual_exponent_requires_positive_base():
    b = Dual(2.0, 1.0)
    e = Dual(3.0, 1.0)
    p = power(b, e)
    # d/dx x^x style: value 8, derivative 8*(ln 2 + 3/2)
    assert p.val == 8.0
    assert p.dot == pytest.approx(8.0 * (math.log(2.0) + 1.5))
    with pytest.raises(DomainError):
        power(Dual(-2.0, 0.0), Dual(2.0, 1.0))


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_power_matches_exp_log_form(b, c):
    direct = power(Dual(b, 1.0), c)
    via_exp = exp(Dual(c, 0.0) * log(Dual(b, 1.0)))
    assert direct.val == pytest.approx(via_exp.val, rel=1e-12)
    assert direct.dot == pytest.approx(via_exp.dot, rel=1e-12, abs=1e-12)


def test_dual_is_immutable():
    x = Dual(1.0, 2.0)
    with pytest.raises(AttributeError):
        x.val = 3.0
