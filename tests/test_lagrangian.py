import math
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsvar import EvalDomainError, ParseError, catalog, dual, parse_lagrangian
from tsvar.dual import Dual
from tsvar.lagrangian import (
    CATALOG_BUILDERS,
    FUNCTIONS,
    Lagrangian,
    parse,
    register_catalog,
    to_source,
)


PROBES = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-0.5, 0.7, -1.3), (2.0, -4.0, 0.25)]


# --- evaluation --------------------------------------------------------


def test_eval_and_partials_quadratic_velocity():
    # oracle by hand: v^2 at v=3 is 9, dL/du = 0, dL/dv = 2v = 6
    L = parse_lagrangian("dy^2")
    assert L.eval(0.0, 5.0, 3.0) == 9.0
    assert L.d2(0.0, 5.0, 3.0) == 0.0
    assert L.d3(0.0, 5.0, 3.0) == 6.0


def test_eval_and_partials_mixed_term():
    # oracle by hand: u*v + t at (2,3,4) = 14; dL/du = v = 4; dL/dv = u = 3
    L = parse_lagrangian("y*dy + t")
    assert L.eval(2.0, 3.0, 4.0) == 14.0
    assert L.d2(2.0, 3.0, 4.0) == 4.0
    assert L.d3(2.0, 3.0, 4.0) == 3.0


def test_partials_of_t_only_terms_vanish():
    L = parse_lagrangian("sin(t) + t^3")
    assert L.d2(2.0, 9.0, 9.0) == 0.0
    assert L.d3(2.0, 9.0, 9.0) == 0.0
    assert L.eval(2.0, 9.0, 9.0) == math.sin(2.0) + 8.0


def test_origin_is_kept():
    assert parse_lagrangian("y*dy + t").origin == "y*dy + t"
    assert catalog("dy_squared").origin == "dy_squared"


@pytest.mark.parametrize("source,expected", [
    ("2^3^2", 512.0),        # right-associative power
    ("-2^2", -4.0),          # unary minus binds looser than power
    ("2^-1", 0.5),           # exponent may be negated
    ("2*3 + 4*5", 26.0),
    ("2 - 3 - 4", -5.0),     # left-associative subtraction
    ("12 / 4 / 3", 1.0),
    ("-(2 + 3)", -5.0),
    ("((7))", 7.0),
    (" 1.5e2 ", 150.0),
    ("2e-2", 0.02),
])
def test_constant_expressions(source, expected):
    assert parse_lagrangian(source).eval(0.0, 0.0, 0.0) == expected


def test_whitespace_is_insensitive():
    a = parse_lagrangian("y*dy+t")
    b = parse_lagrangian("  y * dy\t+ t ")
    for p in PROBES:
        assert a.eval(*p) == b.eval(*p)


# --- derivative seeding via duals --------------------------------------


def fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.mark.parametrize("source", [
    "dy^2 + y^2",
    "sin(y)*cos(dy) + exp(0.1*y)",
    "log(2 + y^2) + sqrt(1 + dy^2)",
    "t*y*dy",
    "y^3 - 2*y*dy + dy^3",
    "dy^2.5",
])
def test_partials_match_finite_differences(source):
    L = parse_lagrangian(source)
    for (t, u, v) in [(0.3, 0.8, 1.1), (1.0, 2.0, 0.5), (-1.0, -0.4, 2.0)]:
        du = fd(lambda x: L.eval(t, x, v), u)
        dv = fd(lambda x: L.eval(t, u, x), v)
        assert L.d2(t, u, v) == pytest.approx(du, rel=1e-6, abs=1e-6)
        assert L.d3(t, u, v) == pytest.approx(dv, rel=1e-6, abs=1e-6)


def test_dual_exponent_derivative():
    L = parse_lagrangian("y^dy")
    t, u, v = 0.0, 2.0, 3.0
    assert L.eval(t, u, v) == 8.0
    assert L.d2(t, u, v) == pytest.approx(v * u ** (v - 1.0))
    assert L.d3(t, u, v) == pytest.approx(8.0 * math.log(2.0))


# --- domain errors ------------------------------------------------------


def test_domain_error_reports_the_point():
    L = parse_lagrangian("log(y)")
    with pytest.raises(EvalDomainError) as exc:
        L.eval(0.5, 0.0, 2.0)
    assert exc.value.t == 0.5
    assert exc.value.u == 0.0
    assert exc.value.v == 2.0
    assert "t=0.5" in str(exc.value)


@pytest.mark.parametrize("source,point", [
    ("log(y)", (0.0, -1.0, 0.0)),
    ("sqrt(dy)", (0.0, 0.0, -4.0)),
    ("1/dy", (0.0, 0.0, 0.0)),
    ("y^0.5", (0.0, -2.0, 0.0)),
    ("y^-1", (0.0, 0.0, 1.0)),
    ("exp(y)", (0.0, 1e9, 0.0)),
    ("y/(dy-1)", (0.0, 2.0, 1.0)),
    ("sin(1e999*y)", (0.0, 1.0, 0.0)),
    ("cos(y*1e999)", (0.0, -1.0, 0.0)),
])
def test_domain_errors(source, point):
    # The value and both seeded partials fail at the same probe point; a
    # quotient fails as a division by zero over floats and over duals alike.
    L = parse_lagrangian(source)
    t, u, v = point
    for method in (L.eval, L.d2, L.d3):
        with pytest.raises(EvalDomainError) as exc:
            method(*point)
        assert (exc.value.t, exc.value.u, exc.value.v) == point
        assert str(exc.value).endswith(f" at (t={t!r}, u={u!r}, v={v!r})")
        if "/" in source:
            assert str(exc.value).startswith("division by zero at ")


def test_variable_exponent_over_negative_base():
    # the plain value (-1)^(-1) exists, but its derivative in the
    # exponent direction does not
    L = parse_lagrangian("dy^dy")
    assert L.eval(0.0, 0.0, -1.0) == -1.0
    with pytest.raises(EvalDomainError):
        L.d3(0.0, 0.0, -1.0)


def test_partials_hit_domain_errors_too():
    L = parse_lagrangian("sqrt(y)")
    assert L.eval(0.0, 0.0, 0.0) == 0.0
    with pytest.raises(EvalDomainError):
        L.d2(0.0, 0.0, 0.0)
    # the v-seed does not touch the sqrt argument
    assert L.d3(0.0, 0.0, 0.0) == 0.0


# --- syntax errors -------------------------------------------------------


@pytest.mark.parametrize("source,position", [
    ("y +", 3),
    ("y ++ dy", 4),
    ("", 0),
    ("(y", 2),
    ("y % t", 3),
    ("sin y", 3),
    ("3 4", 3),
])
def test_syntax_error_offsets(source, position):
    with pytest.raises(ParseError) as exc:
        parse_lagrangian(source)
    assert exc.value.position == position
    assert f"offset {position}" in str(exc.value)


def test_trailing_junk_is_rejected():
    with pytest.raises(ParseError):
        parse_lagrangian("y + 1 )")


def test_unknown_names():
    with pytest.raises(ParseError, match="unknown identifier 'z'"):
        parse_lagrangian("z + 1")
    with pytest.raises(ParseError, match="unknown function 'foo'"):
        parse_lagrangian("foo(1)")


# --- printing and round trips -------------------------------------------


@pytest.mark.parametrize("source", [
    "y*dy + t",
    "-(y + t)^2",
    "2 - 3 - 4",
    "y / dy / t",
    "sin(y)*cos(dy)",
    "y^-2",
    "2^3^2",
    "-y^2",
    "(y + 1)*(dy - 1)",
    "sqrt(1 + dy^2)",
    "1e999",
    "1e999 * y",
])
def test_print_parse_round_trip(source):
    ast = parse(source)
    printed = to_source(ast)
    assert parse(printed) == ast
    # printing is canonical: a second pass is a fixed point
    assert to_source(parse(printed)) == printed


ast_leaves = st.one_of(
    st.sampled_from([("var", "t"), ("var", "y"), ("var", "dy")]),
    st.floats(min_value=0.0, max_value=10.0).map(lambda x: ("num", x)),
)


def _extend(children):
    binary = st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                       children, children)
    unary = children.map(lambda a: ("neg", a))
    call = st.tuples(st.just("call"), st.sampled_from(sorted(FUNCTIONS)), children)
    return st.one_of(binary, unary, call)


BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv, "pow": dual.power}


def eval_ast(node, env):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -eval_ast(node[1], env)
    if tag == "call":
        return getattr(dual, node[1])(eval_ast(node[2], env))
    return BINARY[tag](eval_ast(node[1], env), eval_ast(node[2], env))


def reference(ast, t, u, v):
    """Value, d/du and d/dv by walking the AST; None where the walk fails."""
    out = []
    for y, dy in ((u, v), (Dual(u, 1.0), Dual(v, 0.0)), (Dual(u, 0.0), Dual(v, 1.0))):
        try:
            r = eval_ast(ast, {"t": t, "y": y, "dy": dy})
        except ArithmeticError:
            out.append(None)
            continue
        if isinstance(y, Dual):
            r = r.dot if isinstance(r, Dual) else 0.0
        out.append(r if math.isfinite(r) else None)
    return out


@given(st.recursive(ast_leaves, _extend, max_leaves=12))
def test_random_ast_round_trip(ast):
    # The compiled density matches a direct walk of the AST bit for bit, for
    # the value and both seeded partials, and fails exactly where it fails.
    printed = to_source(ast)
    assert parse(printed) == ast
    L = parse_lagrangian(printed)
    for (t, u, v) in PROBES:
        for method, want in zip((L.eval, L.d2, L.d3), reference(ast, t, u, v)):
            if want is None:
                with pytest.raises(EvalDomainError):
                    method(t, u, v)
            else:
                assert method(t, u, v) == want


@pytest.mark.parametrize("source,point,expected", [
    ("+".join(["y"] * 600), (0.0, 1.5, 0.0), (900.0, 600.0, 0.0)),
    ("-" * 900 + "y", (0.0, 1.5, 0.0), (1.5, 1.0, 0.0)),
    ("*".join(["dy"] * 300), (0.0, 0.0, 2.0), (2.0 ** 300, 0.0, 300 * 2.0 ** 299)),
], ids=["sum-600", "neg-900", "product-300"])
def test_deeply_nested_expressions(source, point, expected):
    # Nesting far past the Python tokenizer's 200-parenthesis limit compiles
    # and evaluates exactly.
    L = parse_lagrangian(source)
    assert (L.eval(*point), L.d2(*point), L.d3(*point)) == expected


# --- catalog -------------------------------------------------------------


def test_catalog_const():
    L = catalog("const(0.5)")
    for p in PROBES:
        assert L.eval(*p) == 0.5
        assert L.d2(*p) == 0.0
        assert L.d3(*p) == 0.0


def test_catalog_const_evaluates_its_argument():
    assert catalog("const(1/4)").eval(0.0, 0.0, 0.0) == 0.25
    assert catalog("const(2*3)").eval(0.0, 0.0, 0.0) == 6.0
    assert catalog("const(-1.5e1)").eval(0.0, 0.0, 0.0) == -15.0


def test_catalog_argument_nesting():
    # The variable check walks any tree the parser accepts; deeper nesting
    # is a ParseError, not a RecursionError.
    assert catalog("const(" + "-" * 600 + "1)").eval(0.0, 0.0, 0.0) == 1.0
    with pytest.raises(ParseError, match="nested too deeply"):
        catalog("const(" + "-" * 1000 + "1)")
    with pytest.raises(ParseError, match="nested too deeply"):
        catalog("const(" + "+".join(["1"] * 5000) + ")")


def test_catalog_dy_squared_matches_parsed_form():
    a = catalog("dy_squared")
    b = parse_lagrangian("dy^2")
    for p in PROBES:
        assert a.eval(*p) == b.eval(*p)
        assert a.d2(*p) == b.d2(*p)
        assert a.d3(*p) == b.d3(*p)


def test_catalog_kinetic_minus_potential():
    # oracle by hand at (t,u,v)=(1,3,4), omega=2:
    # v^2/2 - omega^2 u^2/2 = 8 - 18 = -10; d2 = -omega^2 u = -12; d3 = v
    L = catalog("kinetic_minus_potential(2)")
    assert L.eval(1.0, 3.0, 4.0) == -10.0
    assert L.d2(1.0, 3.0, 4.0) == -12.0
    assert L.d3(1.0, 3.0, 4.0) == 4.0


def test_catalog_partials_match_finite_differences():
    for name in ("dy_squared", "kinetic_minus_potential(0.7)", "const(2)"):
        L = catalog(name)
        for (t, u, v) in [(0.3, 0.8, 1.1), (1.0, -2.0, 0.5)]:
            du = fd(lambda x: L.eval(t, x, v), u)
            dv = fd(lambda x: L.eval(t, u, x), v)
            assert L.d2(t, u, v) == pytest.approx(du, rel=1e-6, abs=1e-6)
            assert L.d3(t, u, v) == pytest.approx(dv, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("spec,message", [
    ("wat", "unknown catalog"),
    ("wat(1)", "unknown catalog"),
    ("const", "needs a constant argument"),
    ("const(y)", "must not reference variables"),
    ("const(1 +)", "syntax error"),
    ("dy_squared(3)", "takes no argument"),
    ("kinetic_minus_potential", "needs a constant argument"),
    ("const(1e308*10)", "is not finite"),
    ("const(1/0)", "division by zero"),
    ("const(log(0))", "log of non-positive"),
    ("const(exp(1000))", "catalog argument 'exp\\(1000\\)'"),
    ("kinetic_minus_potential(1e200)", "omega\\^2 overflows"),
])
def test_catalog_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        catalog(spec)


def test_register_catalog_extension():
    def build(arg, name):
        return Lagrangian(
            eval=lambda t, u, v: v,
            d2=lambda t, u, v: 0.0,
            d3=lambda t, u, v: 1.0,
            origin=name,
        )

    register_catalog("just_velocity", build)
    try:
        L = catalog("just_velocity")
        assert L.eval(0.0, 0.0, 7.0) == 7.0
        assert L.d3(0.0, 0.0, 7.0) == 1.0
    finally:
        CATALOG_BUILDERS.pop("just_velocity", None)
