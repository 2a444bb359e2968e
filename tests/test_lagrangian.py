import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dual
import tsvar.lagrangian
import tsvar.program
from tsvar import (EvalDomainError, ParseError, VariationalProblem, catalog, chord, first_variation_gradient, j_delta,
                   j_nabla, j_product, parse_lagrangian, uniform_scale)
from dual import Dual
from tsvar.lagrangian import (
    CATALOG_BUILDERS,
    FUNCTIONS,
    Lagrangian,
    parse,
    register_catalog,
)
from tsvar.program import COMPUTES, SEEDS, Program, _run, _steps, run
from tsvar.variational import _passes


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
    # The pass raises the one exception class that both tsvar and
    # tsvar.lagrangian export, with the bare reason kept apart.
    assert EvalDomainError is tsvar.lagrangian.EvalDomainError is tsvar.program.EvalDomainError
    L = parse_lagrangian("log(y)")
    with pytest.raises(EvalDomainError) as exc:
        L.eval(0.5, 0.0, 2.0)
    assert exc.value.reason == "log of non-positive value 0.0"
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
    ("sin(y", 5),
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

# Node precedence for parenthesis-minimal printing.
PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "num": 5, "var": 5, "call": 5}


def to_source(node: tuple, context: int = 0) -> str:
    """An AST rendered as a string that reparses to the same expression."""
    tag = node[0]
    if tag == "num":
        text = "1e999" if node[1] == math.inf else repr(node[1])
    elif tag == "var":
        text = node[1]
    elif tag == "call":
        text = f"{node[1]}({to_source(node[2])})"
    elif tag == "neg":
        text = f"-{to_source(node[1], PREC['neg'])}"
    elif tag == "pow":
        # Left side must be an atom; the right side admits unary expressions.
        text = f"{to_source(node[1], PREC['pow'] + 1)}^{to_source(node[2], PREC['neg'])}"
    else:
        symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[tag]
        text = f"{to_source(node[1], PREC[tag])} {symbol} {to_source(node[2], PREC[tag] + 1)}"
    return f"({text})" if PREC[tag] < context else text


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
    st.sampled_from([("var", "t"), ("var", "y"), ("var", "dy"), ("num", math.inf)]),
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
    """Value, d/du and d/dv by walking the AST one point at a time.

    Where the walk fails the entry is the message an ``EvalDomainError``
    carries for it.
    """
    out = []
    for y, dy in ((u, v), (Dual(u, 1.0), Dual(v, 0.0)), (Dual(u, 0.0), Dual(v, 1.0))):
        try:
            r = eval_ast(ast, {"t": t, "y": y, "dy": dy})
        except dual.DomainError as exc:
            out.append(str(exc))
            continue
        except ZeroDivisionError:
            out.append("division by zero")
            continue
        except OverflowError:
            out.append("overflow")
            continue
        if isinstance(y, Dual):
            r = r.dot if isinstance(r, Dual) else 0.0
        out.append(r if math.isfinite(r) else "non-finite value")
    return out


def same_float(a, b):
    """Equal bit for bit, the sign of zero included."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def expect(call, want, points):
    """``call()`` equals ``want`` at every point, or raises the first failure's error."""
    failed = [i for i, w in enumerate(want) if isinstance(w, str)]
    if failed:
        i = failed[0]
        t, u, v = points[i]
        with pytest.raises(EvalDomainError) as exc:
            call()
        assert str(exc.value) == f"{want[i]} at (t={t!r}, u={u!r}, v={v!r})"
        return None
    got = call()
    assert all(same_float(g, w) for g, w in zip(got.tolist(), want))
    return got


GRID_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, math.inf]),
    st.floats(min_value=-5.0, max_value=5.0),
)


@given(st.recursive(ast_leaves, _extend, max_leaves=12),
       st.lists(st.tuples(GRID_VALUES, GRID_VALUES, GRID_VALUES), min_size=1, max_size=8))
def test_random_ast_round_trip(ast, grid):
    # The parsed density matches a dual-number walk of the AST bit for bit,
    # for the value and both seeded partials, point by point and over a
    # whole grid, and fails where the walk fails, with the walk's message
    # for the first failing point.
    printed = to_source(ast)
    assert parse(printed) == ast
    L = parse_lagrangian(printed)
    for point in PROBES + grid:
        expect_points(L, point, reference(ast, *point))
    expect_passes(L, grid, [reference(ast, *point) for point in grid])


def subtrees(node):
    """Every subtree of the AST ``node`` that computes something, with the variables it reads."""
    tag = node[0]
    if tag in ("num", "var"):
        return [], {node[1]} if tag == "var" else set()
    found, reads = [], set()
    for child in node[2:] if tag == "call" else node[1:]:
        below, names = subtrees(child)
        found += below
        reads |= names
    return found + [(node, reads)], reads


def nodes(node):
    """How many nodes of the AST ``node`` are not variables, each repeat counted."""
    tag = node[0]
    if tag in ("num", "var"):
        return int(tag == "num")
    return 1 + sum(nodes(child) for child in (node[2:] if tag == "call" else node[1:]))


def pair_tape(pair):
    """The one tape of a delta/nabla pair of parsed densities, as ``tsvar.variational`` builds it."""
    return Program(*pair[0].program.trees, *pair[1].program.trees)


def tape_passes(tape, delta_args, nabla_args, seeds=(), strict=True):
    """Both outputs of one run of a pair's tape; the nabla density reads the delta density's dy."""
    return _run(tape, [np.asarray(x, dtype=float) for x in (*delta_args, *nabla_args[:2])], seeds, strict)


def pair_outcome(fn):
    """The bytes of each array ``fn`` returns, or the message and probe point of its ``EvalDomainError``."""
    try:
        with np.errstate(all="ignore"):  # the caller of ``_run`` holds np.errstate
            return [np.asarray(x).tobytes() for x in fn()]
    except EvalDomainError as exc:
        return str(exc), (exc.t, exc.u, exc.v)


@given(st.recursive(ast_leaves, _extend, max_leaves=10), st.recursive(ast_leaves, _extend, max_leaves=6),
       st.data(), st.lists(st.tuples(*[GRID_VALUES] * 5), min_size=1, max_size=6))
def test_random_pairs_share_registers_bit_for_bit(delta, other, data, grid):
    # A nabla density that reuses a subtree of the delta density reading
    # only dy, or only t, runs with it as one tape, alone and fixed for its
    # t: a dy-only subtree is one register of both densities, and ``fix``
    # gives the t-only one.  Each output is what each density gives run
    # alone, bit for bit: strict values and partials of a row, the first
    # failure's message and probe point, and values over a stack of rows
    # with nan at the failed points.
    shared = [node for node, reads in subtrees(delta)[0] if reads in ({"dy"}, {"t"})]
    if not shared:
        shared = [("call", "sin", ("var", "dy"))]
        delta = ("add", delta, shared[0])
    pick = data.draw(st.sampled_from(shared))
    nabla = data.draw(st.sampled_from([(op, pick, other) for op in ("add", "mul", "pow")] + [("sub", other, pick)]))
    pair = [parse_lagrangian(to_source(ast)) for ast in (delta, nabla)]
    tape = pair_tape(pair)
    td, tn, yd, yn, quot = (np.array(column) for column in zip(*grid))
    if subtrees(pick)[1] == {"dy"}:
        assert any(tape.reads[r] == 4 | COMPUTES for r in set(tape.outs[0][1]) & set(tape.outs[1][1]))
    else:
        assert tape.fix(td, tn).given
    rows = [yd, yd[::-1], np.where(yd < 0.5, math.nan, yd)], [yn, -yn, yn], [quot, quot, quot[::-1]]
    stacks = [np.array(r) for r in rows]
    for fixed in (tape, tape.fix(td, tn)):
        for seeds in ((), SEEDS):
            args = (td, yd, quot), (tn, yn, quot)
            alone = pair_outcome(lambda: [run(L.program, *a, seeds) for L, a in zip(pair, args)])
            assert pair_outcome(lambda: tape_passes(fixed, *args, seeds)) == alone
        args = (td, stacks[0], stacks[2]), (tn, stacks[1], stacks[2])
        alone = pair_outcome(lambda: [run(L.program, *a, strict=False) for L, a in zip(pair, args)])
        assert pair_outcome(lambda: tape_passes(fixed, *args, strict=False)) == alone


def surjection(data, size: int, onto: int) -> np.ndarray:
    """``size`` indices that take every value in range(onto), in a drawn order."""
    extra = data.draw(st.lists(st.integers(0, onto - 1), min_size=size - onto, max_size=size - onto))
    return np.array(data.draw(st.permutations([*range(onto), *extra])))


def record_bits(records):
    """Each failure record with its mask and operands as (shape, bytes)."""
    return [([(np.shape(x), np.asarray(x).tobytes()) for x in (mask, *xs)], template, j)
            for mask, template, xs, j in records]


def expect_compact_passes(pair, sides):
    """A value pass over each side's distinct (t, y) and index map equals the pass over the gathered arrays.

    ``sides`` holds per density its distinct t and y and its map into dy's layout, and last dy: the
    failure records' order, masks and operands, the strict outcome, the nan placement, and the oracle's
    passes of the pair and of its rebuilt by hand match, bit for bit.
    """
    (td, yd, at_d), (tn, yn, at_n), dy = sides
    tape = pair_tape(pair)
    compact, full = [td, yd, dy, tn, yn, at_d, at_n], [td[at_d], yd[at_d], dy, tn[at_n], yn[at_n]]
    with np.errstate(all="ignore"):  # the caller of ``_steps`` holds np.errstate
        assert record_bits(_steps(tape.values, compact, ())[2]) == record_bits(_steps(tape.values, full, ())[2])
    for strict in (True, False):
        want = pair_outcome(lambda: _run(tape, full, (), strict))
        assert pair_outcome(lambda: _run(tape, compact, (), strict)) == want
    scale = uniform_scale(0.0, 1.0, 3)  # the oracle's sides carry their own t
    by_hand = [Lagrangian(L.eval, L.d2, L.d3, L.origin) for L in pair]
    for densities in (pair, by_hand):
        p = VariationalProblem(scale, *densities, 0.0, 1.0)
        assert pair_outcome(lambda: _passes(p, (td, yd, dy, at_d), (tn, yn, dy, at_n))) == want


@given(st.recursive(ast_leaves, _extend, max_leaves=8), st.recursive(ast_leaves, _extend, max_leaves=8), st.data())
def test_compact_value_pass_matches_the_full_pass(delta, nabla, data):
    # The oracle runs each density's steps free of dy over its distinct (t, y)
    # values and gathers their registers into dy's layout: any pair of
    # densities gives what the pass over the gathered arrays gives.
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    sides = []
    for _ in range(2):
        k = data.draw(st.integers(1, min(4, rows * cols)))
        t, y = (np.array(data.draw(st.lists(GRID_VALUES, min_size=k, max_size=k))) for _ in range(2))
        sides.append((t, y, surjection(data, rows * cols, k).reshape(rows, cols)))
    dy = np.array(data.draw(st.lists(GRID_VALUES, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    expect_compact_passes([parse_lagrangian(to_source(ast)) for ast in (delta, nabla)], [*sides, dy])


@pytest.mark.parametrize("source", ["log(y + 1)", "sqrt(y)", "1/(y - 0.5)", "exp(800*y)", "sqrt(y) + 1", "sin(t)*y",
                                    "log(y + 1 + 10*t)"])
def test_compact_pass_of_subtrees_free_of_dy_that_fail_on_part_of_the_grid(source):
    # Each density reads ``source``, which fails at some of the oracle's (t, y)
    # values and not at others (sin(t) at t = inf); the nabla density is free
    # of dy as a whole.
    ys = np.array([-2.0, -1.0, -0.0, 0.5, 1.0, 2.0])
    sides = [(np.array([0.0, -0.2, 0.5, math.inf, 0.1, 0.3]), ys, np.array([[0, 1, 2], [3, 4, 5], [5, 5, 0]])),
             (np.array([0.3, 0.3, 0.0, 2.0, -0.3, math.inf]), ys[::-1], np.array([[5, 5, 5], [4, 3, 2], [1, 0, 0]]))]
    dy = np.array([[0.5, -1.0, 2.0], [0.0, 3.0, -0.5], [1.0, 1.0, -2.0]])
    pair = [parse_lagrangian(f"{source} + dy^2"), parse_lagrangian(source)]
    tape = pair_tape(pair)
    assert not any(tape.reads[r] & 4 for r in tape.outs[1][1])  # the nabla density reads no dy
    with np.errstate(all="ignore"):
        assert np.isnan(_run(tape, [*sides[0][:2], dy, *sides[1][:2], sides[0][2], sides[1][2]], (), False)[1]).any()
    expect_compact_passes(pair, [*sides, dy])


def test_failures_keep_the_walk_order():
    # Where two registers fail at one point the earlier one's message
    # stands, as in a dual-number walk, although a partials pass computes
    # the registers free of y and dy first, and a tape fixed for its t
    # computes the registers that read only t before any pass.
    point = (-2.0, -1.0, 20.0)
    for source in ("log(y) + log(t)", "sqrt(y) * sqrt(t)", "log(-dy) + log(t)"):
        want = reference(parse(source), *point)
        assert want[0] != reference(parse(source), point[0], 1.0, -1.0)[0]  # the second log fails alone
        expect_points(parse_lagrangian(source), point, want)
        expect_passes(parse_lagrangian(source), [point], [want])
    pair = [parse_lagrangian(s) for s in ("dy^2 + log(t)", "log(y) + dy^2 + log(t)")]
    tape = pair_tape(pair)
    args = tuple(np.array([x]) for x in (1.0, 1.0, 20.0)), tuple(np.array([x]) for x in (-2.0, -1.0, 20.0))
    for fixed in (tape, tape.fix(args[0][0], args[1][0])):
        for seeds in ((), SEEDS):
            alone = pair_outcome(lambda: [run(L.program, *a, seeds) for L, a in zip(pair, args)])
            assert alone[0] == "log of non-positive value -1.0 at (t=-2.0, u=-1.0, v=20.0)"
            assert pair_outcome(lambda: tape_passes(fixed, *args, seeds)) == alone


REPEATS = [lambda s, op=op: (op, s, s) for op in ("add", "sub", "mul", "div", "pow")]
REPEATS += [lambda s, f=f: ("add", s, ("call", f, s)) for f in sorted(FUNCTIONS)]
REPEATS += [lambda s: ("mul", s, ("sub", s, ("var", "t"))), lambda s: ("neg", ("mul", ("neg", s), ("neg", s))),
            lambda s: ("add", ("mul", s, ("call", "log", ("var", "t"))), s)]  # a check between the copies


@given(st.recursive(ast_leaves, _extend, max_leaves=6).filter(lambda node: node[0] != "var"),
       st.sampled_from(REPEATS), st.lists(st.tuples(GRID_VALUES, GRID_VALUES, GRID_VALUES), min_size=1, max_size=6))
@example(("call", "log", ("var", "dy")), REPEATS[-1], [(-0.5, 0.7, -1.3), (1.0, 1.0, 1.0)])
def test_repeated_subtrees_share_one_register(sub, form, grid):
    # A density that repeats a subtree S, such as S + S, S + exp(S) or
    # S * (S - t), computes S once: its tape, built from the AST, has
    # fewer registers past its slots than the AST has nodes that are not
    # variables.  It still matches a dual-number walk of the AST bit for
    # bit, point by point and over a grid and a stack of two rows, strict
    # and not, and fails where the walk fails, with the walk's message for
    # the first failing point: S's checks come where the walk first meets
    # S, before those of log(t) in S*log(t) + S.
    ast = form(sub)
    printed = to_source(ast)
    assert parse(printed) == ast
    L = parse_lagrangian(printed)
    assert len(L.program.code) - 3 < nodes(ast)
    for point in PROBES + grid:
        expect_points(L, point, reference(ast, *point))
    expect_passes(L, grid, [reference(ast, *point) for point in grid])
    stack = [grid, grid[::-1]]
    flat = [point for row in stack for point in row]
    want = [reference(ast, *point) for point in flat]
    t, u, v = (np.array([[point[k] for point in row] for row in stack]) for k in range(3))
    expect(lambda: L.values(t, u, v).ravel(), [w[0] for w in want], flat)
    d2, d3 = [w[1] for w in want], [w[2] for w in want]
    if any(isinstance(w, str) for w in d2):  # every d2 failure before any d3 failure
        expect(lambda: L.partials(t, u, v)[0].ravel(), d2, flat)
    elif expect(lambda: L.partials(t, u, v)[1].ravel(), d3, flat) is not None:
        expect(lambda: L.partials(t, u, v)[0].ravel(), d2, flat)
    loose = L._pass(t, u, v, strict=False).ravel().tolist()
    assert all(math.isnan(g) if isinstance(w[0], str) else same_float(g, w[0]) for g, w in zip(loose, want))


def expect_points(L, point, want):
    """The per-point callables at ``point`` match the walk's (value, d2, d3)."""
    for method, w in zip((L.eval, L.d2, L.d3), want):
        expect(lambda: np.array([method(*point)]), [w], [point])


def expect_passes(L, grid, want):
    """A value pass and a partials pass over ``grid`` match the walk at each point."""
    t, u, v = (np.array(column) for column in zip(*grid))
    expect(lambda: L.values(t, u, v), [w[0] for w in want], grid)
    d2_want, d3_want = [w[1] for w in want], [w[2] for w in want]
    # A partials pass reports any d2 failure before any d3 failure.
    if any(isinstance(w, str) for w in d2_want):
        expect(lambda: L.partials(t, u, v)[0], d2_want, grid)
    elif expect(lambda: L.partials(t, u, v)[1], d3_want, grid) is not None:
        expect(lambda: L.partials(t, u, v)[0], d2_want, grid)


EXPONENT_EDGES = (-1.0, -0.0, 0.0, 0.5, 2.0, -2.5, math.inf, -math.inf, 1e308, -1e308)


@pytest.mark.parametrize("source", ["y^dy", "dy^y", "t^y", "y^-dy"])
def test_varying_exponent_domain(source):
    # A power whose exponent varies over the grid checks its domain
    # elementwise (an infinite exponent is not an integer).  At every
    # combination of edge values, alone and in grids of ten and of all
    # points, the passes match the walk bit for bit, and fail where it
    # fails, with its message for the first failing point.
    ast = parse(source)
    L = parse_lagrangian(source)
    grid = list(itertools.product(EXPONENT_EDGES, repeat=3))
    want = [reference(ast, *point) for point in grid]
    for point, w in zip(grid, want):
        expect_points(L, point, w)
        expect_passes(L, [point], [w])
    for start in range(0, len(grid), 10):
        expect_passes(L, grid[start:start + 10], want[start:start + 10])
    expect_passes(L, grid, want)


def test_failing_pass_runs_the_program_once(monkeypatch):
    # A failing pass reports its first failed point and message itself;
    # no point is evaluated a second time to find the message.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr("tsvar.lagrangian.run", counted)
    L = parse_lagrangian("log(y) + sqrt(dy)")
    t, u, v = np.array([0.0, 1.0]), np.array([2.0, -1.0]), np.array([4.0, 5.0])
    for call in (lambda: L.values(t, u, v), lambda: L.partials(t, u, v), lambda: L.eval(1.0, -1.0, 5.0)):
        calls.clear()
        with pytest.raises(EvalDomainError, match=r"^log of non-positive value -1.0 at \(t=1.0, u=-1.0, v=5.0\)$"):
            call()
        assert len(calls) == 1


def test_failing_pass_over_a_grid_of_candidates():
    # A grid of candidates: t along the points, u and v with a row per
    # candidate.  A failing values() or partials() raises the walk's
    # message for the first failing flat index, with that point's (t, u, v).
    source = "log(y) + sqrt(dy)"
    ast, L = parse(source), parse_lagrangian(source)
    t = np.array([0.0, 0.5, 1.0])
    u = np.array([[1.0, 2.0, 3.0], [1.0, -1.0, -2.0]])
    v = np.array([[1.0, 0.0, -4.0], [1.0, 1.0, 1.0]])
    for call in (lambda: L.values(t, u, v), lambda: L.partials(t, u, v)):
        with pytest.raises(EvalDomainError, match=r"^square root of negative value -4.0 at \(t=1.0, u=3.0, v=-4.0\)$"):
            call()
    rng = np.random.default_rng(23)
    cases = [(t, u, v)] + [(rng.uniform(0.0, 1.0, 5), *rng.uniform(-0.5, 3.0, (2, 4, 5))) for _ in range(2)]
    for t, u, v in cases:
        grid = list(zip(*(np.broadcast_to(x, u.shape).ravel().tolist() for x in (t, u, v))))
        want = [reference(ast, *point) for point in grid]
        assert any(isinstance(w[0], str) for w in want)
        expect(lambda: L.values(t, u, v).ravel(), [w[0] for w in want], grid)
        # A partials pass reports any d2 failure before any d3 failure.
        k = 0 if any(isinstance(w[1], str) for w in want) else 1
        expect(lambda: L.partials(t, u, v)[k].ravel(), [w[1 + k] for w in want], grid)


def test_partials_report_the_first_seed_before_the_second():
    # At (t, u, v) = (0, 1, 0) d3 fails and d2 does not; at (0, 0, 1) d2
    # fails.  A partials pass raises d2's error at the later point, over a
    # 1-D grid and over a 2-row stack.
    L = parse_lagrangian("sqrt(dy) + sqrt(y)")
    t, u, v = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    message = "square root not differentiable at zero at (t={}, u={}, v={})"
    for args in ((t, u, v), (t, np.stack([u, u[::-1]]), np.stack([v, v[::-1]]))):
        with pytest.raises(EvalDomainError) as exc:
            L.partials(*args)
        assert str(exc.value) == message.format(0.0, 0.0, 1.0)
    with pytest.raises(EvalDomainError) as exc:
        L.d3(0.0, 1.0, 0.0)
    assert str(exc.value) == message.format(0.0, 1.0, 0.0)
    assert L.d2(0.0, 1.0, 0.0) == 0.5


def test_exp_overflows_past_its_limit():
    # math.exp overflows just past EXP_LIMIT.  A pass masks those arguments
    # instead of calling math.exp, so at the limit, past it, at +-inf and at
    # nan it matches the walk point by point and over grids in every
    # rotation, with the walk's message for the first failing point.
    limit = tsvar.program.EXP_LIMIT
    above = math.nextafter(limit, math.inf)
    assert math.exp(limit) == 1.7976931348622732e308
    with pytest.raises(OverflowError):
        math.exp(above)
    thirds = [limit / 3.0]
    for direction in (math.inf, -math.inf):
        y = thirds[0]
        for _ in range(3):
            y = math.nextafter(y, direction)
            thirds.append(y)
    assert {3.0 * y > limit for y in thirds} == {True, False}
    us = [limit, above, math.nextafter(limit, -math.inf), math.inf, -math.inf, math.nan, 1.0, *thirds]
    grid = [(0.5, u, v) for u in us for v in (0.25, -0.0)]
    for source in ("exp(y)", "exp(3*y) + dy"):
        ast, L = parse(source), parse_lagrangian(source)
        want = [reference(ast, *point) for point in grid]
        assert {"overflow", "non-finite value"} <= {w[0] for w in want}
        for point, w in zip(grid, want):
            expect_points(L, point, w)
        for start in range(len(grid)):
            expect_passes(L, grid[start:] + grid[:start], want[start:] + want[:start])


def wide_draws(rng, size: int) -> list:
    """Seeded floats over the whole range, each from one of six kinds.

    Special values (signed zeros, subnormals, +-1e+-300, numbers whose
    squares overflow, infinities), logarithmically spread magnitudes from
    the subnormals up, moderate magnitudes, integers, fractions, and
    magnitudes past 1e150, all of either sign.
    """
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300,
               1e155, -1e155, 1.3e154, math.inf, -math.inf]
    kinds = rng.integers(0, 6, size)
    signs = rng.choice([-1.0, 1.0], size)
    out = []
    for kind, sign in zip(kinds.tolist(), signs.tolist()):
        if kind == 0:
            out.append(special[int(rng.integers(len(special)))])
        elif kind == 1:
            out.append(sign * 10.0 ** rng.uniform(-323.0, 308.0))
        elif kind == 2:
            out.append(sign * 10.0 ** rng.uniform(-3.0, 3.0))
        elif kind == 3:
            out.append(float(rng.integers(-6, 7)))
        elif kind == 4:
            out.append(sign * rng.uniform(0.0, 4.0))
        else:
            out.append(sign * 10.0 ** rng.uniform(150.0, 160.0))
    return out


@pytest.mark.parametrize("source", ["y^dy", "y^3 + dy^-2", "(dy^2 + 1)^0.5", "sqrt(y) + sqrt(dy^2 + y^2)"])
def test_power_and_sqrt_passes_match_libm(source):
    # Over arrays ^ and sqrt run as numpy loops.  Over seeded wide-range
    # draws the value and partials passes match the walk, which calls
    # Python's pow and math.sqrt, bit for bit: over the whole grid, over
    # runs of eight points, and over the points where the walk's value, or
    # all three of its results, are finite.
    ast, L = parse(source), parse_lagrangian(source)
    rng = np.random.default_rng(sum(map(ord, source)))
    grid = list(zip(rng.uniform(-1.0, 1.0, 600).tolist(), wide_draws(rng, 600), wide_draws(rng, 600)))
    want = [reference(ast, *point) for point in grid]
    expect_passes(L, grid, want)
    for start in range(0, len(grid), 8):
        expect_passes(L, grid[start:start + 8], want[start:start + 8])
    for keep in (lambda w: not isinstance(w[0], str), lambda w: not any(isinstance(x, str) for x in w)):
        kept = [(point, w) for point, w in zip(grid, want) if keep(w)]
        assert len(kept) > 100
        expect_passes(L, [point for point, _ in kept], [w for _, w in kept])
    messages = {x for w in want for x in w if isinstance(x, str)}
    assert "non-finite value" in messages or "overflow" in messages


PASSIVE_T = (0.0, 0.25, 0.5, 1.0, 1.5)
PASSIVE_BASES = (0.0, -0.0, -2.0, -0.5, 5e-324, 0.5, 1.0, 3.0, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("source", ["y^0", "dy^1", "y^2 + dy^3", "y^0.5", "dy^-1", "y^-2", "y^t",
                                    "dy^(t - 1)", "(y - 1)^(2*t)", "(-y)^0", "(-dy)^(t - 1)",
                                    "y^(2^0.5)", "dy^(-0)", "y^(1 - 1)", "dy^(0.5*2)",
                                    "y^(3 - 1) + dy^(-1 - 1)", "(y + dy)^(6/3)"])
def test_exponent_free_of_y_and_dy(source):
    # An exponent free of y and dy takes the power rule everywhere, zero
    # exponents and zero bases included, and so does a literal exponent
    # that a constant subtree computes (``2^0.5`` is an np.float64).  At
    # every combination of edge values, alone, in grids of eight and over
    # all points, the passes match the walk bit for bit, the sign of zero
    # included, and fail where it fails, with its message for the first
    # failing point; so do the passes over the points where the value, or
    # all three results, are finite.
    ast, L = parse(source), parse_lagrangian(source)
    grid = list(itertools.product(PASSIVE_T, PASSIVE_BASES, PASSIVE_BASES))
    want = [reference(ast, *point) for point in grid]
    for point, w in zip(grid, want):
        expect_points(L, point, w)
        expect_passes(L, [point], [w])
    for start in range(0, len(grid), 8):
        expect_passes(L, grid[start:start + 8], want[start:start + 8])
    expect_passes(L, grid, want)
    for keep in (lambda w: not isinstance(w[0], str), lambda w: not any(isinstance(x, str) for x in w)):
        kept = [(point, w) for point, w in zip(grid, want) if keep(w)]
        assert len(kept) >= 100
        expect_passes(L, [point for point, _ in kept], [w for _, w in kept])


@pytest.mark.parametrize("source", ["y", "dy", "t", "1", "dy^2 / dy^2"])
def test_partials_hand_out_no_shared_state(source):
    # Every pass returns an array of its own, at a single point, over a
    # grid and over a stack of rows: writing into one leaves the next
    # pass's result as it was.  Identical densities for both factors (as in
    # problems/square_3pt.json) run as one tape, whose two outputs are one
    # register; no array that the pair's partials or value passes return
    # shares memory with another.
    densities = [parse_lagrangian(s) for s in source.split(" / ")]
    tape = pair_tape(densities) if len(densities) == 2 else None
    point = (0.5, 1.5, -2.0)
    for args in [point] + [tuple(np.full(shape, x) for x in point) for shape in ((), (1,), (5,), (2, 5))]:
        def passes():
            if tape is None:
                return [densities[0].partials(*args)]
            values = tape_passes(tape, args, args) if np.ndim(args[0]) else []  # 0-d values are scalars
            return [*tape_passes(tape, args, args, SEEDS), *values]
        first = passes()
        want = [x.tobytes() for x in first]
        assert all(x.flags.writeable for x in first)
        assert [x.shape for x in first[:len(densities)]] == [(2, *np.shape(args[0]))] * len(densities)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(first, 2))
        for x in first:
            x[...] = 7.0
        assert [x.tobytes() for x in passes()] == want


@pytest.mark.parametrize("source", ["y", "dy", "t"])
def test_values_of_a_bare_variable_are_a_copy(source):
    # A value pass of a density that is one variable returns an array of
    # its own, never the caller's input or a view of it, strict or not:
    # writing into the result leaves the input as it was.
    L = parse_lagrangian(source)
    for shape in ((), (1,), (5,), (2, 5)):
        v = np.full(shape, 1.5)
        for args in ((v, v, v), (0.0, v, v)):
            want = np.broadcast_to(args[("t", "y", "dy").index(source)], shape).tobytes()
            for out in (L.values(*args), L._pass(*args, strict=False)):
                assert out is not v and not np.shares_memory(out, v)
                assert out.tobytes() == want
                if np.ndim(out):
                    out[...] = 7.0
                    assert np.all(v == 1.5)


@pytest.mark.parametrize("source,message", [
    ("y*2^0.5 + cos(1)*dy", None),
    ("dy^2 + exp(700)*y", None),
    ("y + 1e200^2", "overflow"),
    ("y + (-8)^(1/3)", "negative base -8.0 with non-integer exponent 0.3333333333333333"),
    ("dy + 0^-1", "zero base with negative exponent -1.0"),
])
def test_constant_subtrees(source, message):
    # Subtrees free of t, y and dy run on the array path like the rest of
    # the program, as 0-d operands.  At every combination of edge values,
    # point by point, in grids of eight and over all points, the passes
    # match the walk bit for bit and fail where it fails, with its message;
    # a constant that fails fails every point.  A single point's value and
    # partials come out as np.float64.
    ast, L = parse(source), parse_lagrangian(source)
    grid = list(itertools.product(PASSIVE_T, PASSIVE_BASES, PASSIVE_BASES))
    want = [reference(ast, *point) for point in grid]
    if message is None:
        assert not isinstance(want[0][0], str)
        assert all(type(x) is np.float64 for x in (L.values(*grid[0]), *L.partials(*grid[0])))
    else:
        assert all(w == [message] * 3 for w in want)
    for point, w in zip(grid, want):
        expect_points(L, point, w)
    for start in range(0, len(grid), 8):
        expect_passes(L, grid[start:start + 8], want[start:start + 8])
    expect_passes(L, grid, want)


@pytest.mark.parametrize("source", ["y + 1", "y + 1e200^2", "dy + 0^-1", "sqrt(dy) + sqrt(y)"])
def test_a_pass_over_no_points_fails_nowhere(source):
    # Even where a constant subtree fails everywhere, a pass over empty
    # arrays has no failing point: strict or not, values and partials are
    # empty.
    L = parse_lagrangian(source)
    for shape in ((0,), (2, 0)):
        e = np.empty(shape)
        for strict in (True, False):
            assert run(L.program, e, e, e, strict=strict).shape == shape
            assert run(L.program, e, e, e, tsvar.program.SEEDS, strict).shape == (2, *shape)
        assert L.values(e, e, e).shape == shape
        assert [d.shape for d in L.partials(e, e, e)] == [shape, shape]


@pytest.mark.parametrize("source,point,expected", [
    ("+".join(["y"] * 600), (0.0, 1.5, 0.0), (900.0, 600.0, 0.0)),
    ("-" * 900 + "y", (0.0, 1.5, 0.0), (1.5, 1.0, 0.0)),
    ("*".join(["dy"] * 300), (0.0, 0.0, 2.0), (2.0 ** 300, 0.0, 300 * 2.0 ** 299)),
    ("+".join(["y"] * 5000), (0.0, 1.5, 0.0), (7500.0, 5000.0, 0.0)),
], ids=["sum-600", "neg-900", "product-300", "sum-5000"])
def test_deeply_nested_expressions(source, point, expected):
    # Nesting far past the Python tokenizer's 200-parenthesis limit
    # evaluates exactly, point by point and over a grid.
    L = parse_lagrangian(source)
    assert (L.eval(*point), L.d2(*point), L.d3(*point)) == expected
    t, u, v = (np.full(3, x) for x in point)
    assert (L.values(t, u, v).tolist(), *(d.tolist() for d in L.partials(t, u, v))) == tuple(
        [x] * 3 for x in expected)


# Each form nested n deep, and its (value, d2, d3) at (t, y, dy) = (0, 1, 1).
NESTINGS = {
    "parens": (lambda n: "(" * n + "y" + ")" * n, lambda n: (1.0, 1.0, 0.0)),
    "calls": (lambda n: "sqrt(" * n + "y" + ")" * n, lambda n: (1.0, 0.5 ** n, 0.0)),
    "neg": (lambda n: "-" * n + "y", lambda n: ((-1.0) ** n, (-1.0) ** n, 0.0)),
    "pow": (lambda n: "y" + "^1" * n, lambda n: (1.0, 1.0, 0.0)),
    "sum": (lambda n: "+".join(["y"] * n), lambda n: (float(n), float(n), 0.0)),
    "product": (lambda n: "*".join(["dy"] * n), lambda n: (1.0, 0.0, float(n))),
}


def _accepted(source):
    try:
        return parse_lagrangian(source)
    except ParseError as exc:
        assert "nested too deeply" in str(exc)
        return None


@pytest.mark.parametrize("form", sorted(NESTINGS))
def test_every_accepted_nesting_evaluates(form):
    # Find the deepest nesting the parser accepts (up to 4096), by doubling
    # and then bisection; that density evaluates exactly.  As both
    # densities of a problem, its pair tape, also fixed for the scale's t,
    # gives the product of the factors and a finite gradient.
    build, expected = NESTINGS[form]
    lo, hi = 1, 2
    while hi <= 4096 and _accepted(build(hi)) is not None:
        lo, hi = hi, 2 * hi
    while hi - lo > 1 and hi <= 4096:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _accepted(build(mid)) is not None else (lo, mid)
    L = _accepted(build(lo))
    point = (0.0, 1.0, 1.0)
    assert (L.eval(*point), L.d2(*point), L.d3(*point)) == expected(lo)
    values, (d2, d3) = L.values(*point), L.partials(*point)
    assert (float(values), float(d2), float(d3)) == expected(lo)
    p = VariationalProblem(uniform_scale(0.0, 1.0, 5), L, L, 1.0, 2.0)
    y = chord(p)
    assert j_product(p, y).hex() == (j_delta(p, y) * j_nabla(p, y)).hex()
    assert np.all(np.isfinite(first_variation_gradient(p, y)))


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
    # The tape is built from any tree the parser accepts, and the variable
    # check reads its root; deeper nesting is a ParseError, not a
    # RecursionError.  A long sum is not nested for the parser, and its
    # tape evaluates it.
    assert catalog("const(" + "-" * 600 + "1)").eval(0.0, 0.0, 0.0) == 1.0
    with pytest.raises(ParseError, match="nested too deeply"):
        catalog("const(" + "-" * 1000 + "1)")
    assert catalog("const(" + "+".join(["1"] * 5000) + ")").eval(0.0, 0.0, 0.0) == 5000.0


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


@pytest.mark.parametrize("name,closed_form", [
    ("kinetic_minus_potential(2)", (lambda t, u, v: 0.5 * v * v - 0.5 * 4.0 * u * u,
                                    lambda t, u, v: -4.0 * u, lambda t, u, v: v)),
    ("kinetic_minus_potential(0.3)", (lambda t, u, v: 0.5 * v * v - 0.5 * (0.3 * 0.3) * u * u,
                                      lambda t, u, v: -(0.3 * 0.3) * u, lambda t, u, v: v)),
    ("kinetic_minus_potential(7.25)", (lambda t, u, v: 0.5 * v * v - 0.5 * (7.25 * 7.25) * u * u,
                                       lambda t, u, v: -(7.25 * 7.25) * u, lambda t, u, v: v)),
    ("dy_squared", (lambda t, u, v: v * v, lambda t, u, v: 0.0 * v, lambda t, u, v: 2.0 * v)),
    ("const(0.5)", (lambda t, u, v: 0.5 + 0.0 * v, lambda t, u, v: 0.0 * v, lambda t, u, v: 0.0 * v)),
])
def test_catalog_templates_match_closed_forms(name, closed_form):
    # The expression templates reproduce the hand-written closed forms the
    # catalog entries used to be, on 20,000 points with zeros among them.
    rng = np.random.default_rng(20)
    t, u, v = rng.standard_normal((3, 20_000)) * 3.0
    u[::97] = 0.0
    v[::89] = 0.0
    L = catalog(name)
    value, d2, d3 = (f(t, u, v) for f in closed_form)
    assert np.array_equal(L.values(t, u, v), value)
    got_d2, got_d3 = L.partials(t, u, v)
    assert np.array_equal(got_d2, d2) and np.array_equal(got_d3, d3)
    for i in range(0, 20_000, 997):
        point = (float(t[i]), float(u[i]), float(v[i]))
        assert (L.eval(*point), L.d2(*point), L.d3(*point)) == (value[i], d2[i], d3[i])


def test_hand_built_densities_run_point_by_point():
    # A Lagrangian built from callables is called once per point, d2 at
    # every point before d3, and fails at its first failing point.
    calls = []

    def recorded(name, fn):
        def call(t, u, v):
            calls.append((name, t, u, v))
            return fn(t, u, v)
        return call

    L = Lagrangian(recorded("eval", lambda t, u, v: u * v), recorded("d2", lambda t, u, v: v),
                   recorded("d3", lambda t, u, v: u), "u*v")
    t, u, v = np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0])
    assert L.values(t, u, v).tolist() == [8.0, 15.0]
    d2, d3 = partials = L.partials(t, u, v)
    assert type(partials) is np.ndarray and partials.shape == (2, 2)
    assert (d2.tolist(), d3.tolist()) == ([4.0, 5.0], [2.0, 3.0])
    assert [c[0] for c in calls] == ["eval", "eval", "d2", "d2", "d3", "d3"]
    assert calls[0][1:] == (0.0, 2.0, 4.0) and all(type(x) is float for x in calls[0][1:])
    point = L.partials(1.0, 3.0, 5.0)  # one array for a single point too, as for a parsed density
    assert type(point) is np.ndarray and point.shape == (2,) and point.tolist() == [5.0, 3.0]
    bad = parse_lagrangian("log(y)")
    fussy = Lagrangian(bad.eval, bad.d2, bad.d3, "log(y)")
    for lag in (bad, fussy):
        with pytest.raises(EvalDomainError, match=r"log of non-positive value -1.0 at \(t=1.0, u=-1.0, v=5.0\)"):
            lag.values(t, np.array([2.0, -1.0]), v)


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
    ("1abc", "^malformed catalog name '1abc'$"),
    ("const", "needs a constant argument"),
    ("const(y)", "must not reference variables"),
    ("const(t)", "must not reference variables"),
    ("const(dy)", "must not reference variables"),
    ("const(0*y)", "must not reference variables"),  # a constant value still reads a variable
    ("const(sin(t) - sin(t))", "must not reference variables"),
    ("const(1 +)", "syntax error"),
    ("dy_squared(3)", "takes no argument"),
    ("kinetic_minus_potential", "needs a constant argument"),
    ("const(1e308*10)", "non-finite value"),
    ("const(1/0)", "division by zero"),
    ("const(log(0))", "log of non-positive"),
    ("const(exp(1000))", "catalog argument 'exp\\(1000\\)'"),
    ("kinetic_minus_potential(1e200)", "omega\\^2 overflows"),
    ("const(10^400)", "^catalog argument '10\\^400': overflow$"),
    ("const((-8)^(1/3))",
     "^catalog argument '\\(-8\\)\\^\\(1/3\\)': negative base -8.0 with non-integer exponent 0.3333333333333333$"),
])
def test_catalog_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        catalog(spec)


def test_register_catalog_extension():
    def build(arg, name):
        return "dy"

    register_catalog("just_velocity", build)
    try:
        L = catalog("just_velocity")
        assert L.eval(0.0, 0.0, 7.0) == 7.0
        assert L.d3(0.0, 0.0, 7.0) == 1.0
    finally:
        CATALOG_BUILDERS.pop("just_velocity", None)
