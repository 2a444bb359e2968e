"""Lagrangian densities L(t, u, v) with exact first partials.

A Lagrangian is a triple of callables: the density itself and its partial
derivatives with respect to the second slot (the shifted state ``u``) and
the third slot (the derivative ``v``).  Two ways to build one:

* ``catalog(name)`` for the built-in closed forms with hand-written
  partials, e.g. ``"dy_squared"``, ``"const(0.5)"``,
  ``"kinetic_minus_potential(2)"``;
* ``parse_lagrangian(source)`` for an expression in the variables ``t``,
  ``y`` (the shifted state) and ``dy`` (the derivative).  The expression is
  compiled once to a single Python function; the value and both partials
  call it, the partials on forward-mode dual numbers.

Expression grammar, tightest binding first: parentheses and function
application; ``^`` (right-associative); unary minus; ``*`` and ``/``;
``+`` and ``-``.  So ``-y^2`` is ``-(y^2)`` and ``2^3^2`` is ``2^(3^2)``.
Functions: sin, cos, exp, log, sqrt.  Numbers are decimal literals with an
optional exponent part.

Evaluation outside the real domain (log or square root of a negative,
division by zero, a negative base under a fractional power, sine or cosine
of an infinite value) raises
``EvalDomainError`` carrying the probe point (t, u, v).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import dual
from .dual import Dual

__all__ = [
    "CATALOG_BUILDERS",
    "EvalDomainError",
    "Lagrangian",
    "ParseError",
    "catalog",
    "parse",
    "parse_lagrangian",
    "register_catalog",
    "to_source",
]

VARIABLES = ("t", "y", "dy")
FUNCTIONS = {"sin": dual.sin, "cos": dual.cos, "exp": dual.exp, "log": dual.log, "sqrt": dual.sqrt}


class ParseError(ValueError):
    """Expression rejected; ``position`` is the offset just past the bad lexeme."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class EvalDomainError(ArithmeticError):
    """A density left the real domain; carries the probe point."""

    def __init__(self, message: str, t: float, u: float, v: float):
        super().__init__(f"{message} at (t={t!r}, u={u!r}, v={v!r})")
        self.t = t
        self.u = u
        self.v = v


@dataclass(frozen=True)
class Lagrangian:
    """Density and exact first partials in the second and third slots."""

    eval: Callable[[float, float, float], float]
    d2: Callable[[float, float, float], float]
    d3: Callable[[float, float, float], float]
    origin: str


class Token(NamedTuple):
    kind: str  # "num", "ident", one of "+-*/^()", or "eof"
    text: str
    start: int
    end: int


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^()])"
)


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"syntax error at offset {pos + 1}: unexpected character {source[pos]!r}",
                pos + 1,
            )
        kind = m.lastgroup
        text = m.group()
        tokens.append(Token(text if kind == "op" else kind, text, pos, m.end()))
        pos = m.end()
    tokens.append(Token("eof", "", n, n))
    return tokens


class _Parser:
    """Recursive descent over the token list; AST nodes are plain tuples."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: Token, expected: str) -> ParseError:
        got = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(
            f"syntax error at offset {tok.end}: expected {expected}, got {got}", tok.end
        )

    def expr(self) -> tuple:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> tuple:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = ("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self) -> tuple:
        if self.peek().kind == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self) -> tuple:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            return ("pow", base, self.unary())
        return base

    def atom(self) -> tuple:
        tok = self.take()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {tok.text!r} at offset {tok.end}", tok.end
                    )
                self.take()
                arg = self.expr()
                closing = self.take()
                if closing.kind != ")":
                    raise self.fail(closing, "')'")
                return ("call", tok.text, arg)
            if tok.text not in VARIABLES:
                raise ParseError(
                    f"unknown identifier {tok.text!r} at offset {tok.end}", tok.end
                )
            return ("var", tok.text)
        if tok.kind == "(":
            node = self.expr()
            closing = self.take()
            if closing.kind != ")":
                raise self.fail(closing, "')'")
            return node
        raise self.fail(tok, "a number, variable, function call, or '('")


def parse(source: str) -> tuple:
    """Parse an expression into a tuple AST."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise parser.fail(trailing, "end of input")
    return node


# Node precedence for parenthesis-minimal printing.
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "num": 5, "var": 5, "call": 5}


def to_source(node: tuple) -> str:
    """Render an AST back to a string that reparses to the same expression."""
    return _render(node, 0)


def _render(node: tuple, context: int) -> str:
    tag = node[0]
    if tag == "num":
        text = repr(node[1])
    elif tag == "var":
        text = node[1]
    elif tag == "call":
        text = f"{node[1]}({_render(node[2], 0)})"
    elif tag == "neg":
        text = f"-{_render(node[1], _PREC['neg'])}"
    elif tag == "pow":
        # Left side must be an atom; the right side admits unary expressions.
        text = f"{_render(node[1], _PREC['pow'] + 1)}^{_render(node[2], _PREC['neg'])}"
    else:
        symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[tag]
        left = _render(node[1], _PREC[tag])
        right = _render(node[2], _PREC[tag] + 1)
        text = f"{left} {symbol} {right}"
    if _PREC[tag] < context:
        return f"({text})"
    return text


# The compiled lambda's only globals; names come from the parser's whitelist.
_SCOPE = {"__builtins__": {}, "power": dual.power, **FUNCTIONS}
_BINARY = {"add": ast.Add, "sub": ast.Sub, "mul": ast.Mult, "div": ast.Div}


def _lower(node: tuple) -> ast.expr:
    tag = node[0]
    if tag == "num":
        return ast.Constant(node[1])
    if tag == "var":
        return ast.Name(node[1], ast.Load())
    if tag == "neg":
        return ast.UnaryOp(ast.USub(), _lower(node[1]))
    if tag == "call":
        return ast.Call(ast.Name(node[1], ast.Load()), [_lower(node[2])], [])
    if tag == "pow":
        return ast.Call(ast.Name("power", ast.Load()), [_lower(node[1]), _lower(node[2])], [])
    return ast.BinOp(_lower(node[1]), _BINARY[tag](), _lower(node[2]))


def _compile(node: tuple) -> Callable:
    """Compile an AST once into one Python function of (t, y, dy).

    It takes floats or duals in any slot, so one compilation serves the value
    and both partials.  Built from Python AST nodes, not source text, it has
    no nesting limit from the tokenizer.
    """
    params = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in VARIABLES],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, _lower(node))))
    return eval(compile(tree, "<density>", "eval"), _SCOPE)


def _guarded(raw: Callable, assemble: Callable) -> Callable[[float, float, float], float]:
    def run(t: float, u: float, v: float) -> float:
        try:
            out = assemble(raw, t, u, v)
        except dual.DomainError as exc:
            raise EvalDomainError(str(exc), t, u, v) from exc
        except ZeroDivisionError as exc:
            raise EvalDomainError("division by zero", t, u, v) from exc
        except OverflowError as exc:
            raise EvalDomainError("overflow", t, u, v) from exc
        if not math.isfinite(out):
            raise EvalDomainError("non-finite value", t, u, v)
        return out

    return run


def _value(raw, t, u, v):
    return float(raw(t, u, v))


def _seed_u(raw, t, u, v):
    out = raw(t, Dual(u, 1.0), Dual(v, 0.0))
    return out.dot if isinstance(out, Dual) else 0.0


def _seed_v(raw, t, u, v):
    out = raw(t, Dual(u, 0.0), Dual(v, 1.0))
    return out.dot if isinstance(out, Dual) else 0.0


def parse_lagrangian(source: str) -> Lagrangian:
    """Build a Lagrangian from expression source; partials via dual numbers."""
    raw = _compile(parse(source))
    return Lagrangian(
        eval=_guarded(raw, _value),
        d2=_guarded(raw, _seed_u),
        d3=_guarded(raw, _seed_v),
        origin=source,
    )


def _contains_var(node: tuple) -> bool:
    tag = node[0]
    if tag == "var":
        return True
    if tag == "num":
        return False
    return any(_contains_var(child) for child in node[1:] if isinstance(child, tuple))


def _constant_argument(text: str, name: str) -> float:
    if text is None or not text.strip():
        raise ValueError(f"catalog entry {name!r} needs a constant argument")
    node = parse(text)
    if _contains_var(node):
        raise ValueError(f"catalog argument {text!r} must not reference variables")
    try:
        value = float(_compile(node)(0.0, 0.0, 0.0))
    except ArithmeticError as exc:
        raise ValueError(f"catalog argument {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"catalog argument {text!r} is not finite")
    return value


def _build_const(arg: str | None, name: str) -> Lagrangian:
    k = _constant_argument(arg, name)
    zero = lambda t, u, v: 0.0  # noqa: E731
    return Lagrangian(lambda t, u, v: k, zero, zero, name)


def _build_dy_squared(arg: str | None, name: str) -> Lagrangian:
    if arg is not None:
        raise ValueError("dy_squared takes no argument")
    return Lagrangian(
        lambda t, u, v: v * v,
        lambda t, u, v: 0.0,
        lambda t, u, v: 2.0 * v,
        name,
    )


def _build_kinetic_minus_potential(arg: str | None, name: str) -> Lagrangian:
    omega = _constant_argument(arg, name)
    w2 = omega * omega
    if not math.isfinite(w2):
        raise ValueError(f"catalog argument {arg!r}: omega^2 overflows")
    return Lagrangian(
        lambda t, u, v: 0.5 * v * v - 0.5 * w2 * u * u,
        lambda t, u, v: -w2 * u,
        lambda t, u, v: v,
        name,
    )


CATALOG_BUILDERS: dict[str, Callable[[str | None, str], Lagrangian]] = {
    "const": _build_const,
    "dy_squared": _build_dy_squared,
    "kinetic_minus_potential": _build_kinetic_minus_potential,
}


def register_catalog(name: str, builder: Callable[[str | None, str], Lagrangian]) -> None:
    """Add a catalog entry; the builder receives (argument_text, full_name)."""
    CATALOG_BUILDERS[name] = builder


_CATALOG_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def catalog(name: str) -> Lagrangian:
    """Look up a closed-form Lagrangian, e.g. ``"const(0.5)"`` or ``"dy_squared"``."""
    m = _CATALOG_RE.match(name.strip())
    if m is None:
        raise ValueError(f"malformed catalog name {name!r}")
    base, arg = m.group(1), m.group(2)
    builder = CATALOG_BUILDERS.get(base)
    if builder is None:
        known = ", ".join(sorted(CATALOG_BUILDERS))
        raise ValueError(f"unknown catalog Lagrangian {base!r}; known entries: {known}")
    return builder(arg, name.strip())
