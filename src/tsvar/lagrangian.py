"""Lagrangian densities L(t, u, v) with exact first partials.

A Lagrangian is the density and its partial derivatives with respect to the
second slot (the shifted state ``u``) and the third slot (the derivative
``v``).  Two ways to build one:

* ``parse_lagrangian(source)`` for an expression in the variables ``t``,
  ``y`` (the shifted state) and ``dy`` (the derivative);
* ``catalog(name)`` for a named template, e.g. ``"dy_squared"``,
  ``"const(0.5)"``, ``"kinetic_minus_potential(2)"``, which expands to
  expression source (``dy*dy``, ``0.5``, ``0.5*dy*dy - 0.5*4.0*y*y``) and
  is parsed like any other.

A parsed density's AST is hash-consed once into a tape and compiled into
rule steps (``tsvar.program.Program``).
``Lagrangian.values`` runs them over whole arrays of (t, u, v);
``Lagrangian.partials`` runs them once carrying two forward-mode
tangents, seeded in ``y`` and in ``dy``.  ``+ - * /``, negation, ``^``
and ``sqrt`` run as numpy array operations that round as Python's
arithmetic, ``pow`` and ``math.sqrt`` do (``^`` as ``float_power``,
which calls libm's ``pow``; numpy's ``power`` does not match it);
``exp``, ``log``, ``sin`` and ``cos`` run per element through ``math``,
because numpy does not promise libm's results for them.  The per-point
callables ``eval``, ``d2`` and ``d3`` run the same steps as a pass over
0-d arrays, so a grid pass gives bit for bit what they give at
each point.  A ``Lagrangian(eval, d2, d3, origin)`` built by hand has no
program and calls its callables once per point.  Two places branch on
that: ``_pass`` here, and ``tsvar.variational._passes``, where
``p._tape is None``.  Otherwise the product functional runs a pair of
parsed densities as one hash-consed tape, which computes each subtree
they share once.

Expression grammar, tightest binding first: parentheses and function
application; ``^`` (right-associative); unary minus; ``*`` and ``/``;
``+`` and ``-``.  So ``-y^2`` is ``-(y^2)`` and ``2^3^2`` is ``2^(3^2)``.
Functions: sin, cos, exp, log, sqrt.  Numbers are decimal literals with an
optional exponent part.  At Python's default recursion limit the parser
accepts about 190 nested parentheses or calls, 490 chained ``^`` or 980
unary minus signs; a deeper expression raises ``ParseError`` with position
0.  A sum or product may have any number of terms.  Every expression the
parser accepts evaluates.

Evaluation outside the real domain (log or square root of a negative,
division by zero, a negative base under a fractional power, sine or cosine
of an infinite value, overflow, a non-finite result) raises
``EvalDomainError`` carrying the probe point (t, u, v).  ``tsvar.program``
raises it from the pass itself: the error of the first failing point, every
``d2`` failure before any ``d3`` failure, with the message of the first
check a dual-number walk of that point fails.  Nothing is evaluated again.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .program import COMPUTES, FUNCTIONS, SEED_U, SEED_V, SEEDS, VARIABLES, EvalDomainError, Program, run
from .record import Record

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


class ParseError(ValueError):
    """Expression rejected; ``position`` is the offset just past the bad lexeme."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class Lagrangian(Record):
    """Density and exact first partials in the second and third slots.

    ``eval``, ``d2`` and ``d3`` take one point (t, u, v).  ``program`` is
    the tape of a parsed density, built from its AST, or None for one built
    by hand from callables, which ``_pass`` alone tells apart.
    """

    eval: Callable[[float, float, float], float]
    d2: Callable[[float, float, float], float]
    d3: Callable[[float, float, float], float]
    origin: str
    program: Program | None = None

    def values(self, t, u, v) -> np.ndarray:
        """The density at every point of the broadcast arrays (t, u, v)."""
        return self._pass(t, u, v)

    def partials(self, t, u, v) -> np.ndarray:
        """``d2`` and ``d3`` at every point of the broadcast arrays (t, u, v), as one array's rows."""
        return self._pass(t, u, v, SEEDS)

    def _pass(self, t, u, v, seeds: tuple = (), strict: bool = True) -> np.ndarray:
        """``run``'s output over (t, u, v), ``seeds`` () or ``SEEDS``; by hand, each callable once per point."""
        if self.program is not None:
            return run(self.program, t, u, v, seeds, strict)
        fns = (self.d2, self.d3) if seeds else (self.eval,)
        out = _per_point([fn if strict else partial(_nan_on_error, fn) for fn in fns], t, u, v)
        return np.array(out) if seeds else out[0]


def _nan_on_error(fn, t: float, u: float, v: float) -> float:
    try:
        return fn(t, u, v)
    except EvalDomainError:
        return math.nan


def _per_point(fns, t, u, v) -> list[np.ndarray]:
    """Each callable at every point in turn, the way hand-built densities run."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(u), np.shape(v))
    points = list(zip(*(np.broadcast_to(x, shape).ravel().tolist() for x in (t, u, v))))
    return [np.array([fn(*a) for a in points], dtype=float).reshape(shape) for fn in fns]


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
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression is nested too deeply", 0) from None
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
        text = "1e999" if node[1] == math.inf else repr(node[1])
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


def _point(program: Program, seeds: tuple, t: float, u: float, v: float) -> float:
    """The value (no seeds) or the one seeded partial at a single point."""
    out = run(program, float(t), float(u), float(v), seeds)
    return float(out[0] if seeds else out)


def parse_lagrangian(source: str) -> Lagrangian:
    """Build a Lagrangian from expression source; partials by forward-mode tangents."""
    program = Program(parse(source))
    return Lagrangian(
        eval=partial(_point, program, ()),
        d2=partial(_point, program, (SEED_U,)),
        d3=partial(_point, program, (SEED_V,)),
        origin=source,
        program=program,
    )


def _constant_argument(text: str, name: str) -> float:
    if text is None or not text.strip():
        raise ValueError(f"catalog entry {name!r} needs a constant argument")
    program = Program(parse(text))
    if program.reads[program.outs[0][0]] & ~COMPUTES:  # a slot's bit, even where the value is constant
        raise ValueError(f"catalog argument {text!r} must not reference variables")
    try:
        return float(run(program, 0.0, 0.0, 0.0))
    except EvalDomainError as exc:
        raise ValueError(f"catalog argument {text!r}: {exc.reason}") from None


def _build_const(arg: str | None, name: str) -> str:
    return repr(_constant_argument(arg, name))


def _build_dy_squared(arg: str | None, name: str) -> str:
    if arg is not None:
        raise ValueError("dy_squared takes no argument")
    return "dy*dy"


def _build_kinetic_minus_potential(arg: str | None, name: str) -> str:
    omega = _constant_argument(arg, name)
    w2 = omega * omega
    if not math.isfinite(w2):
        raise ValueError(f"catalog argument {arg!r}: omega^2 overflows")
    return f"0.5*dy*dy - 0.5*{w2!r}*y*y"


CATALOG_BUILDERS: dict[str, Callable[[str | None, str], str]] = {
    "const": _build_const,
    "dy_squared": _build_dy_squared,
    "kinetic_minus_potential": _build_kinetic_minus_potential,
}


def register_catalog(name: str, builder: Callable[[str | None, str], str]) -> None:
    """Add a catalog entry.

    The builder receives (argument_text, full_name) and returns the entry's
    expression source, which ``catalog`` parses.
    """
    CATALOG_BUILDERS[name] = builder


_CATALOG_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def catalog(name: str) -> Lagrangian:
    """Look up a named template, e.g. ``"const(0.5)"`` or ``"dy_squared"``."""
    m = _CATALOG_RE.match(name.strip())
    if m is None:
        raise ValueError(f"malformed catalog name {name!r}")
    base, arg = m.group(1), m.group(2)
    builder = CATALOG_BUILDERS.get(base)
    if builder is None:
        known = ", ".join(sorted(CATALOG_BUILDERS))
        raise ValueError(f"unknown catalog Lagrangian {base!r}; known entries: {known}")
    return parse_lagrangian(builder(arg, name.strip())).replace(origin=name.strip())
