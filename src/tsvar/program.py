"""Flat instruction lists: how a parsed density is evaluated.

``flatten`` turns an expression AST into instructions in evaluation order.
``run`` executes them over arrays of (t, y, dy), optionally carrying one
forward-mode tangent per seed by the rules of first-order dual numbers
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008),
elementwise.  Numpy performs only ``+ - * /`` and negation; ``^`` and the
functions run per element through Python's ``**`` and ``math``.  The same
instructions run over single floats to evaluate one point, which is how
errors are reported: ``Failure`` carries the message of the first check a
dual-number walk of that point fails.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from typing import Callable

import numpy as np

VARIABLES = ("t", "y", "dy")


class Failure(ArithmeticError):
    """One point left the real domain; the message says how."""


def _float_pow(a: float, c: float) -> float:
    # float ** float silently goes complex for a negative base with a
    # fractional exponent; reject that and the zero-to-negative case up front.
    if a < 0.0 and not c.is_integer():
        raise Failure(f"negative base {a!r} with non-integer exponent {c!r}")
    if a == 0.0 and c < 0.0:
        raise Failure(f"zero base with negative exponent {c!r}")
    try:
        return a ** c
    except OverflowError:
        raise Failure("overflow") from None


def _sin(x: float) -> float:
    try:
        return math.sin(x)
    except ValueError:  # math.sin rejects +-inf with a bare ValueError
        raise Failure(f"sin of infinite value {x!r}") from None


def _cos(x: float) -> float:
    try:
        return math.cos(x)
    except ValueError:
        raise Failure(f"cos of infinite value {x!r}") from None


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise Failure("overflow") from None


def _log(x: float) -> float:
    if x <= 0.0:
        raise Failure(f"log of non-positive value {x!r}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise Failure(f"square root of negative value {x!r}")
    return math.sqrt(x)


FUNCTIONS = {"sin": _sin, "cos": _cos, "exp": _exp, "log": _log, "sqrt": _sqrt}


def _column(x, shape: tuple) -> list | None:
    """An array operand as a flat list of Python floats over ``shape``; None for a scalar."""
    if not (isinstance(x, np.ndarray) and x.ndim):
        return None
    if x.shape != shape:
        x = np.broadcast_to(x, shape)
    return x.tolist() if x.ndim == 1 else x.ravel().tolist()


# The unchecked C twin of each checked function, run by ``map``.
_TWINS = {_float_pow: pow, _sin: math.sin, _cos: math.cos, _exp: math.exp, _log: math.log, _sqrt: math.sqrt}


def _rejected(fn: Callable, x, z=None):
    """Where ``fn``'s domain check fails, as a mask, or None where it never does.

    The twin must not see these elements.  It may still raise elsewhere
    (overflow, or sin or cos of an infinite value), and those elements
    fail one by one.
    """
    if fn is _log:
        mask = np.less_equal(x, 0.0)
    elif fn is _sqrt:
        mask = np.less(x, 0.0)
    elif fn is _float_pow:
        c = float(z)
        if c >= 0.0 and c.is_integer():
            return None
        mask = np.less(x, 0.0) if not c.is_integer() else np.False_
        if c < 0.0:
            mask = mask | np.equal(x, 0.0)
    else:
        return None
    return mask if mask.any() else None


# The tangents of (y, dy) in each seed: d/du first, then d/dv.
SEED_U = (1.0, 0.0)
SEED_V = (0.0, 1.0)
SEEDS = (SEED_U, SEED_V)


def flatten(node: tuple) -> tuple[tuple, ...]:
    """The AST as instructions in evaluation order, by an iterative post-order walk.

    Instruction i is ``(op, a, b, dual)`` and computes register i.  ``a`` and
    ``b`` are the registers of the operands (``b`` is None for unary ops);
    for ``num`` ``a`` is the literal and for ``var`` the slot (0 t, 1 y,
    2 dy).  ``dual`` tells whether the result depends on y or dy, that is,
    whether a dual-number walk would carry a tangent there.
    """
    code: list[tuple] = []
    done: list[int] = []  # register of each finished subtree
    todo = [(node, False)]
    while todo:
        node, ready = todo.pop()
        tag = node[0]
        if tag == "num":
            code.append(("num", node[1], None, False))
        elif tag == "var":
            code.append(("var", VARIABLES.index(node[1]), None, node[1] != "t"))
        elif not ready:
            todo.append((node, True))
            todo.extend((child, False) for child in reversed(node[2:] if tag == "call" else node[1:]))
            continue
        else:
            arity = 1 if tag in ("neg", "call") else 2
            args = done[-arity:]
            del done[-arity:]
            op = node[1] if tag == "call" else tag
            code.append((op, args[0], args[1] if arity == 2 else None, any(code[i][3] for i in args)))
        done.append(len(code) - 1)
    return tuple(code)


class _Pass:
    """The bookkeeping of one run of a program.

    A grid pass runs over arrays and collects, per output, the masks of the
    points where some check fails; a failed point's later registers hold
    garbage that no other point sees.  A point pass runs over floats and
    raises ``Failure`` at the first failing check, in the order a dual-number
    walk meets them.  Output 0 is the value in a value pass; otherwise
    output k is the tangent of seed k.
    """

    def __init__(self, shape: tuple, outputs: int, point: bool):
        self.shape = shape
        self.point = point
        self.checks: list[list] = [[] for _ in range(outputs)]

    def fail(self, mask, message, k: int | None = None) -> None:
        """The check ``mask`` fails for output ``k``, or for every output."""
        if self.point:
            if mask:
                raise Failure(message() if callable(message) else message)
        else:
            for checks in self.checks if k is None else (self.checks[k],):
                checks.append(mask)

    def failures(self) -> list:
        """Per output: the full-shape mask of its failed points, or None."""
        out = []
        for checks in self.checks:
            bad = reduce(np.logical_or, checks) if checks else None
            out.append(np.broadcast_to(bad, self.shape) if bad is not None and bad.any() else None)
        return out

    def each(self, fn: Callable, *xs):
        """``fn`` per element on Python floats; a failure fails every output."""
        out, failed = self.apply(fn, *xs)
        if failed is not None:
            self.fail(failed, "")
        return out

    def apply(self, fn: Callable, *xs):
        """``fn`` per element on Python floats, and the mask of failed elements or None."""
        cols = [_column(x, self.shape) for x in xs]
        if all(col is None for col in cols):
            try:
                return fn(*(float(x) for x in xs)), None
            except Failure:
                if self.point:
                    raise
                return math.nan, np.True_
        shape = self.shape
        args = [repeat(float(x)) if col is None else col for x, col in zip(xs, cols)]
        rejected = None
        if fn is not _float_pow or cols[1] is None:
            # With a varying exponent, the power's domain depends on each
            # exponent being an integer; it keeps its checked form.
            rejected = _rejected(fn, *xs)
            if rejected is not None:  # the twin gets 1.0 there instead
                args[0] = _column(np.where(rejected, 1.0, xs[0]), shape)
            fn = _TWINS[fn]
        # An element fails alone: map has consumed its arguments, so the
        # next map goes on from the element after it.
        out: list = []
        failed: list = []
        its = [iter(a) for a in args]
        while True:
            try:
                out.extend(map(fn, *its))
                break
            except (ArithmeticError, ValueError):
                failed.append(len(out))
                out.append(math.nan)
        if failed:
            mask = np.zeros(len(out), dtype=bool)
            mask[failed] = True
            mask = mask.reshape(shape)
            rejected = mask if rejected is None else rejected | mask
        return np.array(out).reshape(shape), rejected

    def plain(self, op: str, x, z):
        """Float semantics: the value walk, and every subtree free of y and dy."""
        if op == "add":
            return x + z
        if op == "sub":
            return x - z
        if op == "mul":
            return x * z
        if op == "div":
            self.fail(np.equal(z, 0.0), "division by zero")
            return np.divide(x, z)
        if op == "neg":
            return -x
        if op == "pow":
            return self.each(_float_pow, x, z)
        return self.each(FUNCTIONS[op], x)

    def dual(self, op: str, x, tx, z, tz):
        """Dual-number semantics, one tangent per seed; ``tz`` is None for a plain ``z``."""
        if tz is None:
            tz = [0.0] * len(tx)  # the tangents a dual-number walk lifts a float to
        if op == "add":
            return x + z, [p + q for p, q in zip(tx, tz)]
        if op == "sub":
            return x - z, [p - q for p, q in zip(tx, tz)]
        if op == "mul":
            return x * z, [p * z + x * q for p, q in zip(tx, tz)]
        if op == "div":
            self.fail(np.equal(z, 0.0), "division by zero")
            val = np.divide(x, z)
            return val, [np.divide(p - val * q, z) for p, q in zip(tx, tz)]
        if op == "neg":
            return -x, [-p for p in tx]
        if op == "pow":
            return self.power(x, tx, z, tz)
        val = self.each(FUNCTIONS[op], x)
        if op == "sin":
            d = self.each(_cos, x)
            return val, [d * p for p in tx]
        if op == "cos":
            d = self.each(_sin, x)
            return val, [-d * p for p in tx]
        if op == "exp":
            return val, [val * p for p in tx]
        if op == "log":
            return val, [np.divide(p, x) for p in tx]
        # sqrt: at zero the value is +0.0, and only a zero tangent survives.
        zero = np.equal(x, 0.0)
        for k, p in enumerate(tx):
            self.fail(zero & np.not_equal(p, 0.0), "square root not differentiable at zero", k)
        return np.where(zero, 0.0, val), [np.where(zero, 0.0, np.divide(p, 2.0 * val)) for p in tx]

    def power(self, b, tb, e, te):
        """``b ^ e`` by the dual rules, chosen per element and seed.

        Where the exponent's tangent is zero the power rule applies, with
        its own cases at a zero base; elsewhere the base must be positive.
        """
        fixed = [np.equal(q, 0.0) for q in te]
        free = [not np.all(f) for f in fixed]
        for k, f in enumerate(fixed):
            if free[k]:
                self.fail(~f & np.less_equal(b, 0.0),
                          lambda: f"base {float(b)!r} must be positive when the exponent carries a derivative", k)
        value = self.each(_float_pow, b, e)
        live = np.not_equal(e, 0.0)
        at_zero = np.equal(b, 0.0) & live  # the value is +0.0 here, where the walk goes on
        any_zero = np.any(at_zero)
        ruled = live & ~at_zero & reduce(np.logical_or, fixed)
        # A base of 1.0 keeps the power rule from failing where it does not apply.
        power_rule, rule_failed = self.apply(_float_pow, np.where(ruled, b, 1.0), e - 1.0)
        log_b = self.each(_log, np.where(np.less_equal(b, 0.0), 1.0, b)) if any(free) else None
        tangents = []
        for k, (f, p, q) in enumerate(zip(fixed, tb, te)):
            if rule_failed is not None:
                self.fail(rule_failed & f, "", k)
            tangent = np.where(live, e * power_rule * p, 0.0)
            if any_zero:  # only exponents >= 1, or a zero base tangent, survive
                self.fail(f & at_zero & ~np.greater_equal(e, 1.0) & np.not_equal(p, 0.0),
                          lambda: f"power {float(e)!r} not differentiable at zero base", k)
                tangent = np.where(at_zero, np.where(np.equal(e, 1.0), p, 0.0), tangent)
            if free[k]:
                tangent = np.where(f, tangent, value * (q * log_b + np.divide(e * p, b)))
            tangents.append(tangent)
        return (np.where(at_zero, 0.0, value) if any_zero else value), tangents


def run(program: tuple, t, y, dy, seeds: tuple = (), point: bool = False, finite: bool = True):
    """Run ``program`` over (t, y, dy); return its outputs and failure masks.

    Without seeds the output is the value, with float semantics throughout.
    With seeds there is one output per seed: the tangent a dual-number walk
    with that seed would return, 0.0 for a density free of y and dy.  A
    grid pass returns full-shape arrays and, per output, the mask of its
    failed points or None (a non-finite output fails unless ``finite`` is
    false); a point pass takes floats, returns 0-d results and raises
    ``Failure`` instead.
    """
    slots = (t, y, dy) if point else tuple(np.asarray(x, dtype=float) for x in (t, y, dy))
    shape = np.broadcast(*slots).shape
    state = _Pass(shape, max(len(seeds), 1), point)
    vals: list = []
    tans: list = []  # per register: one tangent per seed, or None where plain
    with np.errstate(all="ignore"):
        for op, a, b, dual in program:
            tan = None
            if op == "num":
                val = a
            elif op == "var":
                val = slots[a]
                if seeds and dual:
                    tan = [seed[a - 1] for seed in seeds]
            elif seeds and dual:
                if b is None:
                    val, tan = state.dual(op, vals[a], tans[a], None, None)
                else:
                    val, tan = state.dual(op, vals[a], tans[a] or [0.0] * len(seeds), vals[b], tans[b])
            else:
                val = state.plain(op, vals[a], None if b is None else vals[b])
            vals.append(val)
            tans.append(tan)
        outs = (tans[-1] or [0.0] * len(seeds)) if seeds else [vals[-1]]
        if finite:
            for k, out in enumerate(outs):
                ok = np.isfinite(out)
                if not ok.all():
                    state.fail(~ok, "non-finite value", k)
    if point:
        return outs, None
    return [out if np.shape(out) == shape else np.full(shape, out) for out in outs], state.failures()
