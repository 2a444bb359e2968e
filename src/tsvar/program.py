"""Flat instruction lists: how a parsed density is evaluated.

``flatten`` turns an expression AST into instructions in evaluation order.
``run`` executes them over (t, y, dy) as arrays of any shape, a single
point as 0-d arrays, optionally carrying forward-mode tangents by the rules
of first-order dual numbers (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008), elementwise, every seed's in one array (the vector
forward mode).  An exponent free of y and dy is passive: ``b ^ c`` takes
the power rule c * b^(c-1) * db at every point.  numpy performs
``+ - * /``, negation, ``^`` and ``sqrt``: ``float_power`` calls the C
library's ``pow`` per element, as Python's ``pow`` does, and a square root
is correctly rounded.  ``exp``, ``log``, ``sin`` and ``cos`` run per element through
``math``: numpy does not promise libm's results for them, and its ``exp``
and ``log`` differ in the last bit for some inputs.  Every check of the
real domain is a mask with a message, and so are the errors ``math.exp``,
``math.sin`` and ``math.cos`` raise, so the per-element map never raises;
an overflowing ``pow`` is found from its infinite result.  A pass keeps
one record of the checks that failed, and ``run`` raises the first
failure's ``EvalDomainError`` with the message of the first check that
fails there: the error a dual-number walk of that point raises.  A run that is
not strict puts nan at every failed point instead.

A ``Plan`` lets the two passes of a delta/nabla density pair share
registers.  Both read one array of difference quotients as dy, so the
nabla pass takes over each delta register that it repeats and that reads
only dy and literals (``dy^2`` in ``dy^2 + y^2`` / ``dy^2 + 1``); and the
registers that read only t are computed once for every pass over one t.
A register taken over replays the failure records it made where the
taker's walk reaches it, so every value, partial, nan and error stays bit
for bit what the pass alone gives.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

VARIABLES = ("t", "y", "dy")

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}


# The largest float whose exp is finite: math.exp raises OverflowError past it.
EXP_LIMIT = 709.782712893384


def _domain(fn: Callable, x, z=None) -> list:
    """The checks that keep ``fn`` in the real domain, or from raising, and fail somewhere.

    Each is a mask and a message template over the operands; ``fn`` must
    not see the elements they reject.  An overflowing ``pow`` is found
    from its result instead (see ``_Pass.each``).
    """
    if fn is pow:
        # Python's pow goes complex for a negative base under a fractional
        # exponent, and raises for a zero base under a negative one.
        if not (isinstance(z, np.ndarray) and z.ndim):
            z = float(z)
            if z >= 0.0 and z.is_integer():
                return []
        if not np.count_nonzero(np.less_equal(x, 0.0)):  # both rules need a base <= 0
            return []
        fractional = np.not_equal(z - np.trunc(z), 0.0)  # inf and nan too, as float.is_integer says
        checks = [(np.less(x, 0.0) & fractional, "negative base {0!r} with non-integer exponent {1!r}"),
                  (np.equal(x, 0.0) & np.less(z, 0.0), "zero base with negative exponent {1!r}")]
    elif fn is math.log:
        checks = [(np.less_equal(x, 0.0), "log of non-positive value {0!r}")]
    elif fn is math.sqrt:
        checks = [(np.less(x, 0.0), "square root of negative value {0!r}")]
    elif fn is math.exp:
        checks = [(np.greater(x, EXP_LIMIT) & np.less(x, math.inf), "overflow")]
    else:  # math.sin and math.cos raise ValueError at +-inf
        checks = [(np.isinf(x), f"{fn.__name__} of infinite value {{0!r}}")]
    return [check for check in checks if np.count_nonzero(check[0])]


# The tangents of (y, dy) in each seed: d/du first, then d/dv.
SEED_U = (1.0, 0.0)
SEED_V = (0.0, 1.0)
SEEDS = (SEED_U, SEED_V)


@lru_cache(maxsize=16)
def _seed_columns(seeds: tuple, rank: int) -> tuple:
    """The tangents of y and dy in each seed, and the zero tangents, for points of rank ``rank``.

    Each is shaped (K, 1, ..., 1) with ``rank`` ones, built once and
    read-only: every pass shares them, and ``run`` returns none of them.
    """
    columns = np.reshape(np.transpose(seeds), (2, len(seeds)) + (1,) * rank)
    zero = np.zeros_like(columns[0])  # the tangents a dual-number walk lifts a float to
    columns.flags.writeable = zero.flags.writeable = False
    return (columns[0], columns[1]), zero


class EvalDomainError(ArithmeticError):
    """A density left the real domain; carries the bare ``reason`` and the probe point."""

    def __init__(self, reason: str, t: float, u: float, v: float):
        super().__init__(f"{reason} at (t={t!r}, u={u!r}, v={v!r})")
        self.reason = reason
        self.t = t
        self.u = u
        self.v = v


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

    With K seeds a register's tangents are one array with a leading seed
    axis; those of y and dy are the shared seed columns, shaped (K, 1, ..., 1).
    ``shape`` is the output's.  ``failed``, the pass's one failure record,
    holds each failed check as (mask, template, operands) and the register
    it failed in; a value check's mask broadcasts over the seeds, and
    ``run`` formats the template with the operands at the flat index it
    raises for.  Checks come in the order a dual-number walk meets them, so
    at a point that already failed the earlier message stands.  A failed
    point's later registers hold garbage that no other point sees.
    """

    def __init__(self, slots: tuple, seeds: tuple):
        self.shape = np.broadcast(*slots).shape
        if seeds:
            self.seeds, self.zero = _seed_columns(seeds, len(self.shape))
            self.shape = (len(seeds),) + self.shape
        self.failed: list = []
        self.vals: list = []  # per register, its value; the next one is being computed

    def fail(self, mask, template: str, *operands) -> None:
        """The check ``mask`` fails where it is true; ``template`` formats the operands there."""
        if np.count_nonzero(mask):
            self.failed.append((mask, template, operands, len(self.vals)))

    def at(self, x, i: int):
        """Operand or mask ``x``, broadcast to the output's shape, at flat index ``i``."""
        return np.broadcast_to(x, self.shape).flat[i]

    def each(self, fn: Callable, *xs, where=True):
        """``fn`` over the operands, recording the checks it fails where ``where`` is true.

        ``pow`` and ``sqrt`` run as numpy's ``float_power`` and ``sqrt``,
        which give libm's ``pow`` and the correctly rounded root bit for
        bit; the other functions run per element, over operands of any
        rank.  Where a check fails the first operand is 1.0 instead.
        """
        checks = _domain(fn, *xs)
        x = xs[0]
        if checks:
            x = np.where(reduce(np.logical_or, (mask for mask, _ in checks)), 1.0, x)
            for mask, template in checks:
                self.fail(mask & where, template, *xs)
        if fn is pow:
            z = xs[1]
            out = np.float_power(x, z)
            inf = np.isinf(out)
            if np.count_nonzero(inf):  # where Python's pow raises OverflowError
                self.fail(inf & np.isfinite(x) & np.isfinite(z) & where, "overflow")
            return out
        if fn is math.sqrt:
            return np.sqrt(x)
        # The map never raises: the checks keep fn in its domain.
        x = np.asarray(x)
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)

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
            return self.each(pow, x, z)
        return self.each(FUNCTIONS[op], x)

    def dual(self, op: str, x, tx, z, tz):
        """Dual-number semantics, one rule for every seed's tangents; a plain operand's are None."""
        if tx is None:
            tx = self.zero
        if op == "pow":
            return self.power(x, tx, z, tz)
        if tz is None:
            tz = self.zero
        val = self.plain(op, x, z)
        if op == "add":
            return val, tx + tz
        if op == "sub":
            return val, tx - tz
        if op == "mul":
            return val, tx * z + x * tz
        if op == "div":
            return val, np.divide(tx - val * tz, z)
        if op == "neg":
            return val, -tx
        if op == "sin":
            return val, self.each(math.cos, x) * tx
        if op == "cos":
            return val, -self.each(math.sin, x) * tx
        if op == "exp":
            return val, val * tx
        if op == "log":
            return val, np.divide(tx, x)
        # sqrt: at zero the value is +0.0, and only a zero tangent survives.
        zero = np.equal(x, 0.0)
        self.fail(zero & np.not_equal(tx, 0.0), "square root not differentiable at zero")
        return np.where(zero, 0.0, val), np.where(zero, 0.0, np.divide(tx, 2.0 * val))

    def power(self, b, tb, e, te):
        """``b ^ e`` by the dual rules, chosen per element and seed of the tangent arrays.

        Where the exponent's tangent is zero the power rule applies, with
        its own cases at a zero base; elsewhere the base must be positive.
        An exponent free of y and dy (``te`` None) takes the power rule
        everywhere, and every seed scales one factor e * b^(e-1); a literal
        exponent, a float, decides its cases as Python bools.
        """
        fixed = True if te is None else np.equal(te, 0.0)
        free = te is not None and np.count_nonzero(fixed) < fixed.size
        if free:
            self.fail(~fixed & np.less_equal(b, 0.0),
                      "base {0!r} must be positive when the exponent carries a derivative", b)
        value = self.each(pow, b, e)
        # At a zero base under a live exponent the value is +0.0, and the walk goes on.
        if te is None and isinstance(e, float):
            live = all_live = e != 0.0
            at_zero = np.equal(b, 0.0) if live else np.False_
        else:
            live = np.not_equal(e, 0.0)
            at_zero = np.equal(b, 0.0) & live
            all_live = np.count_nonzero(live) == np.size(live)
        any_zero = np.count_nonzero(at_zero) > 0
        everywhere = te is None and all_live and not any_zero  # the power rule at every point
        # A base of 1.0 keeps the power rule from failing where it does not apply.
        base = b if everywhere else np.where(live & ~at_zero & (te is None or np.any(fixed, axis=0)), b, 1.0)
        factor = e * self.each(pow, base, e - 1.0, where=fixed)  # shared by the seeds
        tangent = factor * tb if all_live else np.where(live, factor * tb, 0.0)
        if any_zero:  # only exponents >= 1, or a zero base tangent, survive
            self.fail(fixed & at_zero & ~np.greater_equal(e, 1.0) & np.not_equal(tb, 0.0),
                      "power {0!r} not differentiable at zero base", e)
            tangent = np.where(at_zero, np.where(np.equal(e, 1.0), tb, 0.0), tangent)
        if free:
            log_b = self.each(math.log, np.where(np.less_equal(b, 0.0), 1.0, b))
            tangent = np.where(fixed, tangent, value * (te * log_b + np.divide(e * tb, b)))
        return (np.where(at_zero, 0.0, value) if any_zero else value), tangent


def run(program, t, y, dy, seeds: tuple = (), strict: bool = True, keep: dict | None = None) -> np.ndarray:
    """Run ``program`` over (t, y, dy) and return its output.

    Without seeds the output is the value, with float semantics throughout,
    in the broadcast shape S of (t, y, dy).  With K seeds it has shape
    (K,) + S: row k is the tangent a dual-number walk with seed k would
    return, 0.0 for a density free of y and dy.  A single point runs as a
    0-d pass.  If the output fails anywhere (a non-finite one fails too), a
    strict ``run`` raises the ``EvalDomainError`` of its first failed entry
    in flat order, so any seed's before the next seed's, with the message
    of the first check that fails there.  One that is not strict puts nan
    where any check fails instead; each other entry holds what it holds in
    a strict pass, and a pass in which nothing fails builds no mask.

    ``run`` sets each register that ``keep`` maps to what it computed
    there: (value, tangents, records), the records being the (mask,
    template, operands) of its failed checks.  An instruction ("take",
    (value, tangents, records), None, dual) takes such a register over
    from another pass and replays its records where the walk reaches it,
    so every result and error stays what computing it here gives.
    """
    slots = tuple(np.asarray(x, dtype=float) for x in (t, y, dy))
    state = _Pass(slots, seeds)
    vals = state.vals
    tans: list = []  # per register: the tangents of every seed, or None where plain
    with np.errstate(all="ignore"):
        for op, a, b, dual in program:
            tan = None
            if op == "num":
                val = a
            elif op == "var":
                val = slots[a]
                if seeds and dual:
                    tan = state.seeds[a - 1]
            elif op == "take":
                val, tan, records = a
                state.failed += [(*record, len(vals)) for record in records]
            elif seeds and dual:
                if b is None:
                    val, tan = state.dual(op, vals[a], tans[a], None, None)
                else:
                    val, tan = state.dual(op, vals[a], tans[a], vals[b], tans[b])
            else:
                val = state.plain(op, vals[a], None if b is None else vals[b])
            vals.append(val)
            tans.append(tan)
        if keep:
            for i in keep:
                keep[i] = vals[i], tans[i], [record[:3] for record in state.failed if record[3] == i]
        out = (state.zero if tans[-1] is None else tans[-1]) if seeds else vals[-1]
        ok = np.isfinite(out)
        if np.count_nonzero(ok) < ok.size:
            state.fail(~ok, "non-finite value")
    shape = state.shape
    if state.failed:
        union = np.broadcast_to(reduce(np.logical_or, (record[0] for record in state.failed)), shape)
        if not strict:
            out = np.where(union, math.nan, out)
        elif np.count_nonzero(union):  # a pass over no points fails nowhere
            i = int(np.argmax(union))
            template, xs = next((template, xs) for mask, template, xs, _ in state.failed if state.at(mask, i))
            raise EvalDomainError(template.format(*(float(state.at(x, i)) for x in xs)),
                                  *(float(state.at(x, i)) for x in slots))
    # A seed column, the zero tangents or another pass's register: copied, so no caller shares it.
    last = program[-1][0]
    shared = last == "take" or seeds and (tans[-1] is None or last == "var")
    return out if shape and np.shape(out) == shape and not shared else np.full(shape, out)[()]


def _taking(program, taken: dict) -> list:
    """``program`` with each register that ``taken`` maps replaced by a "take" of what it maps to."""
    code = list(program)
    for i, registers in taken.items():
        code[i] = ("take", registers, None, program[i][3])
    return code


class Plan:
    """The registers that the delta and nabla passes of one density pair can share.

    On an isolated scale both passes read one array of difference quotients
    as dy (see ``tsvar.variational``).  So a nabla register that equals,
    as a subtree, a delta register reading only dy and literals holds what
    that register holds, tangents and failure records too: ``shared`` pairs
    each such (nabla, delta) register, and ``passes`` has the nabla pass
    take them over.  ``t_only`` lists each side's registers that read t and
    literals alone; ``fix`` computes them once for all passes over one t.
    """

    def __init__(self, delta: tuple, nabla: tuple):
        self.programs = (delta, nabla)
        ids: dict = {}  # one id per distinct subtree of either program
        self.t_only, dy_only = [], []
        for program in self.programs:
            key: dict = {}
            reads: dict = {}  # the slots each register's subtree reads, as bits
            for i, (op, a, b, _) in enumerate(program):
                if op in ("num", "var"):
                    key[i] = ids.setdefault((op, repr(a)), len(ids))
                    reads[i] = 1 << a if op == "var" else 0
                else:
                    key[i] = ids.setdefault((op, key[a], key.get(b)), len(ids))
                    reads[i] = reads[a] | reads.get(b, 0) | 8  # 8: the register computes something
            self.t_only.append([i for i, r in reads.items() if r == 1 | 8])
            dy_only.append([(i, key[i]) for i, r in reads.items() if r == 4 | 8])
        delta = {k: i for i, k in dy_only[0]}
        self.shared = [(j, delta[k]) for j, k in dy_only[1] if k in delta]

    def fix(self, t_delta, t_nabla) -> tuple:
        """Both programs, each register that reads only t taken over from one pass over the side's t."""
        programs = []
        for program, regs, t in zip(self.programs, self.t_only, (t_delta, t_nabla)):
            keep = dict.fromkeys(regs)
            if regs:  # no register kept here reads y or dy
                run(program, t, math.nan, math.nan, strict=False, keep=keep)
            programs.append(_taking(program, keep))
        return tuple(programs)

    def passes(self, delta_args, nabla_args, seeds: tuple = (), strict: bool = True, fixed=None) -> tuple:
        """Both sides' ``run`` outputs; the nabla pass takes the shared registers over from the delta pass.

        ``fixed`` holds the programs that ``fix`` gave for the passes' t, or is None.
        """
        delta, nabla = fixed or self.programs
        keep = dict.fromkeys(i for _, i in self.shared)
        out = run(delta, *delta_args, seeds, strict, keep)
        return out, run(_taking(nabla, {j: keep[i] for j, i in self.shared}), *nabla_args, seeds, strict)


def pair_plan(delta: tuple | None, nabla: tuple | None) -> Plan | None:
    """The ``Plan`` of two programs, or None where either is missing or they have nothing to share."""
    plan = None if delta is None or nabla is None else Plan(delta, nabla)
    return plan if plan and (plan.shared or any(plan.t_only)) else None
