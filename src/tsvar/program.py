"""Flat instruction lists, compiled once into rule steps: how a parsed density is evaluated.

``flatten`` turns an expression AST into instructions in evaluation order;
a ``Program`` compiles them once per mode (values, partials) into rule
steps.  ``run`` executes the steps over (t, y, dy) as arrays of any shape,
a point as 0-d arrays, optionally carrying forward-mode tangents by the
rules of first-order dual numbers (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008), every seed's in one array (the vector
forward mode).  An exponent free of y and dy is passive: ``b ^ c`` takes
the power rule c * b^(c-1) * db at every point.  numpy performs
``+ - * /``, negation, ``^`` (``float_power``: libm's ``pow`` per element,
as Python's ``pow``) and ``sqrt`` (correctly rounded); ``exp``, ``log``,
``sin`` and ``cos`` run per element through ``math``, since numpy does not
promise libm's results for them.  Every check of the real domain, and
every error ``math`` would raise, is a mask with a message, so the map
never raises.  A pass records each failed check under its register and
raises the first failure's ``EvalDomainError`` with the message of the
first check, in register order, that fails there, as a dual-number walk
of that point does; one that is not strict puts nan at every failed point
instead.  A pass sets up only its register file, the shared seed columns
and a failure list, computes the broadcast shape only to locate a failure
or to fill an output that is not a fresh array of it; in partials it
skips the values of ``add``, ``sub``, ``mul`` and ``neg`` no rule reads.

A ``Plan`` lets the two passes of a delta/nabla density pair share
registers, under the caller's one ``np.errstate``.  Both read one array
of difference quotients as dy, so the nabla pass takes over each delta
register that it repeats and that reads only dy and literals (``dy^2`` in
``dy^2 + y^2`` / ``dy^2 + 1``); and the registers that read only t are
computed once for every pass over one t.  A register taken over replays
its failure records under the taker's register, so every value, partial,
nan and error stays bit for bit what the pass alone gives.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property, lru_cache, partial, reduce
from operator import itemgetter

import numpy as np

VARIABLES = ("t", "y", "dy")

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}


# The largest float whose exp is finite: math.exp raises OverflowError past it.
EXP_LIMIT = 709.782712893384

# Per function: the check that keeps it in the real domain, or from raising, and its message.
_CHECKS = {"sin": (np.isinf, "sin of infinite value {0!r}"), "cos": (np.isinf, "cos of infinite value {0!r}"),
           "exp": (lambda x: np.greater(x, EXP_LIMIT) & np.less(x, math.inf), "overflow"),
           "log": (lambda x: np.less_equal(x, 0.0), "log of non-positive value {0!r}"),
           "sqrt": (lambda x: np.less(x, 0.0), "square root of negative value {0!r}")}

# The tangents of (y, dy) in each seed: d/du first, then d/dv.
SEED_U = (1.0, 0.0)
SEED_V = (0.0, 1.0)
SEEDS = (SEED_U, SEED_V)


@lru_cache(maxsize=16)
def _seed_columns(seeds: tuple, rank: int) -> tuple:
    """The tangents of y and dy in each seed, and the zero tangents, shaped (K, 1, ..., 1) with ``rank``
    ones: built once and read-only, shared by every pass and returned by none."""
    columns = np.reshape(np.transpose(seeds), (2, len(seeds)) + (1,) * rank)
    zero = np.zeros_like(columns[0])  # the tangents a dual-number walk lifts a float to
    columns.flags.writeable = zero.flags.writeable = False
    return (columns[0], columns[1]), zero


class EvalDomainError(ArithmeticError):
    """A density left the real domain; carries the bare ``reason`` and the probe point."""

    def __init__(self, reason: str, t: float, u: float, v: float):
        super().__init__(f"{reason} at (t={t!r}, u={u!r}, v={v!r})")
        self.reason, self.t, self.u, self.v = reason, t, u, v


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


# The rules: rule(failed, j, x, z) gives register j's value and rule(failed, j,
# x, tx, z, tz) its value and tangents, from operands x and z (a unary op's z
# is its x) and their tangents (zero for an operand free of y and dy).  Each
# failed check goes to ``failed`` as (mask, template, operands, j).  A failed
# point's registers hold garbage that no other point sees.

def _fail(failed: list, j: int, mask, template: str, *operands) -> None:
    """The check ``mask`` fails where it is true; ``template`` formats the operands there."""
    if np.count_nonzero(mask):
        failed.append((mask, template, operands, j))


def _map(fn, x):
    """``fn`` per element, over an operand of any rank; the checks keep it from raising."""
    x = np.asarray(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _guarded(failed: list, j: int, name: str, x):
    """``x`` with 1.0 where function ``name``'s check fails, which is recorded."""
    mask = _CHECKS[name][0](x)
    if np.count_nonzero(mask):
        failed.append((mask, _CHECKS[name][1], (x,), j))
        return np.where(mask, 1.0, x)
    return x


def _call(name: str, failed, j, x, z):
    return _map(FUNCTIONS[name], _guarded(failed, j, name, x))


def _div(failed, j, x, z):
    _fail(failed, j, np.equal(z, 0.0), "division by zero")
    return np.divide(x, z)


def _pow(checked: bool, failed, j, x, z, where=True):
    """``x ^ z`` as ``float_power``, recording the checks it fails where ``where`` is true.

    Python's pow goes complex for a negative base under a fractional
    exponent, and raises for a zero base under a negative one, and on
    overflow, found from an infinite result.  Where a check fails the base
    is 1.0.  Under a scalar exponent that is a non-negative integer only
    overflow can fail; ``checked`` is False for a literal one.
    """
    if checked and not (isinstance(z, np.ndarray) and z.ndim) and float(z) >= 0.0 and float(z).is_integer():
        checked = False  # a scalar exponent that is a non-negative integer
    if checked and np.count_nonzero(np.less_equal(x, 0.0)):  # both checks need a base <= 0
        fractional = np.not_equal(z - np.trunc(z), 0.0)  # inf and nan too, as float.is_integer says
        checks = [(mask, template) for mask, template in (
            (np.less(x, 0.0) & fractional, "negative base {0!r} with non-integer exponent {1!r}"),
            (np.equal(x, 0.0) & np.less(z, 0.0), "zero base with negative exponent {1!r}")) if np.count_nonzero(mask)]
        for mask, template in checks:
            _fail(failed, j, mask & where, template, x, z)
        if checks:
            x = np.where(reduce(np.logical_or, (mask for mask, _ in checks)), 1.0, x)
    out = np.float_power(x, z)
    inf = np.isinf(out)
    if np.count_nonzero(inf):  # where Python's pow raises OverflowError
        _fail(failed, j, inf & np.isfinite(x) & np.isfinite(z) & where, "overflow")
    return out


def _d_trig(cos: bool, failed, j, x, tx, z, tz):
    x = _guarded(failed, j, "cos" if cos else "sin", x)  # the derivative fails where the function does
    s, c = _map(math.sin, x), _map(math.cos, x)
    return (c, -s * tx) if cos else (s, c * tx)


def _d_sqrt(failed, j, x, tx, z, tz):
    val = np.sqrt(_guarded(failed, j, "sqrt", x))
    zero = np.equal(x, 0.0)  # at zero the value is +0.0, and only a zero tangent survives
    _fail(failed, j, zero & np.not_equal(tx, 0.0), "square root not differentiable at zero")
    return np.where(zero, 0.0, val), np.where(zero, 0.0, np.divide(tx, 2.0 * val))


def _power(checked: tuple, active: bool, failed, j, b, tb, e, te):
    """``b ^ e`` by the dual rules, chosen per element and seed of the tangent arrays.

    Where the exponent's tangent is zero the power rule applies, with its own cases at a zero
    base; elsewhere the base must be positive.  An exponent free of y and dy (not ``active``)
    takes the power rule everywhere, every seed scaling one factor e * b^(e-1); a literal one,
    a float, decides its cases as Python bools.  ``checked`` serves ``b ^ e`` and ``base ^ (e-1)``.
    """
    te = te if active else None
    fixed = True if te is None else np.equal(te, 0.0)
    free = te is not None and np.count_nonzero(fixed) < fixed.size
    if free:
        _fail(failed, j, ~fixed & np.less_equal(b, 0.0),
              "base {0!r} must be positive when the exponent carries a derivative", b)
    value = _pow(checked[0], failed, j, b, e)
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
    factor = e * _pow(checked[1], failed, j, base, e - 1.0, where=fixed)  # shared by the seeds
    tangent = factor * tb if all_live else np.where(live, factor * tb, 0.0)
    if any_zero:  # only exponents >= 1, or a zero base tangent, survive
        _fail(failed, j, fixed & at_zero & ~np.greater_equal(e, 1.0) & np.not_equal(tb, 0.0),
              "power {0!r} not differentiable at zero base", e)
        tangent = np.where(at_zero, np.where(np.equal(e, 1.0), tb, 0.0), tangent)
    if free:
        log_b = _call("log", failed, j, np.where(np.less_equal(b, 0.0), 1.0, b), None)
        tangent = np.where(fixed, tangent, value * (te * log_b + np.divide(e * tb, b)))
    return (np.where(at_zero, 0.0, value) if any_zero else value), tangent


_VALUE = {"add": lambda f, j, x, z: x + z, "sub": lambda f, j, x, z: x - z, "mul": lambda f, j, x, z: x * z,
          "neg": lambda f, j, x, z: -x, "div": _div, "sqrt": lambda f, j, x, z: np.sqrt(_guarded(f, j, "sqrt", x)),
          **{name: partial(_call, name) for name in ("sin", "cos", "exp", "log")}}
_DUAL = {"add": lambda f, j, x, tx, z, tz: (x + z, tx + tz), "sub": lambda f, j, x, tx, z, tz: (x - z, tx - tz),
         "mul": lambda f, j, x, tx, z, tz: (x * z, tx * z + x * tz), "neg": lambda f, j, x, tx, z, tz: (-x, -tx),
         "div": lambda f, j, x, tx, z, tz: ((v := _div(f, j, x, z)), np.divide(tx - v * tz, z)),
         "exp": lambda f, j, x, tx, z, tz: ((v := _call("exp", f, j, x, z)), v * tx),
         "log": lambda f, j, x, tx, z, tz: (_call("log", f, j, x, z), np.divide(tx, x)),
         "sin": partial(_d_trig, False), "cos": partial(_d_trig, True), "sqrt": _d_sqrt}
# The dual rules of a value that no rule reads: the tangent alone.
_TANGENT = {"add": lambda f, j, x, tx, z, tz: (None, tx + tz), "sub": lambda f, j, x, tx, z, tz: (None, tx - tz),
            "mul": lambda f, j, x, tx, z, tz: (None, tx * z + x * tz), "neg": lambda f, j, x, tx, z, tz: (None, -tx)}


class Program:
    """A flattened density, compiled into rule steps once per mode, on first use.

    ``code`` is ``flatten``'s instructions, ``reads[i]`` the slots register
    i's subtree reads as bits (1 t, 2 y, 4 dy; 8 if it computes something).
    ``given`` maps a register to (value, tangents, records) that another
    pass computed there, or to the register of the ``keep`` entry holding
    that; a pass keeps the ``kept`` registers, with their failed checks.
    """

    def __init__(self, code: tuple, given: dict | None = None, kept=()):
        self.code, self.given, self.kept = code, given or {}, tuple(kept)
        self.reads: list = []
        for op, a, b, _ in code:
            self.reads.append(1 << a if op == "var" else 0 if op == "num" else
                              self.reads[a] | (0 if b is None else self.reads[b]) | 8)

    @cached_property
    def values(self) -> tuple:
        return self._compile(False)

    @cached_property
    def partials(self) -> tuple:
        return self._compile(True)

    def _compile(self, seeds: bool) -> tuple:
        """One mode's steps (rule, register, a, b), a and b positions in the register file.

        The file holds the slots (t, y, dy), the literals and given values, the registers taken
        from ``keep``, then one per step, in a partials pass those free of y and dy first.
        """
        code, given = self.code, self.given
        need = set(self.kept)  # the registers whose value a rule reads
        for r in range(len(code) - 1, -1, -1):
            op, a, b, dual = code[r]
            if r not in given and op not in ("num", "var") and not (
                    seeds and dual and op in ("add", "sub", "neg") and r not in need):
                need.update((a, b))
        pre, taken, plain, duals = [], [], [], []
        for r, (op, _, _, dual) in enumerate(code):
            if op != "var":
                (pre if op == "num" or isinstance(given.get(r), tuple) else taken if r in given
                 else duals if seeds and dual else plain).append(r)
        pos = {r: a for r, (op, a, _, _) in enumerate(code) if op == "var"}
        pos.update((r, k) for k, r in enumerate(pre + taken + plain + duals, 3))

        def step(r: int, rules: dict) -> tuple:
            op, a, b, _ = code[r]
            if op == "pow":  # a literal exponent e decides whether e and e - 1 need the domain checks
                literal, e = code[b][0] == "num", code[b][1]
                checked = [not (literal and z >= 0.0 and z.is_integer()) for z in (e, e - 1.0)]
                rule = partial(_power, checked, code[b][3]) if rules is _DUAL else partial(_pow, checked[0])
            else:
                rule = (_TANGENT if rules is _DUAL and r not in need and op in _TANGENT else rules)[op]
            return rule, r, pos[a], pos[a if b is None else b]

        root = len(code) - 1
        return ([code[r][1] if code[r][0] == "num" else given[r][0] for r in pre],
                [(*record, r) for r in pre if r in given for record in given[r][2]],
                [(given[r], r) for r in taken], [(pos[i], i) for i in self.kept],
                [step(r, _VALUE) for r in plain], [step(r, _DUAL) for r in duals],
                pos[root], root in (duals if seeds else plain) and self.reads[root] & 7 != 0)


def run(program: Program, t, y, dy, seeds: tuple = (), strict: bool = True, keep: dict | None = None):
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
    a strict pass, and a pass in which nothing fails builds no mask.  The
    output is an array of its own.  ``keep`` holds the registers kept and
    taken by number.  ``run`` holds ``np.errstate(all="ignore")``; ``_run``,
    over float arrays, is for callers that hold one for several passes.
    """
    with np.errstate(all="ignore"):
        return _run(program, *(np.asarray(x, dtype=float) for x in (t, y, dy)), seeds, strict, keep)


def _run(program: Program, t, y, dy, seeds: tuple, strict: bool, keep: dict | None):
    pre, records, taken, kept, plain, duals, out, own = program.partials if seeds else program.values
    failed, vals = list(records), [t, y, dy, *pre]
    for i, r in taken:
        vals.append(keep[i][0])
        failed += [(*record, r) for record in keep[i][2]]
    for rule, r, a, b in plain:
        vals.append(rule(failed, r, vals[a], vals[b]))
    if seeds:
        columns, zero = _seed_columns(seeds, max(t.ndim, y.ndim, dy.ndim))
        tans = [zero, *columns, *[zero] * len(pre), *[keep[i][1] for i, _ in taken], *[zero] * len(plain)]
        for rule, r, a, b in duals:
            val, tan = rule(failed, r, vals[a], tans[a], vals[b], tans[b])
            vals.append(val)
            tans.append(tan)
    for k, i in kept:
        keep[i] = vals[k], tans[k] if seeds else None, [record[:3] for record in failed if record[3] == i]
    out = (tans if seeds else vals)[out]
    ok = np.isfinite(out)
    if np.count_nonzero(ok) < ok.size:
        failed.append((~ok, "non-finite value", (), len(program.code)))
    shape = None
    if failed:
        shape = (len(seeds),) * bool(seeds) + np.broadcast(t, y, dy).shape
        failed.sort(key=itemgetter(3))  # register order: the order a dual-number walk meets the checks
        union = np.broadcast_to(reduce(np.logical_or, (record[0] for record in failed)), shape)
        if not strict:
            out, own = np.where(union, math.nan, out), True
        elif np.count_nonzero(union):  # a pass over no points fails nowhere
            i = int(np.argmax(union))
            at = lambda x: float(np.broadcast_to(x, shape).flat[i])  # noqa: E731
            template, xs = next((template, xs) for mask, template, xs, _ in failed if at(mask))
            raise EvalDomainError(template.format(*map(at, xs)), at(t), at(y), at(dy))
    end = out.shape if own else ()
    if end and t.shape == end[len(end) - t.ndim:] and y.shape == end[len(end) - y.ndim:] == dy.shape:
        return out  # each slot's shape ends the output's, and dy's has its rank: it is S, or (K,) + S
    shape = shape or (len(seeds),) * bool(seeds) + np.broadcast(t, y, dy).shape
    return out if own and shape and out.shape == shape else np.full(shape, out)[()]


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

    def __init__(self, delta: Program, nabla: Program):
        ids: dict = {}  # one id per distinct subtree of either program
        self.t_only, dy_only = [], []
        for program in (delta, nabla):
            key: list = []
            for op, a, b, _ in program.code:
                key.append(ids.setdefault((op, repr(a)) if op in ("num", "var") else
                                          (op, key[a], None if b is None else key[b]), len(ids)))
            self.t_only.append([i for i, r in enumerate(program.reads) if r == 1 | 8])
            dy_only.append([(i, key[i]) for i, r in enumerate(program.reads) if r == 4 | 8])
        first = {k: i for i, k in dy_only[0]}
        self.shared = [(j, first[k]) for j, k in dy_only[1] if k in first]
        kept = [i for _, i in self.shared]  # the delta pass keeps these, and the nabla pass takes them
        self.delta = Program(delta.code, kept=kept) if kept else delta
        self.nabla = Program(nabla.code, dict(self.shared)) if kept else nabla

    def fix(self, t_delta, t_nabla) -> Plan:
        """The plan with each register that reads only t given, from one pass over the side's t."""
        sides = []
        for program, regs, t in zip((self.delta, self.nabla), self.t_only, (t_delta, t_nabla)):
            if regs:  # no register kept here reads y or dy
                keep: dict = {}
                run(Program(program.code, kept=regs), t, math.nan, math.nan, strict=False, keep=keep)
                program = Program(program.code, {**program.given, **keep}, program.kept)
            sides.append(program)
        fixed = copy.copy(self)
        fixed.delta, fixed.nabla = sides
        return fixed

    def passes(self, delta_args, nabla_args, seeds: tuple = (), strict: bool = True) -> tuple:
        """Both sides' ``_run`` outputs, the nabla pass taking the shared registers; the caller holds np.errstate."""
        if not isinstance(delta_args[0], np.ndarray):  # a single point, as floats
            delta_args, nabla_args = (tuple(map(np.asarray, args)) for args in (delta_args, nabla_args))
        keep: dict = {}
        return _run(self.delta, *delta_args, seeds, strict, keep), _run(self.nabla, *nabla_args, seeds, strict, keep)


def pair_plan(delta: Program | None, nabla: Program | None) -> Plan | None:
    """The ``Plan`` of two programs, or None where either is missing or they have nothing to share."""
    plan = None if delta is None or nabla is None else Plan(delta, nabla)
    return plan if plan and (plan.shared or any(plan.t_only)) else None
