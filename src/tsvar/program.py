"""Density tapes built from the AST, compiled once into rule steps: how a parsed density is evaluated.

A ``Program`` hash-conses the AST of a density, or of a delta/nabla pair,
into one tape in an iterative post-order walk, and compiles the tape once
per mode (values, partials) into rule steps.  ``run`` executes the steps
over (t, y, dy) as arrays of any shape, a point as 0-d arrays, optionally
carrying forward-mode tangents by the rules of first-order dual numbers
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008), every
seed's in one array (the vector forward mode).  An exponent free of y and
dy is passive: ``b ^ c`` takes the power rule c * b^(c-1) * db at every
point.  numpy performs ``+ - * /``, negation, ``^`` (``float_power``:
libm's ``pow`` per element, as Python's ``pow``) and ``sqrt`` (correctly
rounded); ``exp``, ``log``, ``sin`` and ``cos`` run per element through
``math``, since numpy does not promise libm's results for them.  Every
check of the real domain, and every error ``math`` would raise, is a mask
with a message, so the map never raises.  A pass records each failed check
under its register and raises the first failure's ``EvalDomainError`` with
the message of the first check, in walk order, that fails there, as a
dual-number walk of that point does; one that is not strict puts nan at
every failed point instead.  A pass sets up only its register file, the
shared seed columns and a failure list, computes the broadcast shape only
to locate a failure or to fill an output that is not a fresh array of it;
in partials it skips the values of ``add``, ``sub``, ``mul`` and ``neg``
no rule reads.

The tape gives each distinct subtree of a density, or of a delta/nabla
density pair, one register.  The two densities of a pair read one array of
difference quotients as dy, so they share every subtree that reads only dy
and literals (``dy^2`` in ``dy^2 + y^2`` / ``dy^2 + 1``); ``fix`` computes
the registers that read only t once for every pass over one t.  A pass
runs each step once, then finishes each density's output with the failure
records in that density's cone, sorted by its own walk order, so every
value, partial, nan and error stays bit for bit what the density alone
gives.

A value pass may take each density's t and y as its distinct (t, y)
values, with a map onto them per density from dy's entries (the oracle's
m * r + 1 per side, for (m - 1) * r^2 + 2r quotients): the steps free of
dy run over those, then are gathered, bit for bit, into dy's layout.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial, reduce
from operator import itemgetter

import numpy as np

VARIABLES = ("t", "y", "dy")

# A tape's slots in register order, as (variable, density): the delta density's t, y and dy, then the nabla
# density's t and y.  The nabla density reads the delta density's dy, one array of difference quotients for both.
_SLOTS = (("t", 0), ("y", 0), ("dy", 0), ("t", 1), ("y", 1))

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
    """Each slot's tangents in each seed, and the zero tangents, shaped (K, 1, ..., 1) with ``rank``
    ones: built once and read-only, shared by every pass and returned by none."""
    columns = np.reshape(np.transpose(seeds), (2, len(seeds)) + (1,) * rank)
    zero = np.zeros_like(columns[0])  # the tangents a dual-number walk lifts a float to
    columns.flags.writeable = zero.flags.writeable = False
    tangents = {"t": zero, "y": columns[0], "dy": columns[1]}
    return tuple(tangents[name] for name, _ in _SLOTS), zero


class EvalDomainError(ArithmeticError):
    """A density left the real domain; carries the bare ``reason`` and the probe point."""

    def __init__(self, reason: str, t: float, u: float, v: float):
        super().__init__(f"{reason} at (t={t!r}, u={u!r}, v={v!r})")
        self.reason, self.t, self.u, self.v = reason, t, u, v


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
    is 1.0.  Under an exponent that is a non-negative integer only overflow
    can fail; ``checked`` is False for a literal one.
    """
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
    literal = te is None and isinstance(e, float)
    # At a zero base under a live exponent the value is +0.0, and the walk goes on.
    if literal:
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
    # Shared by the seeds; b ^ 1.0 is b under any pow accurate to under one ulp, and cannot overflow.
    factor = e * (base if literal and e == 2.0 else _pow(checked[1], failed, j, base, e - 1.0, where=fixed))
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


# The bits of ``Program.reads``: one per slot, then ``COMPUTES`` for a register that computes something.  A register
# carries a tangent where it reads a slot of ``_SEEDED``, a y or the dy.
COMPUTES = 1 << len(_SLOTS)
_SEEDED = sum(1 << k for k, (name, _) in enumerate(_SLOTS) if name != "t")
_DY = 1 << _SLOTS.index(("dy", 0))


class Program:
    """A density, or a delta/nabla pair of them, as one hash-consed tape, compiled into rule steps once per mode.

    ``trees`` holds each density's AST.  ``code`` is the tape: the slots as
    ``_SLOTS`` lays them out, then one register per distinct subtree of
    either density, after its operands', as ``(op, a, b)``: ``a`` and ``b``
    are the operands' registers (``b`` is None for a unary op), and for
    ``num`` ``a`` is the literal.  ``reads[r]`` has the bit of each slot
    register r reads, and ``COMPUTES`` if it computes something.  ``outs``
    holds per density its root register, its walk order (each register's
    first step in the density's own post-order walk, by which its failure
    records are sorted) and its slot registers of (t, y, dy).  ``given``
    maps a register to the value and failure records ``fix`` gave it.
    """

    def __init__(self, *trees: tuple, given: dict | None = None):
        self.trees, self.given = trees, given or {}
        self.code = [("var", name, None) for name, d in _SLOTS if d < len(trees)]
        self.reads, self.outs = [1 << k for k in range(len(self.code))], []
        ids: dict = {}  # the register of each distinct subtree
        for d, tree in enumerate(trees):
            slots = {name: k for k, (name, e) in enumerate(_SLOTS) if e <= d}  # a density's own slot over the delta's
            done, order, todo = [], {}, [(tree, False)]  # the registers of finished subtrees, each one's first step
            while todo:
                node, ready = todo.pop()
                tag = node[0]
                if tag == "var":
                    done.append(slots[node[1]])
                    continue
                op, args = (node[1], node[2:]) if tag == "call" else (tag, node[1:])
                if tag != "num" and not ready:
                    todo.append((node, True))
                    todo.extend((child, False) for child in reversed(args))
                    continue
                if tag != "num":
                    args = done[len(done) - len(args):]
                    del done[len(done) - len(args):]
                a, b = (*args, None)[:2]
                r = ids.setdefault((op, repr(a) if op == "num" else a, b), len(self.code))
                if r == len(self.code):
                    self.code.append((op, a, b))
                    self.reads.append(0 if op == "num" else
                                      self.reads[a] | self.reads[a if b is None else b] | COMPUTES)
                done.append(r)
                order.setdefault(r, len(order))
            self.outs.append((done[-1], order, tuple(slots[name] for name in VARIABLES)))

    @cached_property
    def values(self) -> tuple:
        return self._compile(False)

    @cached_property
    def partials(self) -> tuple:
        return self._compile(True)

    def _compile(self, seeds: bool) -> tuple:
        """One mode's steps (rule, register, a, b), a and b positions in the register file.

        The file holds the slots, the literals and given values, then one register per step, in a
        partials pass those free of y and dy first.
        """
        code, given, reads = self.code, self.given, self.reads
        width = sum(d < len(self.trees) for _, d in _SLOTS)
        need = set()  # the registers whose value a rule reads
        for r in range(len(code) - 1, width - 1, -1):
            op, a, b = code[r]
            if r not in given and op != "num" and not (
                    seeds and reads[r] & _SEEDED and op in ("add", "sub", "neg") and r not in need):
                need.update((a, b))
        pre, free, plain, duals = [], [], [], []
        for r in range(width, len(code)):
            (pre if code[r][0] == "num" or r in given else duals if seeds and reads[r] & _SEEDED
             else plain if reads[r] & _DY else free).append(r)
        split, plain = len(free), free + plain  # the steps free of dy first
        pos = {r: k for k, r in enumerate([*range(width), *pre, *plain, *duals])}

        def step(r: int, rules: dict) -> tuple:
            op, a, b = code[r]
            if op == "pow":  # a literal exponent e decides whether e and e - 1 need the domain checks
                e = code[b][1] if code[b][0] == "num" else math.nan
                checked = [not (z >= 0.0 and z.is_integer()) for z in (e, e - 1.0)]
                active = bool(reads[b] & _SEEDED)
                rule = partial(_power, checked, active) if rules is _DUAL else partial(_pow, checked[0])
            else:
                rule = (_TANGENT if rules is _DUAL and r not in need and op in _TANGENT else rules)[op]
            return rule, r, pos[a], pos[a if b is None else b]

        # An output is its own array if a step computes it from a slot and no earlier output hands it out.
        roots, fresh = [root for root, _, _ in self.outs], set(duals if seeds else plain)
        outs = [(pos[root], root in fresh and reads[root] != COMPUTES and root not in roots[:i], order, slots, i)
                for i, (root, order, slots) in enumerate(self.outs)]
        # A value pass over each density's distinct (t, y) runs the first ``split`` steps there, then gathers
        # into dy's layout each register of ``side`` that a later step or an output reads.  A register free of
        # dy that reads a slot reads one density's: ``side`` maps it to that density, by its lowest slot bit.
        side = {r: _SLOTS[(reads[r] & -reads[r]).bit_length() - 1][1] for r in [*range(width), *free]
                if reads[r] & ~COMPUTES & ~_DY}
        late = {x for r in plain[split:] for x in code[r][1:]} | set(roots)
        gather = [(pos[r], d) for r, d in side.items() if r in late]
        return ([code[r][1] if code[r][0] == "num" else given[r][0] for r in pre],
                [record for r in pre if r in given for record in given[r][1]],
                [step(r, _VALUE) for r in plain], [step(r, _DUAL) for r in duals], outs, width,
                (split, side, gather), pos)

    def fix(self, *ts) -> Program:
        """The program with each register that reads only t given, from one value pass over each density's t."""
        t_only = {1 << slots[0] | COMPUTES for _, _, slots in self.outs}
        regs = [r for r, bits in enumerate(self.reads) if bits in t_only]
        if not regs:
            return self
        slots = [np.asarray(ts[d] if name == "t" else math.nan, dtype=float)  # no register given reads y or dy
                 for name, d in _SLOTS if d < len(self.trees)]
        with np.errstate(all="ignore"):
            vals, _, failed = _steps(self.values, slots, ())
        given = {r: (vals[self.values[-1][r]], [record for record in failed if record[3] == r]) for r in regs}
        return Program(*self.trees, given={**self.given, **given})


def run(program: Program, t, y, dy, seeds: tuple = (), strict: bool = True):
    """Run the density ``program`` over (t, y, dy) and return its output.

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
    output is an array of its own.  ``run`` holds
    ``np.errstate(all="ignore")``; ``_run`` runs a program of one density or
    a pair over float arrays, for callers that hold one for several passes.
    """
    with np.errstate(all="ignore"):
        return _run(program, [np.asarray(x, dtype=float) for x in (t, y, dy)], seeds, strict)[0]


def _steps(compiled: tuple, slots: list, seeds: tuple) -> tuple:
    """Every step of one mode once over ``slots``: the register file's values, tangents and failure records.

    Slots that end in a map per density run the steps free of dy over the distinct (t, y), then gather.
    """
    pre, records, plain, duals, _, width = compiled[:6]
    failed, vals, tans = list(records), [*slots, *pre], None
    if len(slots) > width:
        (split, side, gather), maps = compiled[6], slots[width:]
        vals = [*slots[:width], *pre]
        for rule, r, a, b in plain[:split]:
            vals.append(rule(failed, r, vals[a], vals[b]))
        for i, d in gather:
            vals[i] = vals[i][maps[d]]
        for n, (mask, template, xs, j) in enumerate(failed):
            if j in side:  # a mask or operand is the distinct values' or a constant's
                mask, *xs = (x[maps[side[j]]] if np.ndim(x) else x for x in (mask, *xs))
                failed[n] = mask, template, tuple(xs), j
        plain = plain[split:]
    for rule, r, a, b in plain:
        vals.append(rule(failed, r, vals[a], vals[b]))
    if seeds:
        columns, zero = _seed_columns(seeds, max(x.ndim for x in slots))
        tans = [*columns[:len(slots)], *[zero] * (len(pre) + len(plain))]
        for rule, r, a, b in duals:
            val, tan = rule(failed, r, vals[a], tans[a], vals[b], tans[b])
            vals.append(val)
            tans.append(tan)
    return vals, tans, failed


def _run(program: Program, slots, seeds: tuple, strict: bool) -> list:
    """Each density's ``run`` output, in order, from one run of the steps over ``slots``.

    Each output takes the failure records of its own cone, sorted by its walk
    order, so it is bit for bit what the density gives alone, and a strict
    delta output raises before the nabla output is finished.
    """
    compiled = program.partials if seeds else program.values
    vals, tans, records = _steps(compiled, slots, seeds)
    outs, maps = [], slots[compiled[5]:]
    for k, own, order, where, d in compiled[4]:
        (t, y, dy), out = (slots[i] for i in where), (tans if seeds else vals)[k]
        if maps:  # its t and y hold each distinct value once, and its map has their layout
            t = y = maps[d]
        failed = [(mask, template, xs, order[r]) for mask, template, xs, r in records if r in order] if records else []
        ok = np.isfinite(out)
        if np.count_nonzero(ok) < ok.size:
            failed.append((~ok, "non-finite value", (), math.inf))
        shape = None
        if failed:
            shape = (len(seeds),) * bool(seeds) + np.broadcast(t, y, dy).shape
            failed.sort(key=itemgetter(3))  # walk order: the order a dual-number walk meets the checks
            union = np.broadcast_to(reduce(np.logical_or, (record[0] for record in failed)), shape)
            if not strict:
                out, own = np.where(union, math.nan, out), True
            elif np.count_nonzero(union):  # a pass over no points fails nowhere
                i = int(np.argmax(union))
                at = lambda x: float(np.broadcast_to(x, shape).flat[i])  # noqa: E731
                template, xs = next((template, xs) for mask, template, xs, _ in failed if at(mask))
                if maps:
                    t, y = slots[where[0]][maps[d]], slots[where[1]][maps[d]]
                raise EvalDomainError(template.format(*map(at, xs)), at(t), at(y), at(dy))
        end = out.shape if own else ()
        # Unless each slot's shape ends the output's and dy's has its rank (it is S, or (K,) + S), it is copied out.
        if not (end and t.shape == end[len(end) - t.ndim:] and y.shape == end[len(end) - y.ndim:] == dy.shape):
            shape = shape or (len(seeds),) * bool(seeds) + np.broadcast(t, y, dy).shape
            out = out if own and shape and out.shape == shape else np.full(shape, out)[()]
        outs.append(out)
    return outs
