"""Product functionals of delta and nabla type, and their stationarity tests.

The objective is J(y) = Jd(y) * Jn(y) where

    Jd(y) = sum over upper-kappa of mu(i)  * Ld(t_i, y(sigma(i)), delta-derivative(i))
    Jn(y) = sum over lower-kappa of nu(i)  * Ln(t_i, y(rho(i)),   nabla-derivative(i))

with fixed boundary values y(a) = alpha, y(b) = beta.  Both factors are
exact weighted sums, so the first variation of J with respect to each
interior value is available in closed form: substituting the hat function
at interior index k (1 at k, 0 elsewhere) for the variation and expanding
the two sums leaves at most two surviving terms per sum.
``first_variation_gradient`` returns that expansion; it is the exact
partial derivative of J in each interior value.

Stationarity is certified through integral-form Euler-Lagrange residuals.
With the running integrals

    A(t) = sum of mu * d2Ld up to t,      B(t) = sum of nu * d2Ln up to t,

set f = d3Ld - A on upper-kappa and g = d3Ln - B on lower-kappa.  The two
equivalent conditions state that

    Jn * f(rho(t)) + Jd * g(t)        is one constant over lower-kappa, and
    Jn * f(t)      + Jd * g(sigma(t)) is one constant over upper-kappa.

Both lines describe one array: its entry j is Jn * f + Jd * g with f taken
at point index j and g at point index j + 1.  The first form attaches it to
lower-kappa (at index j + 1), the second to upper-kappa (at index j), just as
the delta and nabla derivative arrays are one array of quotients on two
index sets.  ``el_residual_1`` and ``el_residual_2`` report that trace, its
mean and its worst deviation from the mean; it is computed once and both
reports share it read-only.  When one factor is the normalized
constant density, the product objective degenerates to the other factor
alone and the trace collapses (exactly) to the single-calculus condition
reported by ``el_residual_cor1`` / ``el_residual_cor2``.  Differencing
those single-calculus traces once recovers the pointwise Euler-Lagrange
equations, which ``classic_el_residuals`` evaluates directly on the
doubly-truncated index sets.

Each factor's densities are evaluated over the whole grid at once: one
value pass per factor for the values, and one partials pass per factor
for both first partials.  The delta slot reads the difference quotient
q_i at t_i and the nabla slot the same q_i at t_{i+1}, so a parsed pair
runs as one tape hash-consed from both densities' ASTs
(``tsvar.program.Program``), where a subtree of either density that
reads only dy (``dy^2``) is one register, and a problem computes the
registers that read only t once (``_fixed``).
A pass's slots set its policy (``_passes``): rows raise, stacks give nan,
and the scale's one-row t runs the fixed tape; a hand-built density
branches once, in ``Lagrangian._pass``.  One floating-point policy holds
here and in ``tsvar.solver``: each public call runs wholly with numpy's
warnings off (``@np.errstate(all="ignore")``) and restores the caller's
settings, private numeric code never touches numpy's error state, and the
oracle's generators run under the ``brute_force_oracle`` call that iterates
them.  An overflow shows as a non-finite density value (which the density
rejects as a domain error), a non-finite factor, gradient, trace or
residual, or a nan deviation, which fails ``passes``.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .calculus import GridFunction, PartialGridFunction
from .lagrangian import Lagrangian
from .program import SEEDS, Program, _run
from .record import Record
from .timescale import KappaKind, KappaSet, TimeScale, _as_number, kappa_set

__all__ = [
    "ELReport",
    "VariationalProblem",
    "classic_el_residuals",
    "el_residual_1",
    "el_residual_2",
    "el_residual_cor1",
    "el_residual_cor2",
    "first_variation_gradient",
    "j_delta",
    "j_nabla",
    "j_product",
]


class VariationalProblem(Record):
    """A scale, the two densities, and the fixed boundary values."""

    scale: TimeScale
    l_delta: Lagrangian
    l_nabla: Lagrangian
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = _as_number(getattr(self, name), f"boundary value {name}", "a finite real number",
                               lambda v: np.isfinite(float(v)))
            object.__setattr__(self, name, float(value))

    @cached_property
    def _tape(self):
        """Both densities' ASTs as one ``tsvar.program.Program``, or None where either is built by hand."""
        delta, nabla = self.l_delta.program, self.l_nabla.program
        return None if delta is None or nabla is None else Program(*delta.trees, *nabla.trees)

    @cached_property
    def _fixed(self):
        """The tape with the registers that read only t computed once, over this scale's slots."""
        return self._tape and self._tape.fix(self.scale.points[:-1], self.scale.points[1:])


class ELReport(Record, eq=False):
    """A residual trace, the constant it should equal, and the worst deviation.

    ``which`` names the condition: "EL1" and "EL2" are the two equivalent
    integral forms for the product objective; "corollary-EL1" and
    "corollary-EL2" are the single-calculus forms the product conditions
    collapse to when the other factor is constant.  ``passes`` applies the
    relative criterion deviation <= tol * (1 + |c|).
    """

    which: str
    scale: TimeScale
    domain: KappaSet
    residual_trace: np.ndarray
    constant_c: float
    deviation: float
    j_delta: float
    j_nabla: float

    @property
    def times(self) -> np.ndarray:
        return self.scale.points[self.domain.start : self.domain.stop]

    def passes(self, tol: float = 1e-6) -> bool:
        return self.deviation <= tol * (1.0 + abs(self.constant_c))

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "domain": {
                "kind": self.domain.kind.value,
                "start": self.domain.start,
                "stop": self.domain.stop,
            },
            "t": [float(x) for x in self.times],
            "residual_trace": [float(x) for x in self.residual_trace],
            "constant_c": float(self.constant_c),
            "deviation": float(self.deviation),
            "j_delta": float(self.j_delta),
            "j_nabla": float(self.j_nabla),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_csv(self) -> str:
        lines = ["t,trace,c,trace_minus_c"]
        c = self.constant_c
        for t, r in zip(self.times, self.residual_trace):
            lines.append(
                f"{t:.17g},{r:.17g},{c:.17g},{float(r) - c:.17g}"
            )
        return "\n".join(lines) + "\n"


def _check_alignment(p: VariationalProblem, y: GridFunction) -> None:
    if y.scale is not p.scale and not np.array_equal(y.scale.points, p.scale.points):
        raise ValueError("grid function does not live on the problem's scale")


def _check_boundary(p: VariationalProblem, y: GridFunction) -> None:
    _check_alignment(p, y)
    if float(y.values[0]) != p.alpha or float(y.values[-1]) != p.beta:
        raise ValueError(
            f"boundary mismatch: expected y(a)={p.alpha!r}, y(b)={p.beta!r}, "
            f"got {float(y.values[0])!r}, {float(y.values[-1])!r}"
        )


def _slot_args(p: VariationalProblem, vals: np.ndarray):
    """Gaps and the (t, u, v) arrays of the delta and the nabla slots.

    ``vals`` holds one value per point, or one row of values per candidate;
    the slot arrays then have a row per candidate, and ``t`` broadcasts.
    """
    pts, gaps = p.scale.points, p.scale.gaps
    quot = np.subtract(vals[..., 1:], vals[..., :-1])
    np.divide(quot, gaps, out=quot)
    # Delta slot: density at (t_i, y(i+1), quot_i) for i over upper-kappa.
    # Nabla slot: density at (t_i, y(i-1), quot_{i-1}) for i over lower-kappa.
    return gaps, (pts[:-1], vals[..., 1:], quot), (pts[1:], vals[..., :-1], quot)


def _factor(gaps: np.ndarray, values: np.ndarray):
    """The weighted sum of one row of density values, or of each row of a stack.

    A (rows, k) stack sums each row exactly as ``np.dot(gaps, row)`` does;
    a stack with more leading axes may not (2 ulps off for a (2, 343, 4) one).
    """
    sums = np.matmul(values[..., None, :], gaps[:, None])[..., 0, 0]
    return float(sums) if values.ndim == 1 else sums


def _passes(p: VariationalProblem, delta, nabla, seeds: tuple = ()):
    """Both densities' passes over their slot arguments.

    A one-row y raises and a stack gets nan where a row fails; a one-row t is the scale's own
    (only ``_slot_args`` builds one) and runs the tape fixed for it, the oracle's t per row the tape.
    """
    strict = delta[1].ndim == 1
    tape = p._fixed if delta[0].ndim == 1 else p._tape
    if tape is not None:
        return _run(tape, (*delta, *nabla[:2]), seeds, strict)
    return [L._pass(*a, seeds, strict) for L, a in ((p.l_delta, delta), (p.l_nabla, nabla))]


def _factors(p: VariationalProblem, args):
    """Both factor values from the slot arguments; one value pass per factor.

    One row of values gives floats and raises the first ``EvalDomainError``
    of its passes.  A stack of rows gives arrays with one entry per row,
    nan for each row whose own pass would raise; an overflowing sum is a non-finite factor.
    """
    gaps, delta, nabla = args
    ld, ln = _passes(p, delta, nabla)
    return _factor(gaps, ld), _factor(gaps, ln)


class _Partials:
    """One partials pass along y: the gaps and the per-point first partials."""

    __slots__ = ("gaps", "d2d", "d3d", "d2n", "d3n")

    def __init__(self, p: VariationalProblem, args):
        gaps, delta, nabla = args
        self.gaps = gaps
        (self.d2d, self.d3d), (self.d2n, self.d3n) = _passes(p, delta, nabla, SEEDS)

    # Entry i of d2d/d3d belongs to point index i (upper-kappa); entry j of
    # d2n/d3n belongs to point index j+1 (lower-kappa).

    def gradient(self, jd: float, jn: float) -> np.ndarray:
        gaps = self.gaps
        # Hat variation at interior k survives in the delta sum only through
        # the terms at i = k-1 (both slots) and i = k (derivative slot):
        grad_d = gaps[:-1] * self.d2d[:-1] + self.d3d[:-1] - self.d3d[1:]
        # and in the nabla sum through i = k+1 (both slots) and i = k:
        grad_n = gaps[1:] * self.d2n[1:] - self.d3n[1:] + self.d3n[:-1]
        return jn * grad_d + jd * grad_n

    def el_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """f over upper-kappa and g over lower-kappa."""
        gaps = self.gaps
        # Running integrals of the state partials; entry k covers points < k
        # (delta side) respectively points <= k (nabla side).
        run_a = np.concatenate(([0.0], np.cumsum(gaps * self.d2d)))
        run_b = np.concatenate(([0.0], np.cumsum(gaps * self.d2n)))
        f = self.d3d - run_a[:-1]  # entry k: point index k over upper-kappa
        g = self.d3n - run_b[1:]  # entry j: point index j+1 over lower-kappa
        return f, g


def _checked_pass(p: VariationalProblem, y: GridFunction) -> tuple[_Partials, float, float]:
    _check_boundary(p, y)
    args = _slot_args(p, y.values)
    return _Partials(p, args), *_factors(p, args)


@np.errstate(all="ignore")
def j_delta(p: VariationalProblem, y: GridFunction) -> float:
    """The delta-type factor of the objective."""
    _check_alignment(p, y)
    gaps, delta, _ = _slot_args(p, y.values)
    return _factor(gaps, p.l_delta.values(*delta))


@np.errstate(all="ignore")
def j_nabla(p: VariationalProblem, y: GridFunction) -> float:
    """The nabla-type factor of the objective."""
    _check_alignment(p, y)
    gaps, _, nabla = _slot_args(p, y.values)
    return _factor(gaps, p.l_nabla.values(*nabla))


@np.errstate(all="ignore")
def j_product(p: VariationalProblem, y: GridFunction) -> float:
    """The product objective J = Jd * Jn."""
    _check_alignment(p, y)
    jd, jn = _factors(p, _slot_args(p, y.values))
    return jd * jn


@np.errstate(all="ignore")
def first_variation_gradient(p: VariationalProblem, y: GridFunction) -> np.ndarray:
    """Exact partials of the product objective in the interior values.

    Component k-1 of the returned vector (k = 1 .. n-2) is the derivative of
    J with respect to y(t_k); it equals the first variation of J along the
    hat function at k and obeys the product rule
    Jn * grad(Jd) + Jd * grad(Jn) exactly.
    """
    parts, jd, jn = _checked_pass(p, y)
    return parts.gradient(jd, jn)


def _report(p, which, kind: KappaKind, trace, jd: float, jn: float) -> ELReport:
    trace.setflags(write=False)
    c = float(np.mean(trace))
    deviation = float(np.max(np.abs(trace - c)))
    return ELReport(which, p.scale, kappa_set(p.scale, kind), trace, c, deviation,
                    j_delta=jd, j_nabla=jn)


def _el_reports(p, parts: _Partials, jd: float, jn: float) -> tuple[ELReport, ELReport]:
    """EL1 and EL2 from their one shared, read-only trace Jn * f + Jd * g."""
    f, g = parts.el_terms()
    trace = jn * f + jd * g
    el1 = _report(p, "EL1", KappaKind.LOWER, trace, jd, jn)
    return el1, el1.replace(which="EL2", domain=kappa_set(p.scale, KappaKind.UPPER))


@np.errstate(all="ignore")
def el_residual_1(p: VariationalProblem, y: GridFunction) -> ELReport:
    """Backward-attached integral Euler-Lagrange trace over lower-kappa.

    At point index i in lower-kappa the trace reads
    Jn * f(rho(i)) + Jd * g(i); at a stationary y it is a single constant.
    """
    return _el_reports(p, *_checked_pass(p, y))[0]


@np.errstate(all="ignore")
def el_residual_2(p: VariationalProblem, y: GridFunction) -> ELReport:
    """Forward-attached integral Euler-Lagrange trace over upper-kappa.

    At point index i in upper-kappa the trace reads
    Jn * f(i) + Jd * g(sigma(i)); it carries the same constant as the
    backward form.
    """
    return _el_reports(p, *_checked_pass(p, y))[1]


@np.errstate(all="ignore")
def el_residual_cor1(p: VariationalProblem, y: GridFunction) -> ELReport:
    """Single-calculus nabla condition: g alone, over lower-kappa."""
    parts, jd, jn = _checked_pass(p, y)
    return _report(p, "corollary-EL1", KappaKind.LOWER, parts.el_terms()[1], jd, jn)


@np.errstate(all="ignore")
def el_residual_cor2(p: VariationalProblem, y: GridFunction) -> ELReport:
    """Single-calculus delta condition: f alone, over upper-kappa."""
    parts, jd, jn = _checked_pass(p, y)
    return _report(p, "corollary-EL2", KappaKind.UPPER, parts.el_terms()[0], jd, jn)


@np.errstate(all="ignore")
def classic_el_residuals(
    p: VariationalProblem, y: GridFunction
) -> tuple[PartialGridFunction, PartialGridFunction]:
    """Pointwise Euler-Lagrange residuals of each factor separately.

    Delta side: the delta derivative of d3Ld along y minus d2Ld, on the
    doubly upper-truncated set.  Nabla side: the nabla derivative of d3Ln
    minus d2Ln, on the doubly lower-truncated set.  Needs at least 4 points.
    """
    _check_boundary(p, y)
    if len(p.scale) < 4:
        raise ValueError(f"need at least 4 points for the pointwise residuals, got {len(p.scale)}")
    parts = _Partials(p, _slot_args(p, y.values))
    gaps = parts.gaps
    delta_res = (parts.d3d[1:] - parts.d3d[:-1]) / gaps[:-1] - parts.d2d[:-1]
    nabla_res = (parts.d3n[1:] - parts.d3n[:-1]) / gaps[1:] - parts.d2n[1:]
    return (
        PartialGridFunction(p.scale, kappa_set(p.scale, KappaKind.UPPER_SQUARED), delta_res),
        PartialGridFunction(p.scale, kappa_set(p.scale, KappaKind.LOWER_SQUARED), nabla_res),
    )
