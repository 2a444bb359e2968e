"""Minimization of the product objective over interior values.

Plain gradient descent on the interior value vector along the exact first
variation.  Each step backtracks by one fixed Armijo policy: trial step 1,
halved after each rejection down to 1e-300, accepted on strict decrease
with Armijo constant 1e-4.  The search evaluates its trials in blocks of
consecutive steps, one value pass per factor over a block's (trials x
points) array, and accepts the block's first trial that passes: the step
that trying one step at a time accepts, bit for bit.  A block holds at
most cap = 8192 // n trials (and at least one) at n points.  An iteration
predicts P = k + 2 trials, k being the rung the previous one accepted (0
for step 1), and runs blocks of ceil(P / ceil(P / cap)) trials, so that
ceil(P / cap) passes cover them.  The first iteration has no prediction:
its block holds one trial and doubles, up to the cap, after each pass
that accepts none.  A block's rows are s * g' then y minus that, in
place, g' being the gradient with 0.0 at each end, so every interior
entry is y - s * g, rounded as one trial at a time rounds it, and each
end is y itself.  A block's pass allocates one (trials x points)
temporary per numpy operation; at 64 KiB or less each stays under the C
allocator's default 128 KiB threshold for fresh memory maps, so it reuses
heap memory instead of faulting in zeroed pages.  A trial that leaves a
density's domain gets nan factors in the block's pass and fails the
test.  Only when no rung passes is the last one evaluated again, on its
own and strictly, for the domain error that ``StepUnderflowError`` names.
Everything is deterministic: same problem, configuration and start, same
result, bit for bit.  Each iterate evaluates its partials once, in one
run of the pair's tape.  Every pass of a solve reads the problem's one t
per side, so the registers that read only t are computed once per
problem (see ``tsvar.variational``).  Trials evaluate the two factors
only, the accepting trial's factors and slot-argument rows carry over to
the next iterate, and the result's J, gradient sup-norm and EL1/EL2
reports reuse the final iterate's pass.

``brute_force_oracle`` is an independent check for small instances: it
scans a full grid over the interior values, then rescans once across the
best cell.  Edge i's summands read only y_i and y_{i+1}, so a scan
evaluates each density once per distinct pair of neighbouring grid values,
in one run of the pair's tape, whose two densities read one array of
quotients as dy, as in any other pass.  It then visits the
candidates in lexicographic order, in slabs of whole first-digit values
(at most ``_BLOCK_ELEMENTS`` candidates, or one value), in two stages.  First each
factor's edge terms are broadcast over the slab and summed, and the
product is an estimate A of each candidate's J, with one bound E per scan
on |A - J|: a sum of m + 1 products in any order is within gamma_{m+1} =
(m+1)u / (1 - (m+1)u) times its sum of |products| of the exact sum
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1).
Then only the candidates whose A - E is at most the least A + E so far
have their rows of values summed exactly, so each one's J equals
``j_product`` bit for bit, and every candidate that attains the minimum
is among them: the answer is the first exact minimum, as before.  A slab
with a failing or infinite term on some first-digit value, or a grid that
fits one exact batch, is summed whole; a candidate with a pair outside a
density's domain is skipped.
``perturbation_audit`` samples random boundary-respecting perturbations
around a solution and reports whether any of them beat it.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .calculus import GridFunction, c1_diamond_norm
from .lagrangian import EvalDomainError
from .record import Record
from .timescale import _as_number
from .variational import (
    ELReport,
    VariationalProblem,
    _el_reports,
    _factor,
    _factors,
    _Partials,
    _passes,
    _slot_args,
)

__all__ = [
    "PerturbationAudit",
    "SolveResult",
    "SolverConfig",
    "StepUnderflowError",
    "brute_force_oracle",
    "chord",
    "perturbation_audit",
    "solve",
]

# The fixed line-search policy; below _STEP_FLOOR the search gives up.
_INITIAL_STEP = 1.0
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_STEP_FLOOR = 1e-300


def _ladder() -> np.ndarray:
    """The trial steps, largest first: halved from the first one down to the floor."""
    steps = [_INITIAL_STEP]
    while steps[-1] * _BACKTRACK_FACTOR >= _STEP_FLOOR:
        steps.append(steps[-1] * _BACKTRACK_FACTOR)
    return np.array(steps)


_STEPS = _ladder()

# Elements per line-search block, as the module docstring says: at most
# _BLOCK_ELEMENTS // n trial rows, so each float64 temporary is 64 KiB or less.
_BLOCK_ELEMENTS = 8192


class StepUnderflowError(RuntimeError):
    """Line search could not leave a domain-error region at any step size."""


class SolverConfig(Record):
    max_iterations: int = 10000
    gradient_tolerance: float = 1e-10
    maximize: bool = False

    def __post_init__(self) -> None:
        if _as_number(self.max_iterations, "max_iterations", "an integer", kind=numbers.Integral) < 0:
            raise ValueError("max_iterations must be non-negative")
        _as_number(self.gradient_tolerance, "gradient_tolerance", "a positive number", lambda v: v > 0)  # NaN fails
        if not isinstance(self.maximize, bool):
            raise ValueError(f"maximize must be true or false, got {self.maximize!r}")


class SolveResult(Record, eq=False):
    y: GridFunction
    j_value: float
    gradient_norm: float
    iterations: int
    converged: bool
    el1: ELReport
    el2: ELReport

    def to_dict(self) -> dict:
        return {
            "y": self.y.to_dict(),
            "j_value": float(self.j_value),
            "gradient_norm": float(self.gradient_norm),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "el1": self.el1.to_dict(),
            "el2": self.el2.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@np.errstate(all="ignore")
def chord(p: VariationalProblem) -> GridFunction:
    """Linear interpolation between the boundary values; the default start."""
    pts = p.scale.points
    span = pts[-1] - pts[0]
    rise, run = p.beta - p.alpha, pts - pts[0]
    product = rise * run
    vals = p.alpha + product / span
    # Where only the product overflows, dividing first keeps a finite chord finite.
    vals = np.where(np.isinf(product) & math.isfinite(rise), p.alpha + rise * (run / span), vals)
    vals[0] = p.alpha
    vals[-1] = p.beta
    return GridFunction(p.scale, vals)


def _row(args, i: int):
    """Row ``i`` of stacked slot arguments, as views."""
    gaps, (td, ud, vd), (tn, un, vn) = args
    return gaps, (td, ud[i], vd[i]), (tn, un[i], vn[i])


@np.errstate(all="ignore")
def solve(
    p: VariationalProblem,
    config: SolverConfig | None = None,
    y0: GridFunction | None = None,
) -> SolveResult:
    """Descend the product objective from ``y0`` (default: the chord).

    Convergence means the sup-norm of the exact gradient fell to
    ``gradient_tolerance`` at a finite objective.  Hitting the iteration
    budget, or reaching a point where no step passes the Armijo test,
    returns a result flagged not converged rather than raising.  A Lagrangian domain error during
    the line search only shrinks the step; if the step underflows while
    still erroring, ``StepUnderflowError`` is raised.
    """
    config = config or SolverConfig()
    if y0 is None:
        y0 = chord(p)
    elif not np.array_equal(y0.scale.points, p.scale.points):
        raise ValueError("initial guess does not live on the problem's scale")
    elif float(y0.values[0]) != p.alpha or float(y0.values[-1]) != p.beta:
        raise ValueError("initial guess does not satisfy the boundary values")
    sign = -1.0 if config.maximize else 1.0

    vals = np.array(y0.values, dtype=float, copy=True)
    args = _slot_args(p, vals)
    jd, jn = _factors(p, args)  # then carried over with ``args`` from each accepting trial
    converged = False
    predicted = 0  # trial rows the search is predicted to need; none before the first
    cap = max(1, _BLOCK_ELEMENTS // len(vals))
    for iterations in range(config.max_iterations + 1):
        # The iterate's one partials pass; every exit leaves it matching ``vals``.
        parts = _Partials(p, args)
        grad = sign * parts.gradient(jd, jn)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= config.gradient_tolerance:
            converged = bool(np.isfinite(jd * jn))
            break
        if iterations == config.max_iterations:
            break

        f0 = sign * jd * jn
        # An exact power-of-two rescale keeps |grad|^2 finite past |grad| ~ 1e154.
        scale = 2.0 ** max(0, math.frexp(grad_norm)[1] - 480)
        slope = float(np.dot(grad / scale, grad / scale))
        padded = np.concatenate(([0.0], grad, [0.0]))  # y - s * 0.0 keeps each boundary value
        block = math.ceil(predicted / math.ceil(predicted / cap)) if predicted else 1
        k = 0  # the ladder's first rung not yet tried
        while k < len(_STEPS):
            steps = _STEPS[k:k + block]
            trials = steps[:, None] * padded
            np.subtract(vals, trials, out=trials)
            trial_args = _slot_args(p, trials)
            trial_jd, trial_jn = _factors(p, trial_args)  # nan for a trial that leaves the domain
            f1 = [sign * a * b for a, b in zip(trial_jd.tolist(), trial_jn.tolist())]
            passed = [math.isfinite(f) and f < f0 and f <= f0 - _ARMIJO_C * step * slope * scale * scale
                      for f, step in zip(f1, steps.tolist())]
            if any(passed):
                row = passed.index(True)
                break
            k += len(steps)
            if not predicted:
                block = min(2 * block, cap)
        else:
            # No step passes: the last rung on its own raises if domain errors trapped the search.
            try:
                _factors(p, _row(trial_args, -1))
            except EvalDomainError as exc:
                raise StepUnderflowError(
                    "line search step underflowed while the Lagrangian kept raising "
                    f"domain errors; last trial: {exc}"
                ) from exc
            break
        predicted = k + row + 2
        vals, args = trials[row], _row(trial_args, row)
        jd, jn = float(trial_jd[row]), float(trial_jn[row])

    el1, el2 = _el_reports(p, parts, jd, jn)
    return SolveResult(
        y=GridFunction(p.scale, vals),
        j_value=jd * jn,
        gradient_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        el1=el1,
        el2=el2,
    )


def _grid_objectives(p: VariationalProblem, axes: list[np.ndarray]):
    """J of the candidates of the grid ``axes`` that can still be its minimum: (flat indices, J) per batch.

    Edge i's summands read only y_i and y_{i+1}, so each factor takes one
    non-strict value pass over every edge's distinct pairs, with the slot
    arguments ``_slot_args`` gives them, in rows of r pairs on one edge
    (t broadcasts along a row).  ``_survivors`` drops the candidates whose
    J is sure to be above another's; the others, in lexicographic order,
    have their rows of edge values summed with ``_factor`` in batches, so
    each J equals ``j_product`` bit for bit.  Where a pair fails, or J is
    not finite, J is +inf.  A grid that fits in one batch is summed whole.
    """
    pts, gaps = p.scale.points, p.scale.gaps
    ax = np.array(axes)
    m, r = ax.shape
    # One row per boundary edge, and r per inner edge: one per value of its left end.
    left = np.concatenate((np.full(r, p.alpha), np.repeat(ax[:-1], r), ax[-1])).reshape(-1, r)
    right = np.concatenate((ax[0], np.repeat(ax[1:], r, axis=0).ravel(), np.full(r, p.beta))).reshape(-1, r)
    sizes = np.array([r, *[r * r] * (m - 1), r])
    edge = np.repeat(np.arange(m + 1), sizes // r)[:, None]
    quot = (right - left) / gaps[edge]
    delta, nabla = (pts[edge], right, quot), (pts[edge + 1], left, quot)
    ld, ln = _passes(p, delta, nabla)  # a t per row: the unfixed tape, nan where a pair fails
    ld, ln = ld.ravel(), ln.ravel()
    # Candidate f's pair on edge i is its base-r digits i-1 and i read as one
    # number, or its one digit there on a boundary edge.
    div = r ** np.maximum(np.arange(m, -1, -1) - 1, 0)
    offsets = np.cumsum(sizes) - sizes
    batch = max(1, _BLOCK_ELEMENTS // (m + 1))  # a factor's rows of a batch
    kept = [np.arange(r**m)] if r**m <= batch else _survivors(ld, ln, gaps, edge, m)
    for keep in kept:
        for i in range(0, len(keep), batch):
            f = keep[i:i + batch]
            rows = f[:, None] // div % sizes + offsets
            j = _factor(gaps, ld[rows]) * _factor(gaps, ln[rows])
            yield f, np.where(np.isfinite(j), j, np.inf)


def _survivors(ld: np.ndarray, ln: np.ndarray, gaps: np.ndarray, edge: np.ndarray, m: int):
    """Flat indices, slab by slab, of the candidates whose J can still be the grid's minimum.

    A slab runs over ``run`` whole first-digit values.  Per factor and
    first-digit value, the edges' largest |terms| add up to at least each
    candidate's sum of |terms|; one E serves the scan, from the largest of
    those sums that is finite.  A slab with a first-digit value where one is
    not finite (a term fails or overflows) keeps all.  A candidate stays if
    its A - E is at most the least A + E so far; rounding is monotone, so
    one left out has a J above some other candidate's.
    """
    r = len(ld) // len(edge)
    run = max(1, _BLOCK_ELEMENTS // r ** (m - 1))  # first-digit values per slab
    # Edge i's terms gaps[i] * value lie on the axes of its digits, i-1 and i
    # (one on a boundary edge).  Edges 0 and 1 read the first digit; the
    # others add up to the same tail in every slab.
    rows = [0, 1, *range(1 + r, len(edge), r), len(edge)]
    terms = np.stack((ld, ln)).reshape(2, -1, r) * gaps[edge]
    edges = [terms[:, lo:hi].reshape(2, *(r if d in span else 1 for d in range(m)))
             for span, lo, hi in zip([(0,), *[(i - 1, i) for i in range(1, m)], (m - 1,)], rows, rows[1:])]
    tail = sum(edges[2:], np.zeros((2,) + (1,) * m))
    most = sum(np.abs(t).max(axis=tuple(range(2, m + 1))) for t in edges)
    finite = np.isfinite(most)
    bad = ~finite.all(axis=0)  # per first-digit value
    bound = _estimate_bound(m, *np.where(finite, most, 0.0).max(axis=1).tolist())
    threshold = np.inf  # the least A + E so far: the minimum J is at most this
    size = r ** (m - 1)
    for a in range(0, r, run):
        if bound == np.inf or bad[a:a + run].any():
            yield np.arange(a * size, min(a + run, r) * size)
            continue
        estimate, other = (sum(t[k, a:a + run] for t in edges[:2]) + tail[k] for k in (0, 1))
        estimate *= other
        threshold = min(threshold, float(estimate.min()) + bound)
        estimate -= bound
        keep = a * size + np.flatnonzero(estimate <= threshold)
        del estimate, other  # free the slab before its survivors are summed
        yield keep


def _estimate_bound(m: int, pd: float, pn: float) -> float:
    """A bound on |A - J| for candidates whose factors' sums of |gaps[i] * value| are at most pd and pn.

    The estimate's factors and ``_factor``'s are sums of m + 1 products, each
    within gamma_{m+1} times its sum of |products| of the exact sum, whatever
    the order or use of fused multiply-adds, and each product rounds once
    more: |A - J| <= 5 gamma (1 + gamma)^2 pd pn / (1 - u)^2.  E is twice
    that, for the rounding of E itself, plus a margin for underflow; it is
    inf where a sum or the product could overflow.
    """
    if not (pd <= 2.0**1020 and pn <= 2.0**1020 and pd * pn <= 2.0**1020):  # nan fails too
        return np.inf
    gamma = (m + 1) * 2.0**-53 / (1 - (m + 1) * 2.0**-53)
    return 10 * gamma * pd * pn + (pd + pn + 1) * 2.0**-1069


@np.errstate(all="ignore")
def brute_force_oracle(
    p: VariationalProblem, bounds: tuple[float, float], resolution: int
) -> GridFunction:
    """Grid-search minimizer for instances with at most 3 interior points.

    Scans ``resolution`` values per axis over ``bounds``, then rescans once
    with the same resolution across the cell around the best point (one
    coarse step to each side, clipped to the bounds).  Ties break toward
    the lexicographically smallest interior vector; candidates that raise
    domain errors are skipped.
    """
    interior = len(p.scale) - 2
    if interior > 3:
        raise ValueError(f"brute force search limited to 3 interior points, got {interior}")
    if _as_number(resolution, "resolution", "an integer", kind=numbers.Integral) < 11:
        raise ValueError(f"resolution must be at least 11, got {resolution}")
    rule = "finite numbers lo < hi with a finite span"
    lo, hi = (float(_as_number(bound, "bounds", rule)) for bound in bounds)
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite span needs finite bounds
        raise ValueError(f"bounds must be {rule}, got ({lo!r}, {hi!r})")

    def scan(axes: list[np.ndarray]) -> list[float]:
        best, best_j = None, np.inf
        for f, j in _grid_objectives(p, axes):
            k = int(np.argmin(j))  # the first minimum keeps the lexicographic tie-break
            if j[k] < best_j:
                best, best_j = int(f[k]), j[k]
        if best is None:
            raise ValueError("no feasible candidate inside the search bounds")
        return [axis[i] for axis, i in zip(axes, np.unravel_index(best, (resolution,) * interior))]

    coarse_step = (hi - lo) / (resolution - 1)
    best = scan([np.linspace(lo, hi, resolution)] * interior)
    best = scan([np.linspace(max(lo, c - coarse_step), min(hi, c + coarse_step), resolution) for c in best])
    return GridFunction(p.scale, np.array([p.alpha, *best, p.beta]))


class PerturbationAudit(Record):
    """Sampled local behaviour of the objective around a solution."""

    radius: float
    trials: int
    j_reference: float
    j_min: float
    j_max: float
    fraction_below: float
    classification: str

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


@np.errstate(all="ignore")
def perturbation_audit(
    p: VariationalProblem,
    result: SolveResult,
    radius: float,
    trials: int,
    seed: int = 0,
) -> PerturbationAudit:
    """Sample boundary-respecting perturbations of norm at most ``radius``.

    Counts samples whose objective falls below J(solution) - 1e-12 and
    classifies the evidence: none below and some above is local-min
    evidence, the mirror image is local-max evidence, anything else
    (including a flat objective) stays indeterminate.
    """
    if not result.converged:
        raise ValueError("perturbation audit requires a converged result")
    # Plain numbers, so the audit serializes; NaN fails the comparison.
    radius = float(_as_number(radius, "radius", "a positive finite number", lambda v: 0 < v < math.inf))
    trials = int(_as_number(trials, "trials", "a positive integer", lambda v: v >= 1, kind=numbers.Integral))
    rng = np.random.default_rng(seed)
    base = result.y.values
    n = base.size
    j_ref = result.j_value
    below = 0
    above = 0
    j_min = np.inf
    j_max = -np.inf
    for _ in range(trials):
        bump = np.zeros(n)
        bump[1:-1] = rng.standard_normal(n - 2)
        norm = c1_diamond_norm(GridFunction(p.scale, bump))
        target = radius * float(rng.uniform())
        if norm > 0.0:
            bump *= target / norm
        jd, jn = _factors(p, _slot_args(p, base + bump))
        j = jd * jn
        j_min = min(j_min, j)
        j_max = max(j_max, j)
        if j < j_ref - 1e-12:
            below += 1
        elif j > j_ref + 1e-12:
            above += 1
    if below == 0 and above > 0:
        classification = "local-min evidence"
    elif above == 0 and below > 0:
        classification = "local-max evidence"
    else:
        classification = "saddle/indeterminate"
    return PerturbationAudit(
        radius=radius,
        trials=trials,
        j_reference=j_ref,
        j_min=float(j_min),
        j_max=float(j_max),
        fraction_below=below / trials,
        classification=classification,
    )
