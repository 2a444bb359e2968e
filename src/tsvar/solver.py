"""Minimization of the product objective over interior values.

Plain gradient descent on the interior value vector, with Armijo
backtracking on each step.  The search direction is the exact first
variation, so no step-size tuning enters the gradient itself.  Everything
is deterministic: same problem, same configuration, same start, same
result, bit for bit.  Each iterate evaluates its partials once (line-search
trials evaluate values only), and the result's J, gradient sup-norm and
EL1/EL2 reports reuse the final iterate's pass instead of evaluating again.

``brute_force_oracle`` is an independent check for small instances: it
scans a full grid over the interior values, then rescans once across the
best cell.  ``perturbation_audit`` samples random boundary-respecting
perturbations around a solution and reports whether any of them beat it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .calculus import GridFunction, c1_diamond_norm
from .lagrangian import EvalDomainError
from .variational import (
    ELReport,
    VariationalProblem,
    _el_reports,
    _functionals,
    _Partials,
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

# Below this step size the line search gives up.
_STEP_FLOOR = 1e-300


class StepUnderflowError(RuntimeError):
    """Line search could not leave a domain-error region at any step size."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 10000
    gradient_tolerance: float = 1e-10
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    maximize: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")


@dataclass(frozen=True, eq=False)
class SolveResult:
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


def chord(p: VariationalProblem) -> GridFunction:
    """Linear interpolation between the boundary values; the default start."""
    pts = p.scale.points
    span = pts[-1] - pts[0]
    vals = p.alpha + (p.beta - p.alpha) * (pts - pts[0]) / span
    vals = np.asarray(vals, dtype=float).copy()
    vals[0] = p.alpha
    vals[-1] = p.beta
    return GridFunction(p.scale, vals)


def solve(
    p: VariationalProblem,
    config: SolverConfig | None = None,
    y0: GridFunction | None = None,
) -> SolveResult:
    """Descend the product objective from ``y0`` (default: the chord).

    Convergence means the sup-norm of the exact gradient fell to
    ``gradient_tolerance``.  Hitting the iteration budget, or reaching a
    point where no step passes the Armijo test, returns a result flagged
    not converged rather than raising.  A Lagrangian domain error during
    the line search only shrinks the step; if the step underflows while
    still erroring, ``StepUnderflowError`` is raised.
    """
    config = config or SolverConfig()
    if y0 is None:
        y0 = chord(p)
    else:
        start = GridFunction(p.scale, y0.values)
        if float(start.values[0]) != p.alpha or float(start.values[-1]) != p.beta:
            raise ValueError("initial guess does not satisfy the boundary values")
        y0 = start
    sign = -1.0 if config.maximize else 1.0

    vals = np.array(y0.values, dtype=float, copy=True)
    converged = False
    iterations = 0
    for iterations in range(config.max_iterations + 1):
        # The iterate's one density pass; every exit leaves it matching ``vals``.
        parts = _Partials(p, vals)
        grad = sign * parts.gradient()
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= config.gradient_tolerance:
            converged = True
            break
        if iterations == config.max_iterations:
            break

        f0 = sign * parts.jd * parts.jn
        # An exact power-of-two rescale keeps |grad|^2 finite past |grad| ~ 1e154.
        scale = 2.0 ** max(0, math.frexp(grad_norm)[1] - 480)
        slope = float(np.dot(grad / scale, grad / scale))
        step = config.initial_step
        accepted = False
        domain_failed = False
        while step >= _STEP_FLOOR:
            trial = vals.copy()
            trial[1:-1] -= step * grad
            domain_failed = False
            try:
                jd, jn = _functionals(p, trial)
                f1 = sign * jd * jn
            except EvalDomainError:
                domain_failed = True
                f1 = None
            if (
                f1 is not None
                and np.isfinite(f1)
                and f1 <= f0 - config.armijo_c * step * slope * scale * scale
                and f1 < f0
            ):
                vals = trial
                accepted = True
                break
            step *= config.backtrack_factor
        if not accepted:
            if domain_failed:
                raise StepUnderflowError(
                    "line search step underflowed while the Lagrangian kept raising "
                    "domain errors"
                )
            # No admissible decrease at any representable step: report the
            # current point without claiming convergence.
            break

    el1, el2 = _el_reports(p, parts)
    return SolveResult(
        y=GridFunction(p.scale, vals),
        j_value=parts.jd * parts.jn,
        gradient_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        el1=el1,
        el2=el2,
    )


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
    if resolution < 11:
        raise ValueError(f"resolution must be at least 11, got {resolution}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"invalid bounds ({lo!r}, {hi!r})")

    work = np.empty(len(p.scale))
    work[0] = p.alpha
    work[-1] = p.beta

    def scan(axes: list[np.ndarray]) -> tuple[tuple[float, ...], float]:
        best_combo: tuple[float, ...] | None = None
        best_j = np.inf
        for combo in itertools.product(*axes):
            work[1:-1] = combo
            try:
                jd, jn = _functionals(p, work)
            except EvalDomainError:
                continue
            j = jd * jn
            if np.isfinite(j) and j < best_j:
                best_combo = combo
                best_j = j
        if best_combo is None:
            raise ValueError("no feasible candidate inside the search bounds")
        return best_combo, best_j

    coarse_axis = np.linspace(lo, hi, resolution)
    coarse_step = (hi - lo) / (resolution - 1)
    best, _ = scan([coarse_axis] * interior)
    refined_axes = [
        np.linspace(max(lo, c - coarse_step), min(hi, c + coarse_step), resolution)
        for c in best
    ]
    best, _ = scan(refined_axes)

    final = work.copy()
    final[1:-1] = best
    return GridFunction(p.scale, final)


@dataclass(frozen=True)
class PerturbationAudit:
    """Sampled local behaviour of the objective around a solution."""

    radius: float
    trials: int
    j_reference: float
    j_min: float
    j_max: float
    fraction_below: float
    classification: str

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "trials": self.trials,
            "j_reference": self.j_reference,
            "j_min": self.j_min,
            "j_max": self.j_max,
            "fraction_below": self.fraction_below,
            "classification": self.classification,
        }


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
    if radius <= 0:
        raise ValueError("radius must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
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
        jd, jn = _functionals(p, base + bump)
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
