"""One trial per value pass: the tests' reference for the solver's line search.

``tsvar.solve`` walks the Armijo ladder in blocks of trial steps, one value
pass per factor over each block.  Walking the ladder one trial at a time,
as below, is the reference it must match bit for bit: the iterate, J, the
gradient's sup-norm, the iteration count, the EL1 and EL2 reports, and the
``StepUnderflowError`` (message and cause) of a search that domain errors
trap all the way down.  Each factor is the plain ``np.dot`` of the gaps
with one value pass over the slot arguments; the gradient and the EL
reports come from the public functions at each iterate.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from tsvar import (
    EvalDomainError,
    GridFunction,
    StepUnderflowError,
    chord,
    el_residual_1,
    el_residual_2,
    first_variation_gradient,
)

__all__ = ["sequential_solve"]


def factors(p, vals: np.ndarray) -> tuple[float, float]:
    """Jd and Jn of one value array: the delta slot first, then the nabla slot."""
    pts, gaps = p.scale.points, p.scale.gaps
    with np.errstate(all="ignore"):
        quot = (vals[1:] - vals[:-1]) / gaps
        jd = float(np.dot(gaps, p.l_delta.values(pts[:-1], vals[1:], quot)))
        jn = float(np.dot(gaps, p.l_nabla.values(pts[1:], vals[:-1], quot)))
    return jd, jn


def sequential_solve(p, max_iterations: int, maximize: bool = False, y0=None,
                     gradient_tolerance: float = 1e-10) -> SimpleNamespace:
    """Steepest descent with the fixed Armijo policy, one trial step at a time.

    The result has the fields of ``SolveResult`` that a solve computes.
    """
    sign = -1.0 if maximize else 1.0
    vals = np.array((chord(p) if y0 is None else y0).values, dtype=float)
    jd, jn = factors(p, vals)
    converged = False
    for iterations in range(max_iterations + 1):
        grad = sign * first_variation_gradient(p, GridFunction(p.scale, vals))
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= gradient_tolerance:
            converged = bool(np.isfinite(jd * jn))
            break
        if iterations == max_iterations:
            break
        f0 = sign * jd * jn
        scale = 2.0 ** max(0, math.frexp(grad_norm)[1] - 480)
        slope = float(np.dot(grad / scale, grad / scale))
        step = 1.0
        while step >= 1e-300:
            trial = vals.copy()
            trial[1:-1] -= step * grad
            try:
                trial_jd, trial_jn = factors(p, trial)
            except EvalDomainError as exc:
                domain_error = exc
            else:
                domain_error = None
                f1 = sign * trial_jd * trial_jn
                if np.isfinite(f1) and f1 < f0 and f1 <= f0 - 1e-4 * step * slope * scale * scale:
                    break
            step *= 0.5
        else:
            if domain_error is not None:
                raise StepUnderflowError(
                    "line search step underflowed while the Lagrangian kept raising "
                    f"domain errors; last trial: {domain_error}"
                ) from domain_error
            break
        vals, jd, jn = trial, trial_jd, trial_jn
    y = GridFunction(p.scale, vals)
    return SimpleNamespace(y=y, j_value=jd * jn, gradient_norm=grad_norm, iterations=iterations,
                           converged=converged, el1=el_residual_1(p, y), el2=el_residual_2(p, y))
