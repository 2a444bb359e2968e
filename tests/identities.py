"""Object-built identity checks: the tests' reference for ``tsvar.calculus``.

Each check here evaluates both sides of its identity through the public
primitives, building a validated ``GridFunction`` or
``PartialGridFunction`` for every derivative and shift, as the package's
checks once did.  The package now computes straight from the value and gap
arrays, and must return these residuals bit for bit, or raise the same
error where a difference quotient is not finite.
"""

from __future__ import annotations

import numpy as np

from tsvar import (
    GridFunction,
    compose_rho,
    compose_sigma,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
    rho,
    sigma,
)

__all__ = [
    "c1_diamond_norm",
    "check_derivative_relation",
    "check_integral_conversion",
    "check_integral_splitting",
    "check_parts_formulas",
]


def _residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def check_parts_formulas(f: GridFunction, g: GridFunction) -> tuple[float, float, float, float]:
    if f.scale is not g.scale and not np.array_equal(f.scale.points, g.scale.points):
        raise ValueError("grid functions live on different scales")
    gaps = f.scale.gaps
    fv, gv = f.values, g.values
    fd = delta_derivative(f).values
    gd = delta_derivative(g).values
    fn = nabla_derivative(f).values
    gn = nabla_derivative(g).values
    fs = compose_sigma(f).values
    gs = compose_sigma(g).values
    fr = compose_rho(f).values
    gr = compose_rho(g).values

    boundary = float(fv[-1] * gv[-1] - fv[0] * gv[0])

    lhs1 = float(np.dot(gaps, fs[:-1] * gd))
    rhs1 = boundary - float(np.dot(gaps, fd * gv[:-1]))
    lhs2 = float(np.dot(gaps, fv[:-1] * gd))
    rhs2 = boundary - float(np.dot(gaps, fd * gs[:-1]))
    lhs3 = float(np.dot(gaps, fr[1:] * gn))
    rhs3 = boundary - float(np.dot(gaps, fn * gv[1:]))
    lhs4 = float(np.dot(gaps, fv[1:] * gn))
    rhs4 = boundary - float(np.dot(gaps, fn * gr[1:]))

    return (
        _residual(lhs1, rhs1),
        _residual(lhs2, rhs2),
        _residual(lhs3, rhs3),
        _residual(lhs4, rhs4),
    )


def check_derivative_relation(f: GridFunction) -> tuple[float, float]:
    fd = delta_derivative(f)
    fn = nabla_derivative(f)
    shifted_delta = fd.values
    r1 = float(np.max(np.abs(fn.values - shifted_delta) / (1.0 + np.abs(shifted_delta))))
    shifted_nabla = fn.values
    r2 = float(np.max(np.abs(fd.values - shifted_nabla) / (1.0 + np.abs(shifted_nabla))))
    return r1, r2


def check_integral_conversion(f: GridFunction) -> tuple[float, float]:
    r1 = _residual(delta_integral(f), nabla_integral(compose_rho(f)))
    r2 = _residual(nabla_integral(f), delta_integral(compose_sigma(f)))
    return r1, r2


def check_integral_splitting(f: GridFunction) -> tuple[float, float, float, float]:
    ts = f.scale
    pts = ts.points
    last = len(ts) - 1
    prev = rho(ts, last)
    second = sigma(ts, 0)
    fv = f.values

    d_full = delta_integral(f)
    n_full = nabla_integral(f)

    r1 = _residual(d_full, delta_integral(f, 0, prev) + float(pts[last] - pts[prev]) * float(fv[prev]))
    r2 = _residual(d_full, float(pts[second] - pts[0]) * float(fv[0]) + delta_integral(f, second, last))
    r3 = _residual(n_full, nabla_integral(f, 0, prev) + float(pts[last] - pts[prev]) * float(fv[last]))
    r4 = _residual(n_full, float(pts[second] - pts[0]) * float(fv[second]) + nabla_integral(f, second, last))
    return r1, r2, r3, r4


def c1_diamond_norm(y: GridFunction) -> float:
    vals = y.values
    sup_sigma = float(np.max(np.abs(vals[2:])))
    sup_rho = float(np.max(np.abs(vals[:-2])))
    sup_delta = delta_derivative(y).sup_norm()
    sup_nabla = nabla_derivative(y).sup_norm()
    return sup_sigma + sup_rho + sup_delta + sup_nabla
