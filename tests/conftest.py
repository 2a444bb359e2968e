"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the closed-form code paths in the
package: gradients are reassembled from hat-function variations using only
the calculus primitives, or from central finite differences of the
objective. Tests freeze oracle outputs as literals and check both the
oracle and the implementation against them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from tsvar import (
    GridFunction,
    TimeScale,
    VariationalProblem,
    compose_rho,
    compose_sigma,
    delta_derivative,
    delta_integral,
    j_product,
    make_timescale,
    nabla_derivative,
    nabla_integral,
)

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def random_scale(rng: np.random.Generator, n_min=4, n_max=12,
                 gap_lo=0.05, gap_hi=2.0) -> TimeScale:
    n = int(rng.integers(n_min, n_max + 1))
    gaps = rng.uniform(gap_lo, gap_hi, size=n - 1)
    start = rng.uniform(-5.0, 5.0)
    return make_timescale(start + np.concatenate(([0.0], np.cumsum(gaps))))


def random_grid(rng: np.random.Generator, ts: TimeScale,
                scale=1.0) -> GridFunction:
    return GridFunction(ts, rng.standard_normal(len(ts)) * scale)


def battery_draws(seed: int, cases: int):
    """Each case's pair of grid functions, drawn as ``verify-identities`` draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(5, 51))
        gaps = 10.0 ** rng.uniform(-3.0, 1.0, n - 1)
        start = float(rng.uniform(-10.0, 10.0))
        ts = make_timescale(start + np.concatenate(([0.0], np.cumsum(gaps))))
        f = GridFunction(ts, rng.standard_normal(n))
        yield f, GridFunction(ts, rng.standard_normal(n))


def hat(ts: TimeScale, k: int) -> GridFunction:
    vals = np.zeros(len(ts))
    vals[k] = 1.0
    return GridFunction(ts, vals)


def _pad_upper(ts: TimeScale, upper_vals: np.ndarray) -> GridFunction:
    # delta_integral never reads the last entry
    return GridFunction(ts, np.append(upper_vals, 0.0))


def _pad_lower(ts: TimeScale, lower_vals: np.ndarray) -> GridFunction:
    # nabla_integral never reads the first entry
    return GridFunction(ts, np.concatenate(([0.0], lower_vals)))


def hat_gradient_oracle(p: VariationalProblem, y: GridFunction):
    """First variation via hat-function expansion of each factor.

    Returns (delta_terms, nabla_terms, full) where full[k-1] is the
    derivative of J(y + s*hat_k) at s=0 for each interior index k.
    Everything is assembled from compose/derivative/integral primitives.
    """
    ts = p.scale
    pts = ts.points
    n = len(ts)
    ysig = compose_sigma(y).values
    yrho = compose_rho(y).values
    yd = delta_derivative(y).values
    yn = nabla_derivative(y).values

    d2d = np.array([p.l_delta.d2(pts[i], ysig[i], yd[i]) for i in range(n - 1)])
    d3d = np.array([p.l_delta.d3(pts[i], ysig[i], yd[i]) for i in range(n - 1)])
    # lower-kappa entry j sits at point j+1
    d2n = np.array([p.l_nabla.d2(pts[j + 1], yrho[j + 1], yn[j])
                    for j in range(n - 1)])
    d3n = np.array([p.l_nabla.d3(pts[j + 1], yrho[j + 1], yn[j])
                    for j in range(n - 1)])
    ld_vals = np.array([p.l_delta.eval(pts[i], ysig[i], yd[i])
                        for i in range(n - 1)])
    ln_vals = np.array([p.l_nabla.eval(pts[j + 1], yrho[j + 1], yn[j])
                        for j in range(n - 1)])
    jd = delta_integral(_pad_upper(ts, ld_vals))
    jn = nabla_integral(_pad_lower(ts, ln_vals))

    delta_terms = []
    nabla_terms = []
    for k in range(1, n - 1):
        e = hat(ts, k)
        esig = compose_sigma(e).values
        erho = compose_rho(e).values
        ed = delta_derivative(e).values
        en = nabla_derivative(e).values
        delta_terms.append(delta_integral(
            _pad_upper(ts, d2d * esig[:-1] + d3d * ed)))
        nabla_terms.append(nabla_integral(
            _pad_lower(ts, d2n * erho[1:] + d3n * en)))
    delta_terms = np.array(delta_terms)
    nabla_terms = np.array(nabla_terms)
    return delta_terms, nabla_terms, jn * delta_terms + jd * nabla_terms


def fd_gradient_oracle(p: VariationalProblem, y: GridFunction,
                       h_scale=1e-6, functional=j_product) -> np.ndarray:
    """Central finite differences of ``functional``, by default the product."""
    base = y.values
    out = []
    for k in range(1, len(base) - 1):
        h = h_scale * (1.0 + abs(base[k]))
        up = base.copy()
        up[k] += h
        dn = base.copy()
        dn[k] -= h
        out.append((functional(p, GridFunction(p.scale, up))
                    - functional(p, GridFunction(p.scale, dn))) / (2.0 * h))
    return np.array(out)
