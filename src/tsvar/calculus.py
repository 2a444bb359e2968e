"""Difference calculus on a finite time scale.

Grid functions are real vectors indexed by the points of a scale.  The
forward (delta) derivative lives on the upper-kappa index set, the backward
(nabla) derivative on the lower-kappa set; both are plain difference
quotients and therefore exact.  Integrals are the matching weighted sums.

Because every point is isolated, the classical bridges between the two
calculi hold with zero discretization error:

* integration by parts, in its four delta/nabla variants,
* the shift relations between the two derivatives,
* rewriting a delta integral as a nabla integral of the backward shift
  (and vice versa),
* peeling a single endpoint cell off either integral.

The ``check_*`` functions below evaluate both sides of each identity
straight from the value and gap arrays, with the primitives' arithmetic
but none of their intermediate objects, and return relative residuals,
defined as ``|lhs - rhs| / (1 + |rhs|)``.  On valid inputs these are
rounding noise, several orders below the 1e-10 budget the test suite
enforces.  As the two derivatives are one quotient array on two index
sets, six of the twelve residuals are copies of two others or zero by
construction; each is computed once (see the functions).
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .record import Record
from .timescale import KappaKind, KappaSet, TimeScale, _as_floats, _as_index, kappa_set, make_timescale

__all__ = [
    "GridFunction",
    "PartialGridFunction",
    "c1_diamond_norm",
    "check_derivative_relation",
    "check_integral_conversion",
    "check_integral_splitting",
    "check_parts_formulas",
    "compose_rho",
    "compose_sigma",
    "delta_derivative",
    "delta_integral",
    "nabla_derivative",
    "nabla_integral",
]


def _require_finite(vals: np.ndarray, where: str) -> np.ndarray:
    """``vals``, after raising if an entry is not finite; ``where`` names its index."""
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) < vals.size:
        raise ValueError(f"non-finite value at {where} {int(np.argmin(finite))}")
    return vals


def _frozen(values, n: int, per: str, where: str) -> np.ndarray:
    """``values`` as a read-only float copy of shape (n,), all finite; ``per`` and ``where`` name an entry."""
    vals = _as_floats(values, f"value at {where}")
    if vals.shape != (n,):
        raise ValueError(f"need one value per {per}: expected {n}, got {vals.shape}")
    _require_finite(vals, where)
    vals.flags.writeable = False
    return vals


class GridFunction(Record, eq=False):
    """A finite real-valued function sampled at every point of a scale."""

    scale: TimeScale
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, len(self.scale), "point", "index"))

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def sample(cls, scale: TimeScale, fn: Callable[[float], float]) -> "GridFunction":
        return cls(scale, np.array([fn(float(t)) for t in scale.points]))

    def to_dict(self) -> dict:
        return {
            "scale": [float(t) for t in self.scale.points],
            "values": [float(v) for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "GridFunction":
        if not isinstance(data, dict) or set(data) != {"scale", "values"}:
            raise ValueError("expected an object with exactly the keys 'scale' and 'values'")
        return GridFunction(make_timescale(data["scale"]), data["values"])

    @staticmethod
    def from_json(text: str) -> "GridFunction":
        return GridFunction.from_dict(json.loads(text))


class PartialGridFunction(Record, eq=False):
    """Values attached to a kappa-truncated index set only.

    Derivatives are stored this way rather than zero-padded to the full
    scale, so reading one outside its domain is impossible by construction.
    """

    scale: TimeScale
    domain: KappaSet
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, len(self.domain), "domain index", "domain position"))

    @property
    def times(self) -> np.ndarray:
        return self.scale.points[self.domain.start : self.domain.stop]

    def value_at(self, point_index: int) -> float:
        """Value at a global point index; the index must lie in the domain."""
        if point_index not in self.domain:
            raise IndexError(
                f"point index {point_index} outside domain "
                f"[{self.domain.start}, {self.domain.stop}) ({self.domain.kind.value})"
            )
        return float(self.values[point_index - self.domain.start])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _same_scale(f: GridFunction, g: GridFunction) -> None:
    if f.scale is not g.scale and not np.array_equal(f.scale.points, g.scale.points):
        raise ValueError("grid functions live on different scales")


def delta_derivative(y: GridFunction) -> PartialGridFunction:
    """Forward difference quotient, defined on the upper-kappa set."""
    vals = y.values
    quot = (vals[1:] - vals[:-1]) / y.scale.gaps
    return PartialGridFunction(y.scale, kappa_set(y.scale, KappaKind.UPPER), quot)


def nabla_derivative(y: GridFunction) -> PartialGridFunction:
    """Backward difference quotient, defined on the lower-kappa set."""
    vals = y.values
    quot = (vals[1:] - vals[:-1]) / y.scale.gaps
    return PartialGridFunction(y.scale, kappa_set(y.scale, KappaKind.LOWER), quot)


def _check_bounds(ts: TimeScale, start: object, stop: object) -> tuple[int, int]:
    start, stop, n = _as_index(start), _as_index(stop), len(ts)
    if not (0 <= start < n and 0 <= stop < n):
        raise IndexError(f"integration endpoints ({start}, {stop}) out of range for {n} points")
    if start > stop:
        raise ValueError(f"integration start index {start} exceeds stop index {stop}")
    return start, stop


def delta_integral(f: GridFunction, start: int = 0, stop: int | None = None) -> float:
    """Sum of mu(i) * f(i) over point indices in [start, stop).

    ``start`` and ``stop`` are point indices; the value of ``f`` at the stop
    point itself never enters.  Empty ranges integrate to zero.
    """
    if stop is None:
        stop = len(f.scale) - 1
    start, stop = _check_bounds(f.scale, start, stop)
    return float(np.dot(f.scale.gaps[start:stop], f.values[start:stop]))


def nabla_integral(f: GridFunction, start: int = 0, stop: int | None = None) -> float:
    """Sum of nu(i) * f(i) over point indices in (start, stop].

    The value of ``f`` at the start point never enters.  Empty ranges
    integrate to zero.
    """
    if stop is None:
        stop = len(f.scale) - 1
    start, stop = _check_bounds(f.scale, start, stop)
    return float(np.dot(f.scale.gaps[start:stop], f.values[start + 1 : stop + 1]))


def compose_sigma(f: GridFunction) -> GridFunction:
    """f after the forward jump; the last value repeats."""
    return GridFunction(f.scale, np.append(f.values[1:], f.values[-1]))


def compose_rho(f: GridFunction) -> GridFunction:
    """f after the backward jump; the first value repeats."""
    return GridFunction(f.scale, np.concatenate(([f.values[0]], f.values[:-1])))


def _residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _checked_quotients(f: GridFunction) -> np.ndarray:
    """The difference quotients of ``f``, one per gap.

    Entry i is f's delta derivative at point i and its nabla derivative at
    point i + 1.  Raises as ``delta_derivative`` does if one is not finite.
    """
    vals = f.values
    return _require_finite((vals[1:] - vals[:-1]) / f.scale.gaps, "domain position")


def check_parts_formulas(f: GridFunction, g: GridFunction) -> tuple[float, float, float, float]:
    """Relative residuals of the four integration-by-parts identities.

    Writing B for the boundary bracket (fg)(b) - (fg)(a), the identities are

        int f^sigma g^delta (delta) = B - int f^delta g         (delta)
        int f       g^delta (delta) = B - int f^delta g^sigma   (delta)
        int f^rho   g^nabla (nabla) = B - int f^nabla g         (nabla)
        int f       g^nabla (nabla) = B - int f^nabla g^rho     (nabla)

    Each side telescopes exactly on an isolated scale.  The nabla forms are
    the delta forms re-indexed: the nabla quotient at point i + 1 is the
    delta quotient at point i, and f^rho there reads f at point i.  So the
    third residual is the second and the fourth the first, bit for bit, and
    each is computed once.
    """
    _same_scale(f, g)
    gaps = f.scale.gaps
    fv, gv = f.values, g.values
    fd, gd = _checked_quotients(f), _checked_quotients(g)
    boundary = float(fv[-1] * gv[-1] - fv[0] * gv[0])

    # Delta integrands live on the upper-kappa indices (drop the last point),
    # where a sigma shift reads v[1:].
    r1 = _residual(float(np.dot(gaps, fv[1:] * gd)), boundary - float(np.dot(gaps, fd * gv[:-1])))
    r2 = _residual(float(np.dot(gaps, fv[:-1] * gd)), boundary - float(np.dot(gaps, fd * gv[1:])))
    return r1, r2, r2, r1


def check_derivative_relation(f: GridFunction) -> tuple[float, float]:
    """Relative residuals of the derivative shift relations.

    First: the nabla derivative against the backward shift of the delta
    derivative, pointwise over lower-kappa.  Second: the delta derivative
    against the forward shift of the nabla derivative, over upper-kappa.
    Both sides of each are the one quotient of the same point pair, so both
    residuals are exactly 0.0; the check raises as ``delta_derivative``
    does if a quotient is not finite.
    """
    _checked_quotients(f)
    return 0.0, 0.0


def check_integral_conversion(f: GridFunction) -> tuple[float, float]:
    """Relative residuals of the two full-range integral conversions.

    A delta integral equals the nabla integral of the backward shift, and a
    nabla integral equals the delta integral of the forward shift.  Both
    sides of each are the one weighted sum, so each residual is 0.0 for a
    finite integral and nan where it overflows.
    """
    gaps, fv = f.scale.gaps, f.values
    # f^rho over lower-kappa reads fv[:-1], f^sigma over upper-kappa fv[1:].
    delta, nabla = float(np.dot(gaps, fv[:-1])), float(np.dot(gaps, fv[1:]))
    return _residual(delta, delta), _residual(nabla, nabla)


def check_integral_splitting(f: GridFunction) -> tuple[float, float, float, float]:
    """Relative residuals of the four endpoint-cell splitting identities.

    A full-range integral of either kind can be split at the second-to-last
    point or at the second point, with the stray cell weighted by the gap it
    spans.  Which value of ``f`` the stray cell picks up differs between the
    delta and nabla cases; that asymmetry is the content being checked.
    """
    gaps, fv = f.scale.gaps, f.values
    first, last = float(gaps[0]), float(gaps[-1])

    d_full = float(np.dot(gaps, fv[:-1]))
    n_full = float(np.dot(gaps, fv[1:]))

    r1 = _residual(d_full, float(np.dot(gaps[:-1], fv[:-2])) + last * float(fv[-2]))
    r2 = _residual(d_full, first * float(fv[0]) + float(np.dot(gaps[1:], fv[1:-1])))
    r3 = _residual(n_full, float(np.dot(gaps[:-1], fv[1:-1])) + last * float(fv[-1]))
    r4 = _residual(n_full, first * float(fv[1]) + float(np.dot(gaps[1:], fv[2:])))
    return r1, r2, r3, r4


def c1_diamond_norm(y: GridFunction) -> float:
    """Sup-norm bundle controlling a grid function and both its derivatives.

    Sum of four sup-norms: the forward and backward shifts of ``y`` taken
    over the interior (both-kappa) indices, plus each derivative over its
    own natural domain.  Zero exactly when ``y`` vanishes identically.
    """
    vals = y.values
    # y^sigma on interior index i reads vals[i+1], i = 1..n-2; y^rho reads vals[i-1].
    sup_sigma = float(np.max(np.abs(vals[2:])))
    sup_rho = float(np.max(np.abs(vals[:-2])))
    # Both derivatives take their values from the one quotient array.
    sup_derivative = float(np.max(np.abs(_checked_quotients(y))))
    return sup_sigma + sup_rho + sup_derivative + sup_derivative
