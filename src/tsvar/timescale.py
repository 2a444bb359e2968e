"""Finite time scales and their jump geometry.

A time scale here is a strictly increasing finite sequence of real points
t_0 < t_1 < ... < t_{n-1}.  Every point is isolated, so the forward and
backward jump operators, the graininess functions, and the truncated index
sets below describe the grid completely.  All difference calculus built on
top of this module is exact on such grids, which is what lets the identity
checks downstream run at rounding tolerance instead of discretization
tolerance.

Indices, not point values, are the canonical handles everywhere in this
package.  Operators take and return integer indices; the float coordinates
live only in ``TimeScale.points``.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .record import Record

__all__ = [
    "DUPLICATE_TOLERANCE",
    "KappaKind",
    "KappaSet",
    "TimeScale",
    "TimeScaleError",
    "kappa_set",
    "make_timescale",
    "mu",
    "nu",
    "rho",
    "sigma",
    "uniform_scale",
]

# Two points closer than this (absolute) are rejected as duplicates.
DUPLICATE_TOLERANCE = 1e-12


class TimeScaleError(ValueError):
    """The given point sequence does not form a valid time scale."""


class KappaKind(Enum):
    """The six index-set truncations used by the difference calculus."""

    FULL = "full"
    UPPER = "upper-kappa"
    LOWER = "lower-kappa"
    UPPER_SQUARED = "upper-kappa-squared"
    LOWER_SQUARED = "lower-kappa-squared"
    BOTH = "both-kappa"


class KappaSet(Record):
    """A contiguous range of point indices, tagged by which truncation it is.

    ``start`` is inclusive, ``stop`` exclusive, as with Python ranges.
    """

    kind: KappaKind
    start: int
    stop: int

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, index: object) -> bool:
        return self.start <= _as_index(index) < self.stop


class TimeScale(Record, eq=False):
    """An immutable, validated, strictly increasing point sequence."""

    points: np.ndarray
    # __post_init__ also sets gaps, not a field: gaps[i] = points[i+1] - points[i],
    # the forward graininess at i and the backward one at i+1.

    def __post_init__(self) -> None:
        pts = _as_floats(self.points, "point at index")
        if pts.ndim != 1:
            raise TimeScaleError("points must form a one-dimensional sequence")
        if pts.size < 3:
            raise TimeScaleError(f"need at least 3 points, got {pts.size}")
        # One reduction per check; the index is looked up only to name a failure.
        finite = np.isfinite(pts)
        if np.count_nonzero(finite) < pts.size:
            raise TimeScaleError(f"non-finite point at index {int(np.argmin(finite))}")
        diffs = np.diff(pts)
        close = diffs <= DUPLICATE_TOLERANCE
        if np.count_nonzero(close):
            i = int(np.argmax(close))
            if abs(float(diffs[i])) <= DUPLICATE_TOLERANCE:
                raise TimeScaleError(f"duplicate point at index {i + 1}")
            raise TimeScaleError(f"points not increasing at index {i + 1}")
        pts.flags.writeable = False
        diffs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "gaps", diffs)

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def a(self) -> float:
        """Left endpoint t_0."""
        return float(self.points[0])

    @property
    def b(self) -> float:
        """Right endpoint t_{n-1}."""
        return float(self.points[-1])

    def to_json(self) -> str:
        """Serialize as a JSON array; floats round-trip bit-exactly."""
        return json.dumps([float(p) for p in self.points])

    @staticmethod
    def from_json(text: str) -> "TimeScale":
        data = json.loads(text)
        if not isinstance(data, list):
            raise TimeScaleError("expected a JSON array of numbers")
        return make_timescale(data)


def make_timescale(points: Sequence[float]) -> TimeScale:
    """Validate and freeze a point sequence.

    Rejects sequences with fewer than 3 points, entries that are not real
    numbers (a bool or a string), non-finite entries, and non-increasing or
    duplicate pairs (absolute tolerance 1e-12), naming the offending index.
    Nothing is silently repaired.
    """
    return TimeScale(points)


def uniform_scale(a: float, b: float, n_points: int) -> TimeScale:
    """Evenly spaced scale from ``a`` to ``b`` with exact endpoints."""
    _as_number(a, "a", "a real number")
    _as_number(b, "b", "a real number")
    _as_number(n_points, "n_points", "an integer", kind=numbers.Integral)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise TimeScaleError("endpoints must be finite")
    if not a < b:
        raise TimeScaleError(f"need a < b, got a={a!r}, b={b!r}")
    if n_points < 3:
        raise TimeScaleError(f"need at least 3 points, got {n_points}")
    try:
        points = np.linspace(a, b, n_points)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array size
        raise TimeScaleError(f"n_points is too large to allocate, got {n_points}") from None
    return TimeScale(points)


def _as_index(i: object) -> int:
    """``i`` as an int: Python and numpy integers pass, bools and the rest raise ``TypeError``."""
    if not isinstance(i, (bool, np.bool_)):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise TypeError(f"point index must be an integer, got {i!r}")


def _as_number(value, what: str, rule: str, ok: Callable = lambda v: True, kind: type = numbers.Real):
    """``value`` if it is a ``kind`` number, not a bool, that passes ``ok``; else ``ValueError``.

    The one number rule of the package; the message reads "{what} must be {rule}, got {value!r}",
    or "{what} is too large for a float" for a number past the float range.
    """
    if isinstance(value, kind) and not isinstance(value, (bool, np.bool_)):
        try:
            float(value)
        except OverflowError:  # an integer past the largest float
            raise ValueError(f"{what} is too large for a float") from None
        if ok(value):
            return value
    raise ValueError(f"{what} must be {rule}, got {value!r}")


def _as_floats(values, what: str) -> np.ndarray:
    """``values`` as a new float array, after the number rule.

    A numpy array needs an integer or float dtype.  Each entry of a flat or
    ragged sequence must be a real number, and "{what} {i}" names the first
    that is not; any other shape is left to the caller's shape check.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ValueError(f"need an array of integers or floats, got dtype {values.dtype}")
    else:
        try:
            flat = np.ndim(values) == 1
        except ValueError:  # ragged: numpy cannot stack it
            flat = True
        if flat:
            for i, value in enumerate(values):
                _as_number(value, f"{what} {i}", "a real number")
    return np.array(values, dtype=float)


def _check_index(ts: TimeScale, i: object) -> int:
    i = _as_index(i)
    n = len(ts)
    if not 0 <= i < n:
        raise IndexError(f"point index {i} out of range for scale of {n} points")
    return i


def sigma(ts: TimeScale, i: int) -> int:
    """Forward jump: index of the next point, clamped at the right endpoint."""
    return min(_check_index(ts, i) + 1, len(ts) - 1)


def rho(ts: TimeScale, i: int) -> int:
    """Backward jump: index of the previous point, clamped at the left endpoint."""
    return max(_check_index(ts, i) - 1, 0)


def mu(ts: TimeScale, i: int) -> float:
    """Forward graininess t_{i+1} - t_i; undefined at the last point."""
    i = _check_index(ts, i)
    if i == len(ts) - 1:
        raise ValueError("forward graininess undefined at the last point")
    return float(ts.gaps[i])


def nu(ts: TimeScale, i: int) -> float:
    """Backward graininess t_i - t_{i-1}; undefined at the first point."""
    i = _check_index(ts, i)
    if i == 0:
        raise ValueError("backward graininess undefined at the first point")
    return float(ts.gaps[i - 1])


# The number of points each truncation drops at the left and at the right end.
_KAPPA_DROPS = {
    KappaKind.FULL: (0, 0),
    KappaKind.UPPER: (0, 1),
    KappaKind.LOWER: (1, 0),
    KappaKind.UPPER_SQUARED: (0, 2),
    KappaKind.LOWER_SQUARED: (2, 0),
    KappaKind.BOTH: (1, 1),
}


def kappa_set(ts: TimeScale, kind: KappaKind | str) -> KappaSet:
    """The index range for a truncation of the scale.

    The squared truncations drop two points from one end and require a scale
    of at least 4 points; the plain ones are always nonempty on a valid
    scale.
    """
    if isinstance(kind, str):
        try:
            kind = KappaKind(kind)
        except ValueError:
            names = ", ".join(k.value for k in KappaKind)
            raise ValueError(f"unknown kappa set kind {kind!r}; expected one of: {names}") from None
    n = len(ts)
    if kind in (KappaKind.UPPER_SQUARED, KappaKind.LOWER_SQUARED) and n < 4:
        raise TimeScaleError(f"scale too short for {kind.value}: need at least 4 points, got {n}")
    left, right = _KAPPA_DROPS[kind]
    return KappaSet(kind, left, n - right)
