"""First-order dual numbers: the tests' reference for density partials.

A ``Dual`` carries a value and a single tangent component.  Seeding the
tangent of one input with 1.0 and evaluating an expression yields the exact
partial derivative with respect to that input, no step-size involved.

Walking a density's AST with these numbers, one point at a time, is the
reference that ``tsvar.lagrangian``'s grid evaluation must match bit for
bit: its value, both partials, and the points where it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DomainError", "Dual", "cos", "exp", "log", "power", "sin", "sqrt"]


class DomainError(ArithmeticError):
    """Evaluation left the real domain (log or root of a negative, zero division, sin of inf)."""


@dataclass(frozen=True)
class Dual:
    val: float
    dot: float = 0.0

    def __add__(self, other):
        o = _lift(other)
        return Dual(self.val + o.val, self.dot + o.dot)

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other)
        return Dual(self.val - o.val, self.dot - o.dot)

    def __rsub__(self, other):
        o = _lift(other)
        return Dual(o.val - self.val, o.dot - self.dot)

    def __mul__(self, other):
        o = _lift(other)
        return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        if o.val == 0.0:
            raise DomainError("division by zero")
        val = self.val / o.val
        return Dual(val, (self.dot - val * o.dot) / o.val)

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)


def _lift(x) -> Dual:
    if isinstance(x, Dual):
        return x
    return Dual(float(x))


def sin(x):
    try:
        if isinstance(x, Dual):
            return Dual(math.sin(x.val), math.cos(x.val) * x.dot)
        return math.sin(x)
    except ValueError:  # math.sin rejects +-inf with a bare ValueError
        raise DomainError(f"sin of infinite value {getattr(x, 'val', x)!r}") from None


def cos(x):
    try:
        if isinstance(x, Dual):
            return Dual(math.cos(x.val), -math.sin(x.val) * x.dot)
        return math.cos(x)
    except ValueError:  # math.cos rejects +-inf with a bare ValueError
        raise DomainError(f"cos of infinite value {getattr(x, 'val', x)!r}") from None


def exp(x):
    if isinstance(x, Dual):
        e = math.exp(x.val)
        return Dual(e, e * x.dot)
    return math.exp(x)


def log(x):
    v = x.val if isinstance(x, Dual) else x
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r}")
    if isinstance(x, Dual):
        return Dual(math.log(v), x.dot / v)
    return math.log(v)


def sqrt(x):
    v = x.val if isinstance(x, Dual) else x
    if v < 0.0:
        raise DomainError(f"square root of negative value {v!r}")
    if isinstance(x, Dual):
        if v == 0.0:
            if x.dot != 0.0:
                raise DomainError("square root not differentiable at zero")
            return Dual(0.0, 0.0)
        r = math.sqrt(v)
        return Dual(r, x.dot / (2.0 * r))
    return math.sqrt(v)


def _float_pow(a: float, c: float) -> float:
    # float ** float silently goes complex for negative base with fractional
    # exponent; reject that and the zero-to-negative case up front.
    if a < 0.0 and not float(c).is_integer():
        raise DomainError(f"negative base {a!r} with non-integer exponent {c!r}")
    if a == 0.0 and c < 0.0:
        raise DomainError(f"zero base with negative exponent {c!r}")
    return a ** c


def power(base, exponent):
    """``base ** exponent`` over floats and duals with explicit domain checks."""
    if not isinstance(base, Dual) and not isinstance(exponent, Dual):
        return _float_pow(float(base), float(exponent))
    b = _lift(base)
    e = _lift(exponent)
    if e.dot == 0.0:
        c = e.val
        value = _float_pow(b.val, c)
        if c == 0.0:
            return Dual(value, 0.0)
        if b.val == 0.0:
            # value is 0 here; the power rule degenerates at the origin.
            if c > 1.0:
                return Dual(0.0, 0.0)
            if c == 1.0:
                return Dual(0.0, b.dot)
            if b.dot == 0.0:
                return Dual(0.0, 0.0)
            raise DomainError(f"power {c!r} not differentiable at zero base")
        return Dual(value, c * _float_pow(b.val, c - 1.0) * b.dot)
    if b.val <= 0.0:
        raise DomainError(
            f"base {b.val!r} must be positive when the exponent carries a derivative"
        )
    value = b.val ** e.val
    return Dual(value, value * (e.dot * math.log(b.val) + e.val * b.dot / b.val))
