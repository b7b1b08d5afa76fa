"""Split-complex numbers: ``x + j*y`` where ``j*j = +1``.

Unlike the complex unit, ``j`` squares to plus one, so the squared modulus
``x**2 - y**2`` can be negative and the algebra has zero divisors on the
lines ``y = +-x``.  Conjugation flips the sign of ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real


@dataclass(frozen=True)
class HyperbolicNumber:
    x: float
    y: float

    def __add__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        return HyperbolicNumber(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "HyperbolicNumber") -> "HyperbolicNumber":
        if not isinstance(other, HyperbolicNumber):
            return NotImplemented
        return HyperbolicNumber(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "HyperbolicNumber":
        return HyperbolicNumber(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, HyperbolicNumber):
            return HyperbolicNumber(
                self.x * other.x + self.y * other.y,
                self.x * other.y + self.y * other.x,
            )
        if isinstance(other, Real):
            return HyperbolicNumber(self.x * float(other), self.y * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "HyperbolicNumber":
        return HyperbolicNumber(self.x, -self.y)

    def squared_modulus(self) -> float:
        """``z * conjugate(z)``, which is ``x**2 - y**2``; may be negative.

        Where the squares overflow, it is ``(x - y) * (x + y)`` instead, which
        stays finite; elsewhere the squares are kept, so finite results do not
        change in their last bits.
        """
        modulus = self.x * self.x - self.y * self.y
        if math.isfinite(modulus):
            return modulus
        return (self.x - self.y) * (self.x + self.y)

    def __str__(self) -> str:
        return f"({self.x} {'+' if self.y >= 0 else '-'} {abs(self.y)}j)"

ZERO = HyperbolicNumber(0.0, 0.0)
ONE = HyperbolicNumber(1.0, 0.0)
UNIT_J = HyperbolicNumber(0.0, 1.0)


def exp_j(theta: float) -> HyperbolicNumber:
    """Hyperbolic analogue of ``exp(i*theta)``: ``cosh(theta) + j*sinh(theta)``.

    Always has squared modulus 1, so multiplying by it preserves the
    squared modulus of anything.
    """
    return HyperbolicNumber(math.cosh(theta), math.sinh(theta))
