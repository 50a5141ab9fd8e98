"""Closed rational intervals with exact endpoints.

Every certified quantity in the package travels as a RationalInterval.
Endpoints are `fractions.Fraction`; no floating point enters any decision.
Floats appear only when a caller renders a report.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[Fraction, int]


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @staticmethod
    def point(x: Rat) -> "RationalInterval":
        x = Fraction(x)
        return RationalInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def sign_certain(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __add__(self, other) -> "RationalInterval":
        if isinstance(other, RationalInterval):
            return RationalInterval(self.lo + other.lo, self.hi + other.hi)
        other = Fraction(other)
        return RationalInterval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalInterval":
        if isinstance(other, RationalInterval):
            return RationalInterval(self.lo - other.hi, self.hi - other.lo)
        other = Fraction(other)
        return RationalInterval(self.lo - other, self.hi - other)

    def __mul__(self, other) -> "RationalInterval":
        if isinstance(other, RationalInterval):
            products = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return RationalInterval(min(products), max(products))
        other = Fraction(other)
        if other >= 0:
            return RationalInterval(self.lo * other, self.hi * other)
        return RationalInterval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division of interval by zero scalar")
        if other > 0:
            return RationalInterval(self.lo / other, self.hi / other)
        return RationalInterval(self.hi / other, self.lo / other)

    def div_by_positive(self, other: "RationalInterval") -> "RationalInterval":
        """Interval quotient self / other, requiring other strictly positive."""
        if not other.strictly_positive():
            raise ZeroDivisionError("denominator interval must be strictly positive")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return RationalInterval(min(quotients), max(quotients))

    def abs(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def hull(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def max_with(self, other: "RationalInterval") -> "RationalInterval":
        """Interval enclosure of max(x, y) for x in self, y in other."""
        return RationalInterval(max(self.lo, other.lo), max(self.hi, other.hi))

    def min_with(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(min(self.lo, other.lo), min(self.hi, other.hi))

    def intersects(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_below(self, other: "RationalInterval") -> bool:
        """Every point of self is below every point of other."""
        return self.hi < other.lo

    def __float__(self) -> float:
        return float(self.mid)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def power_interval(x: RationalInterval, k: int) -> RationalInterval:
    """Enclosure of x**k, correct for intervals of any sign."""
    if k < 0:
        raise ValueError("negative power not supported")
    if k == 0:
        return RationalInterval.point(1)
    a, b = self_pow(x.lo, k), self_pow(x.hi, k)
    if k % 2 == 1:
        return RationalInterval(a, b)
    if x.lo >= 0:
        return RationalInterval(a, b)
    if x.hi <= 0:
        return RationalInterval(b, a)
    return RationalInterval(Fraction(0), max(a, b))


def self_pow(x: Fraction, k: int) -> Fraction:
    return Fraction(x.numerator**k, x.denominator**k)
