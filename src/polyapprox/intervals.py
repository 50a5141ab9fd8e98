"""Closed rational intervals with exact endpoints.

Every certified quantity in the package travels as a RationalInterval.
Endpoints are `fractions.Fraction`; no floating point enters any decision.
Floats appear only when a caller renders a report.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def _exact(x, role: str) -> Fraction:
    """Fraction(x), refusing a float: it would enter a decision silently."""
    if isinstance(x, float):
        raise TypeError(f"float interval {role}: {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = _exact(lo, "endpoint")
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = _exact(hi, "endpoint")
            object.__setattr__(self, "hi", hi)
        # lo <= hi by one cross-product: both denominators are positive
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")

    @staticmethod
    def point(x: Rational) -> "RationalInterval":
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
        x = _exact(x, "point")
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
        other = _exact(other, "scalar")
        return RationalInterval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalInterval":
        if isinstance(other, RationalInterval):
            return RationalInterval(self.lo - other.hi, self.hi - other.lo)
        other = _exact(other, "scalar")
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
        other = _exact(other, "scalar")
        if other >= 0:
            return RationalInterval(self.lo * other, self.hi * other)
        return RationalInterval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        other = _exact(other, "scalar")
        if other == 0:
            raise ZeroDivisionError("division of interval by zero scalar")
        if other > 0:
            return RationalInterval(self.lo / other, self.hi / other)
        return RationalInterval(self.hi / other, self.lo / other)

    def div_by_positive(self, other: "RationalInterval") -> "RationalInterval":
        """Interval quotient self / other, requiring other strictly positive."""
        if not other.strictly_positive():
            raise ZeroDivisionError("denominator interval must be strictly positive")
        lo, hi = quotient_ends(*((x.numerator, x.denominator) for x in
                                 (self.lo, self.hi, other.lo, other.hi)))
        return RationalInterval(Fraction(*lo), Fraction(*hi))

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
        """float(self.mid), correctly rounded, by one integer true division
        of the unreduced midpoint: no gcd of the endpoint denominators."""
        lo, hi = self.lo, self.hi
        return ((lo.numerator * hi.denominator + hi.numerator * lo.denominator)
                / (2 * lo.denominator * hi.denominator))


def quotient_ends(lo: tuple, hi: tuple, dlo: tuple, dhi: tuple) -> tuple:
    """Endpoints of the interval quotient [lo, hi] / [dlo, dhi], for
    0 < dlo <= dhi, each endpoint an unreduced (num, den) pair with
    den > 0: the extreme quotients by the sign of lo and hi."""
    (a, b), (c, d), (e, f), (g, h) = lo, hi, dlo, dhi
    if a >= 0:  # lo / dhi, hi / dlo
        return (a * h, b * g), (c * f, d * e)
    if c <= 0:  # lo / dlo, hi / dhi
        return (a * f, b * e), (c * h, d * g)
    return (a * f, b * e), (c * f, d * e)  # lo / dlo, hi / dlo


def power_interval(x: RationalInterval, k: int) -> RationalInterval:
    """Enclosure of x**k, correct for intervals of any sign."""
    if k < 0:
        raise ValueError("negative power not supported")
    if k == 0:
        return RationalInterval.point(1)
    a, b = self_pow(x.lo, k), self_pow(x.hi, k)
    if k % 2 == 1 or x.lo >= 0:
        return RationalInterval(a, b)
    if x.hi <= 0:
        return RationalInterval(b, a)
    return RationalInterval(Fraction(0), max(a, b))


def self_pow(x: Fraction, k: int) -> Fraction:
    return Fraction(x.numerator**k, x.denominator**k)
