"""Closed rational intervals with exact endpoints, and unreduced ratios.

A certified quantity that a caller sees is a RationalInterval, whose
endpoints are `fractions.Fraction`.  The hot paths carry the same
quantities in integers: a polynomial's value on a bracket as a
(lo, hi, den) triple (IntegerPolynomial.eval_scaled), and a log, an L*
total or a ratio endpoint as an unreduced _Ratio, ordered by
cross-multiplication, so no gcd runs; each becomes a Fraction once, when
it is returned or rendered.  No floating point enters any decision.
Floats appear only when a caller renders a report.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def _exact(x, role: str) -> Fraction:
    """Fraction(x), refusing a float: it would enter a decision silently."""
    if isinstance(x, float):
        raise TypeError(f"float interval {role}: {x!r}")
    return Fraction(x)


class RationalInterval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) is not Fraction:
            lo = _exact(lo, "endpoint")
        if type(hi) is not Fraction:
            hi = _exact(hi, "endpoint")
        # lo <= hi by one cross-product: both denominators are positive
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        self.lo, self.hi = lo, hi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RationalInterval(lo={self.lo!r}, hi={self.hi!r})"

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
        return _reduced(quotient_ends(*((x.numerator, x.denominator) for x in
                                        (self.lo, self.hi, other.lo, other.hi))))

    def abs(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

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


class _Ratio:
    """The rational n/d with d > 0, never reduced: compared and ordered by
    cross-multiplication, so it sorts by value and no gcd runs.  The
    built-in max and min keep their first argument on a tie."""

    __slots__ = ("n", "d")
    __hash__ = None

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d

    def __lt__(self, other: "_Ratio") -> bool:
        return self.n * other.d < other.n * self.d

    def __eq__(self, other: "_Ratio") -> bool:
        return self.n * other.d == other.n * self.d


def quotient_ends(lo: tuple, hi: tuple, dlo: tuple, dhi: tuple) -> tuple:
    """Endpoints of the interval quotient [lo, hi] / [dlo, dhi], for
    0 < dlo <= dhi, each given as an unreduced (num, den) pair with
    den > 0: the extreme quotients by the sign of lo and hi, as _Ratio."""
    (a, b), (c, d), (e, f), (g, h) = lo, hi, dlo, dhi
    if a >= 0:  # lo / dhi, hi / dlo
        return _Ratio(a * h, b * g), _Ratio(c * f, d * e)
    if c <= 0:  # lo / dlo, hi / dhi
        return _Ratio(a * f, b * e), _Ratio(c * h, d * g)
    return _Ratio(a * f, b * e), _Ratio(c * f, d * e)  # lo / dlo, hi / dlo


def _reduced(ends: tuple) -> RationalInterval:
    """The interval of two _Ratio endpoints, each reduced once."""
    lo, hi = ends
    return RationalInterval(Fraction(lo.n, lo.d), Fraction(hi.n, hi.d))


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
