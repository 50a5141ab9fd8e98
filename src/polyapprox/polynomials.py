"""Integer polynomials in one variable T, with exact family-rank operations.

Coefficients are stored constant-first: coeffs[i] is the coefficient of T**i.
The zero polynomial has an empty coefficient tuple and degree -1. P and -P
take the same value under abs evaluation, so records store one sign
representative: canonical() makes the leading coefficient positive. Two
places still use the other convention, a positive lowest nonzero
coefficient: pgn._canonical_sign (ss-graph witnesses) and _iter_canonical
(the gelfond pool).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .exactlinalg import rank_of_rows
from .intervals import RationalInterval


class IntegerPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def height(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntegerPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "T" if mag == 1 else f"{mag}T"
            else:
                body = f"T^{i}" if mag == 1 else f"{mag}T^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def canonical(self) -> "IntegerPolynomial":
        """Sign representative with a positive leading coefficient."""
        if self.coeffs and self.coeffs[-1] < 0:
            return -self
        return self

    def lex_key(self) -> tuple[int, ...]:
        return self.coeffs

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "IntegerPolynomial":
        return IntegerPolynomial([-c for c in self.coeffs])

    def __add__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntegerPolynomial(out)

    def __sub__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntegerPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntegerPolynomial(out)

    __rmul__ = __mul__

    def shift(self, j: int) -> "IntegerPolynomial":
        """Multiplication by T**j; preserves the height."""
        if j < 0:
            raise ValueError("shift exponent must be nonnegative")
        if self.is_zero():
            return self
        return IntegerPolynomial([0] * j + list(self.coeffs))

    def derivative(self) -> "IntegerPolynomial":
        return IntegerPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntegerPolynomial":
        g = self.content()
        if g <= 1:
            return self
        return IntegerPolynomial([c // g for c in self.coeffs])

    # -- evaluation -------------------------------------------------------

    def eval_fraction(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, x: RationalInterval) -> RationalInterval:
        acc = RationalInterval.point(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_abs_interval(self, x: RationalInterval) -> RationalInterval:
        return self.eval_interval(x).abs()

    def derivative_bound(self, x: RationalInterval) -> Fraction:
        """Upper bound on |P'| over the interval."""
        r = max(abs(x.lo), abs(x.hi), Fraction(1))
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if i >= 1 and c:
                total += abs(c) * i * r ** (i - 1)
        return total

    # -- vectors ----------------------------------------------------------

    def coeff_vector(self, dim: int) -> list[int]:
        if self.degree >= dim:
            raise ValueError(f"degree {self.degree} does not fit in dimension {dim}")
        return list(self.coeffs) + [0] * (dim - len(self.coeffs))


ZERO = IntegerPolynomial([])
T = IntegerPolynomial([0, 1])


def _divmod_fraction(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Polynomial division over Q on constant-first Fraction lists."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(da - db + 1, 0)
    for k in range(da - db, -1, -1):
        coef = a[db + k] / b[db]
        q[k] = coef
        if coef:
            for i in range(db + 1):
                a[i + k] -= coef * b[i]
    while a and not a[-1]:
        a.pop()
    return q, a


def poly_gcd(p: IntegerPolynomial, q: IntegerPolynomial) -> IntegerPolynomial:
    """Primitive gcd in Z[T], normalized with positive leading coefficient."""
    if p.is_zero():
        return q.primitive().canonical()
    if q.is_zero():
        return p.primitive().canonical()
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        _, r = _divmod_fraction(a, b)
        a, b = b, r
    from math import lcm

    scale = lcm(*(f.denominator for f in a))
    ints = IntegerPolynomial([int(f * scale) for f in a]).primitive()
    return ints.canonical()


def sturm_chain(p: IntegerPolynomial) -> list[IntegerPolynomial]:
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero():
        a = [Fraction(c) for c in chain[-2].coeffs]
        b = [Fraction(c) for c in chain[-1].coeffs]
        _, r = _divmod_fraction(a, b)
        if not r:
            chain.append(ZERO)
            break
        from math import lcm

        scale = lcm(*(f.denominator for f in r))
        chain.append(IntegerPolynomial([int(-f * scale) for f in r]).primitive())
    return [c for c in chain if not c.is_zero()]


def _sign_variations(chain: list[IntegerPolynomial], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = poly.eval_fraction(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p: IntegerPolynomial, lo, hi) -> int:
    """Number of distinct real roots of p in (lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if p.is_zero():
        raise ValueError("zero polynomial has no isolated roots")
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


@dataclass(frozen=True)
class PolyFamily:
    """A finite family viewed inside the space of polynomials of degree <= m."""

    polys: tuple[IntegerPolynomial, ...]
    m: int

    def __post_init__(self):
        for p in self.polys:
            if p.degree > self.m:
                raise ValueError(
                    f"family member of degree {p.degree} exceeds ambient bound {self.m}"
                )

    @property
    def dim(self) -> int:
        return self.m + 1

    def vectors(self) -> list[list[int]]:
        return [p.coeff_vector(self.dim) for p in self.polys]

    def rank(self) -> int:
        return rank_of_rows(self.vectors(), self.dim)


def shift_family(p: IntegerPolynomial, m: int) -> PolyFamily:
    """All shifts T^j * P that stay within degree m: 0 <= j <= m - deg P."""
    if p.is_zero():
        raise ValueError("shift family of the zero polynomial is undefined")
    if p.degree > m:
        raise ValueError("polynomial degree exceeds ambient bound")
    return PolyFamily(tuple(p.shift(j) for j in range(m - p.degree + 1)), m)


def rank_of_family(family: PolyFamily) -> int:
    return family.rank()


def coprime_shift_rank(p: IntegerPolynomial, q: IntegerPolynomial) -> dict:
    """Independence of {P,...,T^(b-1)P, Q,...,T^(a-1)Q} for a=deg P, b=deg Q.

    The family is the row system of the Sylvester matrix, so its rank equals
    a + b - deg gcd(P, Q); it is independent exactly when P, Q are coprime.
    """
    a, b = p.degree, q.degree
    if a < 1 or b < 1:
        raise ValueError("both polynomials must have degree >= 1")
    m = a + b - 1
    members = [p.shift(j) for j in range(b)] + [q.shift(j) for j in range(a)]
    rank = PolyFamily(tuple(members), m).rank()
    return {"rank": rank, "full": rank == a + b, "expected_full": a + b}


@dataclass(frozen=True)
class GelfondScan:
    n: int
    h_max: int
    count: int
    min_ratio: Fraction
    max_ratio: Fraction
    min_witness: tuple[IntegerPolynomial, IntegerPolynomial]
    max_witness: tuple[IntegerPolynomial, IntegerPolynomial]


def _random_poly(rng: random.Random, n: int, h_max: int) -> IntegerPolynomial:
    while True:
        p = IntegerPolynomial([rng.randint(-h_max, h_max) for _ in range(n + 1)])
        if not p.is_zero():
            return p


def _iter_canonical(n: int, h_max: int):
    """All nonzero canonical-sign polynomials with deg <= n, height <= h_max."""
    from itertools import product

    for coeffs in product(range(-h_max, h_max + 1), repeat=n + 1):
        for c in coeffs:
            if c > 0:
                break
            if c < 0:
                coeffs = None
                break
        else:
            continue
        if coeffs is not None:
            yield IntegerPolynomial(coeffs)


def gelfond_scan(
    n: int, h_max: int, sample_count: int | None = 1000, rng_seed: int = 0
) -> GelfondScan:
    """Extremes of H(PQ) / (H(P) H(Q)) over sampled or exhaustive pairs."""
    best_min = best_max = None
    wit_min = wit_max = None
    count = 0

    def consider(p, q):
        nonlocal best_min, best_max, wit_min, wit_max, count
        ratio = Fraction((p * q).height, p.height * q.height)
        count += 1
        if best_min is None or ratio < best_min:
            best_min, wit_min = ratio, (p, q)
        if best_max is None or ratio > best_max:
            best_max, wit_max = ratio, (p, q)

    if sample_count is None:
        pool = list(_iter_canonical(n, h_max))
        for i, p in enumerate(pool):
            for q in pool[i:]:
                consider(p, q)
    else:
        rng = random.Random(rng_seed)
        for _ in range(sample_count):
            consider(_random_poly(rng, n, h_max), _random_poly(rng, n, h_max))
    return GelfondScan(n, h_max, count, best_min, best_max, wit_min, wit_max)
