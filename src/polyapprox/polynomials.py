"""Integer polynomials in one variable T, with exact family-rank operations.

Coefficients are stored constant-first: coeffs[i] is the coefficient of T**i.
The zero polynomial has an empty coefficient tuple and degree -1. P and -P
take the same value under abs evaluation, so records store one sign
representative: canonical() makes the leading coefficient positive.
lowest_positive() writes the other convention, a positive lowest nonzero
coefficient, used by the ss-graph and gelfond pools (and so by the
witnesses they print). shell_coeffs() is the one enumerator of
coefficient tuples of exact height h, shared by the record engine, its
oracle and both pools.
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, product, repeat
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Iterator

from .errors import BudgetExceeded
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
        lo, _, den = self.eval_scaled(RationalInterval.point(x))
        return Fraction(lo, den)

    def eval_scaled(self, x: RationalInterval) -> tuple[int, int, int]:
        """(lo, hi, den) with P(x) in [lo/den, hi/den] and den = d**deg, by
        interval Horner on x = [xl/d, xh/d], d the lcm of the endpoint
        denominators: after k steps the accumulator is [lo/d**k, hi/d**k].
        The four products keep the order of the rationals they scale, so
        the reduced endpoints are those of Horner in Fraction arithmetic.
        This is the one Horner loop; a point is a zero-width interval."""
        if not self.coeffs:
            return 0, 0, 1
        d = lcm(x.lo.denominator, x.hi.denominator)
        xl = x.lo.numerator * (d // x.lo.denominator)
        xh = x.hi.numerator * (d // x.hi.denominator)
        lo = hi = self.coeffs[-1]
        den = 1
        for c in reversed(self.coeffs[:-1]):
            products = (lo * xl, lo * xh, hi * xl, hi * xh)
            den *= d
            lo, hi = min(products) + c * den, max(products) + c * den
        return lo, hi, den

    def eval_abs_scaled(self, x: RationalInterval) -> tuple[int, int, int]:
        """eval_scaled of |P|, by the case split of RationalInterval.abs."""
        lo, hi, den = self.eval_scaled(x)
        if lo >= 0:
            return lo, hi, den
        if hi <= 0:
            return -hi, -lo, den
        return 0, max(-lo, hi), den

    def eval_interval(self, x: RationalInterval) -> RationalInterval:
        lo, hi, den = self.eval_scaled(x)
        return RationalInterval(Fraction(lo, den), Fraction(hi, den))

    def eval_abs_interval(self, x: RationalInterval) -> RationalInterval:
        return self.eval_interval(x).abs()

    # -- vectors ----------------------------------------------------------

    def coeff_vector(self, dim: int) -> list[int]:
        if self.degree >= dim:
            raise ValueError(f"degree {self.degree} does not fit in dimension {dim}")
        return list(self.coeffs) + [0] * (dim - len(self.coeffs))


def shell_coeffs(length: int, h: int) -> Iterator[tuple]:
    """Tuples of the given length with max |c_i| exactly h whose highest
    nonzero entry is positive.

    The boundary of the box is enumerated directly (no interior, no
    filtering) by splitting on whether the highest nonzero entry itself
    reaches h and, if not, on the first lower position that does.
    """
    if h < 1:
        return
    for d in range(1, length + 1):
        tail = (0,) * (length - d)
        for rest in product(range(-h, h + 1), repeat=d - 1):
            yield rest + (h,) + tail
        if d == 1:
            continue
        for lead in range(1, h):
            lead_tail = (lead,) + tail
            for j in range(1, d):
                for left in product(range(-(h - 1), h), repeat=j - 1):
                    for top in (h, -h):
                        head = left + (top,)
                        for right in product(range(-h, h + 1), repeat=d - 1 - j):
                            yield head + right + lead_tail


def lowest_positive(coeffs: tuple) -> tuple:
    """Sign representative whose lowest nonzero entry is positive."""
    for c in coeffs:
        if c:
            return coeffs if c > 0 else tuple(-x for x in coeffs)
    return coeffs


def poly_gcd(p: IntegerPolynomial, q: IntegerPolynomial) -> IntegerPolynomial:
    """Primitive gcd in Z[T], normalized with positive leading coefficient,
    by the primitive pseudo-remainder sequence (Cohen 1993, section 3.1;
    Collins 1967): each remainder is a rational multiple of Euclid's over
    Q, and its primitive part keeps the coefficients small."""
    a, b = p.primitive(), q.primitive()
    while b:
        a, b = b, pseudo_remainder(a, b).primitive()
    return a.canonical()


def pseudo_remainder(p: IntegerPolynomial, m: IntegerPolynomial) -> IntegerPolynomial:
    """R with lc(m)**k * P = Q * m + R, deg R < deg m, k = max(deg P - deg m
    + 1, 0), by integer pseudo-division (Cohen 1993, section 3.1): each step
    scales by lc(m) and cancels the top coefficient, so no Fraction or gcd."""
    if m.is_zero():
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    low, lead, dm = m.coeffs[:-1], m.coeffs[-1], m.degree
    r = list(p.coeffs)
    for top in range(len(r) - 1, dm - 1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        if c:
            shift = top - dm
            for i, b in enumerate(low):
                r[shift + i] -= c * b
    return IntegerPolynomial(r)


@cache
def reduction_table(m: tuple, length: int) -> tuple[tuple[int, ...], ...]:
    """Reduction modulo m as one integer matrix, for m a coefficient tuple
    of degree d >= 1 and tuples of the given length L >= 1.  Row i is
    lc(m)**K * (T**i mod m), K = max(L - d, 0), an integer vector of
    length d; the table is stored by columns, so that column j holds the
    coefficients of T**j.  For c of length L, sum c_i * row_i is
    lc(m)**K * (c mod m): pseudo_remainder's R, as pseudo-division is
    linear in P (Cohen 1993, section 3.1), times lc(m)**(K - k) for the
    k of c's degree.  Built once per (m, L)."""
    low, lead, d = m[:-1], m[-1], len(m) - 1
    # u = lc(m)**e * (T**i mod m), e = max(i - d + 1, 0)
    rows = []
    for i in range(length):
        if i < d:
            u = [0] * d
            u[i] = 1
        else:
            top = u[-1]
            u = [0] + [lead * x for x in u[:-1]]
            u = [x - top * b for x, b in zip(u, low)]
        rows.append((max(i - d + 1, 0), u))
    power = max(length - d, 0)
    rows = [[lead ** (power - e) * x for x in row] for e, row in rows]
    return tuple(zip(*rows))


def residue(m: tuple, coeffs: tuple, length: int) -> tuple[int, ...]:
    """R = sum c_i * row_i over reduction_table(m, length), for a tuple c
    of at most length entries, read as padded with zeros: R is
    lc(m)**K * (c mod m), K = max(length - deg m, 0).  Tuples reduced at
    one length share K, and reduction is linear, so R_P = +-R_Q exactly
    when m divides P -+ Q over Q; R = 0 exactly when m divides P."""
    return tuple([sum(map(mul, coeffs, col))
                  for col in reduction_table(m, length)])


def sturm_chain(p: IntegerPolynomial) -> list[IntegerPolynomial]:
    """p, p' and the negated remainders, each as its primitive part.  The
    pseudo-remainder is lc(b)**k times Euclid's remainder, so the next
    member is its negation unless lc(b)**k < 0."""
    chain = [p.primitive(), p.derivative().primitive()]
    while chain[-1]:
        a, b = chain[-2], chain[-1]
        r = pseudo_remainder(a, b)
        k = max(a.degree - b.degree + 1, 0)
        chain.append((r if b.coeffs[-1] < 0 and k % 2 else -r).primitive())
    return [c for c in chain if c]


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


DEFAULT_PAIR_BUDGET = 20_000_000


def _member(c) -> tuple:
    """(c without trailing zeros, height): one gelfond_scan pool member."""
    c = IntegerPolynomial(c).coeffs
    return c, max(map(abs, c))


def _random_member(rng: random.Random, n: int, h_max: int) -> tuple:
    while True:
        c = [rng.randint(-h_max, h_max) for _ in range(n + 1)]
        if any(c):
            return _member(c)


_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _Lanes:
    """Kronecker substitution T = 2**s for the products of gelfond_scan.

    A product PQ of two members has degree <= 2n and coefficients c with
    |c| <= (n+1) H**2 < 2**(s-1), s the smallest of 8, 16, 32, 64, 128,
    ... that allows it.  A member Q is packed as Q(2**s) - Q(2**s) * 2**(sL),
    L = 2n + 1, a block of 2L lanes; a row is a sum of blocks, the j-th
    shifted by 2L*s*j bits.  Then P(2**s) * row + 2**(s-1) in every lane
    holds c + 2**(s-1) and -c + 2**(s-1) in unsigned s-bit lanes for every
    coefficient c of every P*Q_j, with no carry between lanes, and the
    largest lane of block j is H(P*Q_j) + 2**(s-1)."""

    def __init__(self, n: int, h_max: int):
        s = 8
        while (n + 1) * h_max * h_max >= 1 << (s - 1):
            s *= 2
        self.bits, self.half, self.block = s, 1 << (s - 1), 2 * (2 * n + 1)
        self.width = self.block * s  # bits per packed member

    def value(self, coeffs: tuple) -> int:
        """P(2**s)."""
        v = 0
        for c in reversed(coeffs):
            v = (v << self.bits) + c
        return v

    def pack(self, coeffs: tuple) -> int:
        q = self.value(coeffs)
        return q - (q << (self.width // 2))

    def offset(self, blocks: int) -> int:
        """2**(s-1) in each lane of the given number of blocks."""
        lane = self.half.to_bytes(self.bits // 8, "little")
        return int.from_bytes(lane * (blocks * self.block), "little")

    def heights(self, p: int, row: int, blocks: int, offset: int) -> list:
        """H(P*Q_j) for the blocks of row, P given by its value and offset
        by self.offset(blocks)."""
        s = self.bits
        raw = (p * row + offset).to_bytes(blocks * self.width // 8, "little")
        if s in _LANE_FORMATS and sys.byteorder == "little":
            digits = memoryview(raw).cast(_LANE_FORMATS[s])
        else:
            step = s // 8
            digits = [int.from_bytes(raw[i:i + step], "little")
                      for i in range(0, len(raw), step)]
        tops = map(max, zip(*[iter(digits)] * self.block))
        return list(map(sub, tops, repeat(self.half)))


def _pool_rows(pool: list, lanes: _Lanes, h_max: int) -> Iterator[tuple]:
    """(least, greatest) for each row P = pool[i] of the pairs (P, Q),
    Q in pool[i:], an extreme as (H(PQ), H(P) H(Q), (P, Q)), the first
    one in the row.  Within a row H(P) is fixed, so the ratios are
    ordered by the integer keys H(PQ) * (lcm(1..H) / H(Q)).  The row of
    packed Q is kept as one running suffix, shifted down a block a row."""
    scale = lcm(*range(1, h_max + 1))
    weights = [scale // h for _, h in pool]
    packed = [lanes.pack(c) for c, _ in pool]
    suffix = 0
    for q in reversed(packed):
        suffix = (suffix << lanes.width) + q
    offset = lanes.offset(len(pool))
    for i, p in enumerate(pool):
        heights = lanes.heights(lanes.value(p[0]), suffix, len(pool) - i,
                                offset)
        keys = list(map(mul, heights, islice(weights, i, None)))
        ends = []
        for key in (min(keys), max(keys)):
            j = keys.index(key)
            q = pool[i + j]
            ends.append((heights[j], p[1] * q[1], (p, q)))
        yield ends
        suffix = (suffix - packed[i]) >> lanes.width
        offset >>= lanes.width


def _sampled_rows(rng: random.Random, n: int, h_max: int, sample_count: int,
                  lanes: _Lanes) -> Iterator[tuple]:
    """_pool_rows for random pairs, one pair a row."""
    offset = lanes.offset(1)
    for _ in range(sample_count):
        p, q = _random_member(rng, n, h_max), _random_member(rng, n, h_max)
        (height,) = lanes.heights(lanes.value(p[0]), lanes.pack(q[0]), 1,
                                  offset)
        pair = (height, p[1] * q[1], (p, q))
        yield pair, pair


def gelfond_scan(
    n: int, h_max: int, sample_count: int | None = 1000, rng_seed: int = 0
) -> GelfondScan:
    """Extremes of H(PQ) / (H(P) H(Q)) over sampled or exhaustive pairs.

    The exhaustive scan visits every unordered pair of a pool of
    ((2H+1)**(n+1) - 1) / 2 sign representatives; BudgetExceeded is raised
    before it starts when that pair count exceeds DEFAULT_PAIR_BUDGET."""
    lanes = _Lanes(n, h_max)
    if sample_count is None:
        size = ((2 * h_max + 1) ** (n + 1) - 1) // 2
        total = size * (size + 1) // 2
        if total > DEFAULT_PAIR_BUDGET:
            raise BudgetExceeded(f"{total} exhaustive pairs exceed budget "
                                 f"{DEFAULT_PAIR_BUDGET}")
        # sorted tuples run in itertools.product order, which the
        # witnesses (first extreme found) depend on
        pool = [
            _member(c)
            for c in sorted(
                lowest_positive(c)
                for h in range(1, h_max + 1)
                for c in shell_coeffs(n + 1, h)
            )
        ]
        rows = _pool_rows(pool, lanes, h_max)
    else:
        total = sample_count
        rows = _sampled_rows(random.Random(rng_seed), n, h_max, sample_count,
                             lanes)
    # the rows' extremes merged by strict cross-multiplication (dens > 0),
    # so the first extreme found is kept
    lo = hi = None
    for least, greatest in rows:
        if lo is None or least[0] * lo[1] < lo[0] * least[1]:
            lo = least
        if hi is None or greatest[0] * hi[1] > hi[0] * greatest[1]:
            hi = greatest
    if lo is None:
        return GelfondScan(n, h_max, 0, None, None, None, None)
    return GelfondScan(
        n, h_max, total, Fraction(lo[0], lo[1]), Fraction(hi[0], hi[1]),
        tuple(IntegerPolynomial(c) for c, _ in lo[2]),
        tuple(IntegerPolynomial(c) for c, _ in hi[2]))
