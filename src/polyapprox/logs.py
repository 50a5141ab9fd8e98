"""Certified natural logarithms over exact rationals.

ln is computed by range reduction x = m * 2**e with m in [1, 2), a dyadic
rounding md = floor(m * 2**p) / 2**p of m, and the atanh series
ln(md) = 2*atanh(z), z = (md - 1)/(md + 1), with an explicit geometric tail
bound. The endpoints are exact rationals, so the returned interval is a true
enclosure.

The arithmetic runs on integers. With z = a/b, the stop index J of the series
is found by comparing integers, and the partial sum over j <= J of
z**(2j+1)/(2j+1) is one numerator over the common denominator
b**(2J+1) * lcm(1, 3, ..., 2J+1). ln2*e + series + 2**-p is then assembled
over one denominator as the triple (lo, hi, den) of ln_scaled, which takes
the argument as an unreduced numerator/denominator pair. ln_interval and
ln_interval_of reduce each endpoint once, when it becomes a Fraction. Every
step is an exact rational identity, and a reduced Fraction is unique, so the
endpoints equal those of the same sums taken term by term in Fraction
arithmetic.

floor_log2(n, d) is the one floor(log2(n/d)) kernel: ln_scaled's range
reduction, ln_coarse and the descriptors' width bits all take e from it.
ln_coarse runs no series: it encloses ln(n/d) in its binade
[e*ln2, (e+1)*ln2], e = floor_log2(n, d), with the cached 64-bit bounds of
ln2. Its lo never exceeds the lo endpoint of ln_scaled, so a caller can order
arguments by it and rule some out before any series.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .intervals import RationalInterval, _exact

_LN2_CACHE: dict[int, tuple[int, int, int]] = {}


def _atanh_series(a: int, b: int, tail_bits: int) -> tuple[int, int, int]:
    """(lo, hi, den) with 2*atanh(a/b) in [lo/den, hi/den], for
    0 < a/b <= 1/3 and b > 0.

    The sum stops at the first J whose tail bound 9 z**(2J+3) / (4 (2J+3))
    (which bounds the rest of 2*atanh(z), as z**2 <= 1/9) is at most
    2**-tail_bits; hi - lo is that bound.
    """
    if not 0 < 3 * a <= b:
        raise ValueError("series argument out of range")
    a2, b2 = a * a, b * b
    a_pow, b_pow, j = a * a2, b * b2, 0  # z**(2j+3) = a_pow / b_pow
    while (9 * a_pow) << tail_bits > 4 * (2 * j + 3) * b_pow:
        a_pow, b_pow, j = a_pow * a2, b_pow * b2, j + 1
    odd_lcm = math.lcm(*range(1, 2 * j + 2, 2))
    # sum over i <= j of (odd_lcm / (2i+1)) * a**(2i+1) * b**(2(j-i))
    total, a_odd = 0, a
    for i in range(j + 1):
        total = total * b2 + odd_lcm // (2 * i + 1) * a_odd
        a_odd *= a2
    # 2 * total / (b**(2j+1) * odd_lcm), over the tail bound's denominator
    lo = 8 * (2 * j + 3) * total * b2
    return lo, lo + 9 * a_pow * odd_lcm, 4 * (2 * j + 3) * b_pow * odd_lcm


def _ln2_bounds(bits: int) -> tuple[int, int, int]:
    bucket = ((bits + 63) // 64) * 64
    cached = _LN2_CACHE.get(bucket)
    if cached is None:
        cached = _LN2_CACHE[bucket] = _atanh_series(1, 3, bucket + 2)
    return cached


def ln_scaled(n: int, d: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, den) with ln(n/d) in [lo/den, hi/den] and hi - lo at most
    den * 2**-bits, for positive integers n and d in any terms.

    No gcd runs: e is floor(log2(n/d)) and md_num is
    floor(n/d * 2**(p - e)), so the triple is a function of the value n/d
    and of bits alone, the same for every representation of it."""
    if n <= 0 or d <= 0:
        raise ValueError("ln requires a positive argument")
    p = bits + 8
    e = floor_log2(n, d)
    md_num = _floor_scaled(n, d, p - e)
    # m = x / 2**e in [md, md + 2**-p] with md = md_num / 2**p >= 1,
    # so ln(m) - ln(md) lies in [0, 2**-p]
    a, b = md_num - (1 << p), md_num + (1 << p)
    if a:
        twos = ((a | b) & -(a | b)).bit_length() - 1  # z = a/b in lower terms
        s_lo, s_hi, s_den = _atanh_series(a >> twos, b >> twos, bits + 4)
    else:
        s_lo, s_hi, s_den = 0, 0, 1
    l_lo, l_hi, l_den = _ln2_bounds(bits + 8 + abs(e).bit_length())
    if e < 0:
        l_lo, l_hi = l_hi, l_lo
    lo = (e * l_lo * s_den + s_lo * l_den) << p
    hi = ((e * l_hi * s_den + s_hi * l_den) << p) + l_den * s_den
    den = (l_den * s_den) << p
    if (hi - lo) << bits > den:
        # The individual bounds guarantee this never triggers; guard anyway.
        return ln_scaled(n, d, bits + 16)
    return lo, hi, den


def ln_coarse(n: int, d: int) -> tuple[int, int, int]:
    """(lo, hi, den) with ln(n/d) in [lo/den, hi/den] = [e ln2, (e+1) ln2],
    e = floor(log2(n/d)), for positive integers n and d in any terms.

    No series runs: e comes from floor_log2, and ln2 from the cached
    _ln2_bounds(64), so den is the same for every argument.  lo is at
    most the lo endpoint of ln_scaled(n, d, bits) for every bits: both
    take e from the value, ln_scaled adds a nonnegative series to e ln2,
    and its ln2 bound is that one or a tighter one of the same series."""
    if n <= 0 or d <= 0:
        raise ValueError("ln requires a positive argument")
    e = floor_log2(n, d)
    l_lo, l_hi, l_den = _ln2_bounds(64)
    return (e * (l_lo if e >= 0 else l_hi),
            (e + 1) * (l_hi if e >= -1 else l_lo), l_den)


def floor_log2(n: int, d: int) -> int:
    """The e with 2**e <= n/d < 2**(e+1), for positive integers n and d in
    any terms, from the bit lengths and one shifted comparison."""
    e = n.bit_length() - d.bit_length()
    if (n < d << e) if e >= 0 else (n << -e < d):
        e -= 1
    return e


def _floor_scaled(n: int, d: int, shift: int) -> int:
    """floor(n * 2**shift / d)."""
    return (n << shift) // d if shift >= 0 else n // (d << -shift)


def ln_interval(x, bits: int = 64) -> RationalInterval:
    """Interval containing ln(x) with width <= 2**-bits, x a positive
    rational; a float raises TypeError rather than enter as its binary
    value."""
    x = _exact(x, "ln argument")
    lo, hi, den = ln_scaled(x.numerator, x.denominator, bits)
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def ln_interval_of(iv: RationalInterval, bits: int = 64) -> RationalInterval:
    """Enclosure of {ln t : t in iv}; requires iv strictly positive."""
    if not iv.strictly_positive():
        raise ValueError("ln enclosure requires a strictly positive interval")
    lo, _, lo_den = ln_scaled(iv.lo.numerator, iv.lo.denominator, bits)
    _, hi, hi_den = ln_scaled(iv.hi.numerator, iv.hi.denominator, bits)
    return RationalInterval(Fraction(lo, lo_den), Fraction(hi, hi_den))
