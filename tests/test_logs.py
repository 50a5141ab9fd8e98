import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyapprox.intervals import RationalInterval
from polyapprox.logs import (
    _atanh_series,
    floor_log2,
    ln_interval,
    ln_coarse,
    ln_interval_of,
    ln_scaled,
)
from polyapprox.pgn import PRUNE_BITS


def test_known_values():
    one = ln_interval(1)
    assert one.lo <= 0 <= one.hi
    two = ln_interval(2, bits=80)
    assert float(two) == pytest.approx(math.log(2), abs=1e-18)
    assert two.width <= Fraction(1, 2**70)


def test_containment_random_rationals():
    rng = random.Random(3111)
    for _ in range(80):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        iv = ln_interval(x, bits=64)
        assert iv.lo <= Fraction(math.log(x)) + Fraction(1, 10**12)
        assert iv.hi >= Fraction(math.log(x)) - Fraction(1, 10**12)
        assert iv.width <= Fraction(1, 2**60)


def test_additivity():
    rng = random.Random(7)
    for _ in range(40):
        a = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        lhs = ln_interval(a * b, bits=64)
        rhs = ln_interval(a, bits=64) + ln_interval(b, bits=64)
        assert lhs.intersects(rhs)


def test_monotone_in_argument():
    xs = [Fraction(1, 10), Fraction(1, 2), Fraction(3, 2), Fraction(17)]
    ivs = [ln_interval(x, bits=64) for x in xs]
    for small, large in zip(ivs, ivs[1:]):
        assert small.strictly_below(large)


def test_width_shrinks_with_bits():
    wide = ln_interval(Fraction(7, 3), bits=24)
    narrow = ln_interval(Fraction(7, 3), bits=96)
    assert narrow.width < wide.width
    assert narrow.lo >= wide.lo and narrow.hi <= wide.hi


def test_interval_argument():
    x = RationalInterval(Fraction(2), Fraction(3))
    iv = ln_interval_of(x, bits=64)
    eps = Fraction(1, 10**12)
    assert iv.lo <= Fraction(math.log(2)) + eps
    assert iv.hi >= Fraction(math.log(3)) - eps
    assert iv.width <= Fraction(math.log(3) - math.log(2)) + eps


def test_interval_argument_requires_positive():
    with pytest.raises((ValueError, ZeroDivisionError)):
        ln_interval(0)
    with pytest.raises((ValueError, ZeroDivisionError)):
        ln_interval_of(RationalInterval(Fraction(-1), Fraction(2)))


def test_ln_interval_rejects_float():
    # 0.1 is the binary 3602879701896397/2^55, not 1/10: as a float it
    # would enclose the log of that number without a word
    with pytest.raises(TypeError):
        ln_interval(0.1, 8)
    assert ln_interval(Fraction(1, 10), 8) == ln_interval("1/10", 8)


# -- the integer kernels against the Fraction sums they replace -------------

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def reference_atanh_series(z, tail_bits):
    """2*atanh(z) summed term by term in Fraction arithmetic."""
    if z == 0:
        return RationalInterval.point(0)
    z2, term, total, j = z * z, z, Fraction(0), 0
    bound = Fraction(1, 2**tail_bits)
    while True:
        total += term / (2 * j + 1)
        term *= z2
        tail = 2 * term * Fraction(9, 8) / (2 * j + 3)
        if tail <= bound:
            return RationalInterval(2 * total, 2 * total + tail)
        j += 1


def reference_ln_interval(x, bits=64):
    """ln(x) by range reduction, assembled from Fraction intervals."""
    x = Fraction(x)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m < 1:
        m *= 2
        e -= 1
    p = bits + 8
    md = Fraction((m.numerator << p) // m.denominator, 1 << p)
    z = (md - 1) / (md + 1)
    series = reference_atanh_series(z, bits + 4)
    bucket = ((bits + 8 + abs(e).bit_length() + 63) // 64) * 64
    ln2 = reference_atanh_series(Fraction(1, 3), bucket + 2)
    result = ln2 * e + series + RationalInterval(Fraction(0), Fraction(1, 1 << p))
    if result.width > Fraction(1, 1 << bits):
        return reference_ln_interval(x, bits + 16)
    return result


def _sized(max_bits):
    return st.integers(1, max_bits).flatmap(
        lambda k: st.integers(1 << (k - 1), (1 << k) - 1))


@st.composite
def ln_arguments(draw):
    """(x, bits): general rationals, powers of two, 1, and values just
    above a power of two, whose dyadic rounding is exactly 2**k."""
    bits = draw(st.integers(8, 256))
    power = Fraction(2) ** draw(st.integers(-300, 300))
    x = draw(st.one_of(
        st.builds(Fraction, _sized(300), _sized(300)),
        st.just(power),
        st.just(Fraction(1)),
        st.integers(1, 40).map(
            lambda s: power * (1 + Fraction(1, 1 << (bits + 8 + s)))),
    ))
    return x, bits


@settings(PROPERTY, max_examples=300)
@given(args=ln_arguments())
def test_ln_interval_equals_fraction_reference(args):
    x, bits = args
    new, ref = ln_interval(x, bits), reference_ln_interval(x, bits)
    assert (new.lo, new.hi) == (ref.lo, ref.hi)
    wide = RationalInterval(x, x * 3)
    of = ln_interval_of(wide, bits)
    assert (of.lo, of.hi) == (ref.lo, reference_ln_interval(x * 3, bits).hi)


@settings(PROPERTY, max_examples=200)
@given(b=_sized(200).filter(lambda b: b >= 3), num=st.integers(0, 10**6),
       tail_bits=st.integers(1, 300))
def test_atanh_series_equals_fraction_reference(b, num, tail_bits):
    a = 1 + (b // 3 - 1) * num // 10**6  # 0 < a/b <= 1/3, in any terms
    lo, hi, den = _atanh_series(a, b, tail_bits)
    ref = reference_atanh_series(Fraction(a, b), tail_bits)
    assert (Fraction(lo, den), Fraction(hi, den)) == (ref.lo, ref.hi)


def test_atanh_series_stops_where_tail_bound_equals_target():
    # z = 1/4, tail_bits = 20: at J = 3 the bound 9 z**9 / (4 * 9) is 2**-20
    for a, b in ((1, 4), (3, 12)):
        lo, hi, den = _atanh_series(a, b, 20)
        ref = reference_atanh_series(Fraction(1, 4), 20)
        assert (Fraction(lo, den), Fraction(hi, den)) == (ref.lo, ref.hi)
        assert ref.width == Fraction(1, 2**20)


@settings(PROPERTY, max_examples=200)
@given(
    x=st.one_of(
        st.builds(Fraction, _sized(1000), _sized(1000)),
        st.builds(Fraction, _sized(40), _sized(1000)),  # far below 1
        st.integers(-1000, 1000).map(lambda k: Fraction(2) ** k),
        st.just(Fraction(1)),
    ),
    bits=st.integers(1, 64),
)
def test_ln_lower_is_a_lower_bound_within_its_bits(x, bits):
    # the lo endpoint of ln_scaled, as the ss-graph prune reads it
    lo, _, den = ln_scaled(x.numerator, x.denominator, bits)
    lower, fine = Fraction(lo, den), ln_interval(x, 256)
    assert lower <= fine.hi
    assert lower >= fine.lo - Fraction(1, 1 << bits)


@settings(PROPERTY, max_examples=200)
@given(n=st.one_of(_sized(300), st.integers(0, 300).map(lambda j: 1 << j)),
       d=st.one_of(_sized(300), st.integers(0, 300).map(lambda j: 1 << j)),
       k=st.integers(1, 1 << 200),
       bits=st.sampled_from((8, 64, 200)))
def test_ln_scaled_depends_on_the_value_alone(n, d, k, bits):
    # the ss-graph log cache is keyed on unreduced triples
    assert ln_scaled(n * k, d * k, bits) == ln_scaled(n, d, bits)


@settings(PROPERTY, max_examples=300)
@given(n=st.one_of(_sized(300), st.integers(0, 300).map(lambda j: 1 << j)),
       d=st.one_of(_sized(300), st.integers(0, 300).map(lambda j: 1 << j)))
@example(n=1, d=1)
@example(n=3, d=4)
@example(n=(1 << 300) - 1, d=1 << 300)
@example(n=1 << 300, d=(1 << 300) - 1)
def test_floor_log2_is_the_binade_exponent(n, d):
    e, x = floor_log2(n, d), Fraction(n, d)
    assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1)


def _floor_log2(x: Fraction) -> int:
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e - 1 if x < Fraction(2) ** e else e


@settings(PROPERTY, max_examples=200)
@given(n=st.one_of(_sized(100), st.integers(0, 100).map(lambda j: 1 << j)),
       d=st.one_of(_sized(100), st.integers(0, 100).map(lambda j: 1 << j)),
       k=st.integers(1, 1 << 200))
def test_ln_coarse_is_the_binade_and_bounds_the_prune(n, d, k):
    # Below 2**100, ln(n/d) lies at least 2**-101 from each end of its
    # binade that it does not equal, far more than the 2**-200 width of
    # ln_scaled at 200 bits, so the coarse interval encloses that one.
    lo, hi, den = ln_coarse(n, d)
    coarse = RationalInterval(Fraction(lo, den), Fraction(hi, den))
    e, ln2 = _floor_log2(Fraction(n, d)), ln_interval(2, 256)
    slack = Fraction(1, 1 << 56)
    assert e * ln2.lo - slack <= coarse.lo <= e * ln2.lo
    assert (e + 1) * ln2.hi <= coarse.hi <= (e + 1) * ln2.hi + slack
    f_lo, f_hi, f_den = ln_scaled(n, d, 200)
    assert coarse.lo <= Fraction(f_lo, f_den)
    assert Fraction(f_hi, f_den) <= coarse.hi
    # a coarse skip in ss-graph is always a PRUNE_BITS skip
    p_lo, _, p_den = ln_scaled(n, d, PRUNE_BITS)
    assert coarse.lo <= Fraction(p_lo, p_den)
    assert ln_coarse(n * k, d * k) == (lo, hi, den)


def test_ln_coarse_hand_values():
    ln2 = ln_interval(2, 256)

    def coarse(n, d):
        lo, hi, den = ln_coarse(n, d)
        return Fraction(lo, den), Fraction(hi, den)

    assert coarse(1, 1)[0] == 0 and coarse(1, 1)[1] >= ln2.hi
    assert coarse(1, 2)[1] == 0 and coarse(3, 4)[1] == 0  # [-ln 2, 0]
    assert coarse(1, 2)[0] == coarse(3, 4)[0] <= -ln2.hi
    assert coarse(1 << 10, 1) == coarse(2049, 2)  # [10 ln 2, 11 ln 2]
    assert coarse(1 << 10, 1) != coarse(2047, 2)
    assert coarse(1, 1 << 10) == coarse(1, 1023)  # [-10 ln 2, -9 ln 2]
    assert coarse(1, 1025)[0] < coarse(1, 1 << 10)[0]
    for n, d in ((0, 1), (1, 0), (-3, 2), (3, -2)):
        with pytest.raises(ValueError):
            ln_coarse(n, d)
        with pytest.raises(ValueError):
            ln_scaled(n, d, 8)
