import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyapprox.intervals import RationalInterval, power_interval, self_pow


def rand_fraction(rng, span=50):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_interval(rng):
    a, b = rand_fraction(rng), rand_fraction(rng)
    return RationalInterval(min(a, b), max(a, b))


def test_constructor_rejects_inverted_endpoints():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        RationalInterval(1, "1/2")


@pytest.mark.parametrize("lo,hi", ((1.5, 2), (1, 2.0), (0.0, 0.0)))
def test_constructor_rejects_float_endpoints(lo, hi):
    with pytest.raises(TypeError):
        RationalInterval(lo, hi)
    with pytest.raises(TypeError):
        RationalInterval.point(lo if isinstance(lo, float) else hi)


@pytest.mark.parametrize("base", (
    Fraction(0), Fraction(7, 3), Fraction(-(2**400) - 1, 3**250),
    Fraction(5**300, 2**700 + 1)))
def test_constructor_rejects_endpoints_out_of_order_by_a_hair(base):
    hair = Fraction(1, 2**200)
    with pytest.raises(ValueError, match="out of order"):
        RationalInterval(base + hair, base)
    iv = RationalInterval(base, base + hair)
    assert iv.width == hair
    assert RationalInterval(base, base).is_point()


def test_constructor_endpoints_are_fractions():
    iv = RationalInterval(-2, "7/3")
    assert (iv.lo, iv.hi) == (Fraction(-2), Fraction(7, 3))
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    lo, hi = Fraction(1, 3), Fraction(5, 7)
    kept = RationalInterval(lo, hi)
    assert kept.lo is lo and kept.hi is hi


def test_point_and_predicates():
    p = RationalInterval.point(Fraction(3, 7))
    assert p.is_point()
    assert p.width == 0
    assert Fraction(3, 7) in p
    assert p.strictly_positive()
    assert not p.contains_zero()
    z = RationalInterval(Fraction(-1), Fraction(1))
    assert z.contains_zero()


def test_arithmetic_encloses_pointwise_results():
    # soundness: f(x) lies in F(X) for every x in X, sampled
    rng = random.Random(20817)
    for _ in range(300):
        x, y = rand_interval(rng), rand_interval(rng)
        t = Fraction(rng.randint(0, 16), 16)
        u = Fraction(rng.randint(0, 16), 16)
        px = x.lo + t * (x.hi - x.lo)
        py = y.lo + u * (y.hi - y.lo)
        assert px + py in x + y
        assert px - py in x - y
        assert px * py in x * y
        if y.strictly_positive():
            assert px / py in x.div_by_positive(y)
        assert abs(px) in x.abs()
        assert max(px, py) in x.max_with(y)
        assert min(px, py) in x.min_with(y)


def test_scalar_mixing():
    x = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert (x + 1).lo == Fraction(4, 3)
    assert (x - Fraction(1, 3)).lo == 0
    y = x * (-2)
    assert (y.lo, y.hi) == (Fraction(-1), Fraction(-2, 3))
    z = x / 2
    assert (z.lo, z.hi) == (Fraction(1, 6), Fraction(1, 4))


@pytest.mark.parametrize("op", (
    lambda x, f: x + f, lambda x, f: f + x, lambda x, f: x - f,
    lambda x, f: x * f, lambda x, f: f * x, lambda x, f: x / f,
    lambda x, f: f in x),
    ids=("add", "radd", "sub", "mul", "rmul", "truediv", "contains"))
def test_scalar_operations_reject_floats(op):
    x = RationalInterval(0, 1)
    for f in (0.5, 0.1, 0.0):
        with pytest.raises(TypeError):
            op(x, f)
    op(x, Fraction(1, 2))
    op(x, 3)


def test_division_guards():
    x = RationalInterval(Fraction(1), Fraction(2))
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x.div_by_positive(RationalInterval(Fraction(0), Fraction(1)))
    with pytest.raises(ZeroDivisionError):
        x.div_by_positive(RationalInterval(Fraction(-2), Fraction(-1)))


def test_order_relations():
    a = RationalInterval(Fraction(0), Fraction(1))
    b = RationalInterval(Fraction(2), Fraction(3))
    c = RationalInterval(Fraction(1, 2), Fraction(5, 2))
    assert a.strictly_below(b)
    assert not a.strictly_below(c)
    assert a.intersects(c) and c.intersects(b)
    assert not a.intersects(b)


def test_power_interval_matches_sampled_powers():
    rng = random.Random(404)
    for _ in range(200):
        x = rand_interval(rng)
        k = rng.randint(0, 5)
        t = Fraction(rng.randint(0, 12), 12)
        px = x.lo + t * (x.hi - x.lo)
        assert self_pow(px, k) in power_interval(x, k)


def test_power_interval_even_exponent_near_zero():
    x = RationalInterval(Fraction(-2), Fraction(3))
    sq = power_interval(x, 2)
    assert sq.lo == 0 and sq.hi == 9
    cube = power_interval(x, 3)
    assert cube.lo == -8 and cube.hi == 27


def test_negation_and_float():
    x = RationalInterval(Fraction(1, 4), Fraction(1, 2))
    assert (-x).hi == Fraction(-1, 4)
    assert float(x) == pytest.approx(0.375)


PROPERTY = settings(derandomize=True, database=None, deadline=None)
nonneg = st.fractions(min_value=0, max_value=50, max_denominator=60)


def four_quotient_division(x, y):
    """div_by_positive as the min and max of all four endpoint quotients."""
    quotients = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    return RationalInterval(min(quotients), max(quotients))


@settings(PROPERTY, max_examples=300)
@given(case=st.sampled_from(("nonnegative", "nonpositive", "straddles 0")),
       a=nonneg, b=nonneg,
       c=st.fractions(min_value=Fraction(1, 60), max_value=50, max_denominator=60),
       d=nonneg)
def test_div_by_positive_matches_four_quotients(case, a, b, c, d):
    a, b = min(a, b), max(a, b)
    if case == "nonnegative":
        x = RationalInterval(a, b)
    elif case == "nonpositive":
        x = RationalInterval(-b, -a)
    else:
        x = RationalInterval(-a - 1, b + Fraction(1, 7))
    y = RationalInterval(c, c + d)
    q = x.div_by_positive(y)
    ref = four_quotient_division(x, y)
    assert (q.lo, q.hi) == (ref.lo, ref.hi)


@st.composite
def wide_fractions(draw):
    """Fractions whose denominators run to thousands of bits, of either
    sign, with magnitude below 2^1001 so the float is finite."""
    bits = draw(st.integers(1, 4000))
    den = draw(st.integers(2 ** (bits - 1), 2**bits))
    num = draw(st.integers(-(2 ** (bits + 1000)), 2 ** (bits + 1000)))
    return Fraction(num, den)


@settings(PROPERTY, max_examples=300)
@given(a=wide_fractions(), b=wide_fractions())
def test_float_is_the_correctly_rounded_midpoint(a, b):
    iv = RationalInterval(min(a, b), max(a, b))
    assert float(iv) == float(iv.mid)
    assert float(RationalInterval.point(a)) == float(a)
