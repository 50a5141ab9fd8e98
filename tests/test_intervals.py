import random
from fractions import Fraction

import pytest

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
    assert not z.sign_certain()


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
        assert px in x.hull(y) and py in x.hull(y)


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
