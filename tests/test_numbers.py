from fractions import Fraction

import pytest

from polyapprox.errors import InvalidDescriptor
from polyapprox.numbers import (
    AlgebraicNumber,
    Comparison,
    ContinuedFraction,
    LiouvilleSeries,
    PeriodicRule,
    compare_abs,
    descriptor_from_dict,
    eval_at,
    is_zero_at,
)
from polyapprox.polynomials import IntegerPolynomial
from polyapprox.presets import STOCK_NAMES, preset

P = IntegerPolynomial


def bracket_contains(iv, value_poly, sign_lo, sign_hi):
    # the target is pinned by sign changes of its minimal polynomial
    lo_val = value_poly.eval_fraction(iv.lo)
    hi_val = value_poly.eval_fraction(iv.hi)
    return (lo_val <= 0) == sign_lo and (hi_val >= 0) == sign_hi


def test_refine_tightens_and_persists():
    d = preset("sqrt2m1")
    wide = d.refine(8)
    tight = d.refine(40)
    assert tight.width <= Fraction(1, 2**40)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_algebraic_bracket_contains_root():
    d = preset("sqrt2m1")
    minpoly = P((-1, 2, 1))
    iv = d.refine(60)
    assert minpoly.eval_fraction(iv.lo) * minpoly.eval_fraction(iv.hi) <= 0


def test_algebraic_rejects_rootless_interval():
    with pytest.raises(Exception):
        AlgebraicNumber(P((-1, 2, 1)), (Fraction(2), Fraction(3)), label="bad")


def test_continued_fraction_convergents():
    # sqrt(2)-1 = [0; 2, 2, 2, ...]
    d = ContinuedFraction([0], PeriodicRule([2]), label="s")
    iv = d.refine(50)
    target = Fraction(5741, 13860)  # convergent p/q with q large
    assert abs(iv.mid - target) < Fraction(1, 10**6)


def test_liouville_series_partial_sums():
    d = LiouvilleSeries(2, "factorial", label="l")
    iv = d.refine(30)
    partial = Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 64)
    assert iv.lo <= partial + Fraction(1, 2**24)
    assert iv.hi >= partial


def test_decimal_kind_rejected_at_load():
    with pytest.raises(InvalidDescriptor):
        descriptor_from_dict({"kind": "decimal", "value": "0.5", "digits": 10})


def test_eval_at_width_contract():
    d = preset("cbrt2")
    poly = P((-2, 0, 0, 1))
    iv = eval_at(poly, d, 40)
    assert iv.width <= Fraction(1, 2**40)
    assert iv.lo <= 0 <= iv.hi


def test_is_zero_at_exact():
    d = preset("sqrt2m1")
    assert is_zero_at(P((-1, 2, 1)), d)
    assert is_zero_at(P((-2, 4, 2)), d)
    assert not is_zero_at(P((-1, 2)), d)
    with pytest.raises(ValueError):
        is_zero_at(P(()), d)


def test_compare_abs_orders_values():
    d = preset("sqrt2m1")
    # |2z - 1| = 0.171..., |z| = 0.414...
    assert compare_abs(P((-1, 2)), P((0, 1)), d) is Comparison.LESS
    assert compare_abs(P((0, 1)), P((-1, 2)), d) is Comparison.GREATER
    assert compare_abs(P((-1, 2)), P((1, -2)), d) is Comparison.EQUAL


def test_descriptor_round_trip():
    for name in STOCK_NAMES:
        d = preset(name)
        clone = descriptor_from_dict(d.to_dict())
        a = d.refine(30)
        b = clone.refine(30)
        assert a.intersects(b)
        assert clone.label == d.label
