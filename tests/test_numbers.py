from fractions import Fraction

import pytest

from polyapprox.errors import InvalidDescriptor, PrecisionExhausted
from polyapprox.numbers import (
    AlgebraicNumber,
    Comparison,
    ContinuedFraction,
    LiouvilleSeries,
    PeriodicRule,
    certified_abs,
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


def test_cf_minpoly_finite():
    # [2; 3, 4] = 30/13
    d = ContinuedFraction([2, 3, 4])
    assert d.minpoly == P((-30, 13))
    assert is_zero_at(P((-60, 26)), d) and not is_zero_at(P((-2, 1)), d)
    assert d.refine(10).lo == Fraction(30, 13)


def test_cf_minpoly_periodic():
    # [0; 2, 2, ...] = sqrt(2) - 1 and [1; 1, 1, ...] = the golden ratio
    d = ContinuedFraction([0], PeriodicRule([2]))
    assert d.minpoly == P((-1, 2, 1))
    assert is_zero_at(P((-2, 4, 2)), d) and not is_zero_at(P((-1, 2)), d)
    assert ContinuedFraction([1], PeriodicRule([1])).minpoly == P((-1, -1, 1))
    # [1; 2, 1, 3, 1, 3, ...] = (9 + sqrt(21)) / 10
    mixed = ContinuedFraction([1, 2], PeriodicRule([1, 3]))
    assert mixed.minpoly == P((3, -9, 5))
    assert preset("fibwordcf").minpoly is None
    assert preset("liouville2fact").minpoly is None


def test_cf_minpoly_negative_prefix():
    # [-2; 1, 1, ...] = (sqrt(5) - 5) / 2 and [-3; 2] = -5/2
    d = ContinuedFraction([-2], PeriodicRule([1]))
    assert d.minpoly == P((5, 5, 1))
    iv = d.refine(40)
    assert d.minpoly.eval_fraction(iv.lo) * d.minpoly.eval_fraction(iv.hi) < 0
    assert ContinuedFraction([-3, 2]).minpoly == P((5, 2))


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


def test_certified_abs_contract():
    targets = (
        (preset("cbrt2"), P((1, -1))),
        (ContinuedFraction([0], PeriodicRule([2])), P((-1, 2))),
        (preset("liouville2fact"), P((-1, 3))),
    )
    for desc, poly in targets:
        iv = certified_abs(poly, desc, 64, abs_bits=200)
        assert iv.lo > 0
        assert iv.width <= iv.lo / 2**64 and iv.width <= Fraction(1, 2**200)

    # 2 * minpoly vanishes exactly: no enclosure
    assert certified_abs(P((-2, 4, 2)), preset("sqrt2m1"), 64) is None

    # the cap ends the escalation: a fresh cbrt2 bracket of width 2**-64
    # gives |1 - T| = 0.26 a relative width of about 2**-62
    iv = certified_abs(P((1, -1)), preset("cbrt2"), 64, cap=64)
    assert iv.lo > 0
    assert iv.lo / 2**64 < iv.width <= iv.lo / 2**61

    # -phi from a word rule has no minpoly, so its zero is never certified
    minus_phi = descriptor_from_dict({
        "kind": "cf", "prefix": [-2],
        "rule": {"type": "word", "morphism": {"a": "ab", "b": "b"},
                 "start": "a", "letters": {"a": 2, "b": 1}},
    })
    with pytest.raises(PrecisionExhausted):
        certified_abs(P((-1, 1, 1)), minus_phi, 64, cap=256)


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
