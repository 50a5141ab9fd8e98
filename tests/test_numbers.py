from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from polyapprox.errors import InvalidDescriptor, PrecisionExhausted
from polyapprox.intervals import RationalInterval
from polyapprox.numbers import (
    AlgebraicNumber,
    Comparison,
    ContinuedFraction,
    LiouvilleSeries,
    PeriodicRule,
    WordRule,
    certified_abs,
    compare_abs,
    descriptor_from_dict,
    eval_at,
    is_zero_at,
)
from polyapprox.polynomials import (
    IntegerPolynomial,
    poly_gcd,
    pseudo_remainder,
    reduction_table,
    sturm_root_count,
)
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


def test_word_rule_start_image_must_grow():
    # a -> a never grows the word, so reading a quotient past the prefix
    # would loop forever; a prolongable morphism maps a to a w, w nonempty
    for morphism in ({"a": "a"}, {"a": "a", "b": "ab"}, {"a": "", "b": "b"}):
        with pytest.raises(InvalidDescriptor):
            descriptor_from_dict({
                "kind": "cf", "prefix": [0],
                "rule": {"type": "word", "morphism": morphism, "start": "a",
                         "letters": {k: 1 for k in morphism}}})


def test_word_rule_eventually_constant_minpoly():
    def word_cf(prefix, morphism, letters):
        return ContinuedFraction(prefix, WordRule(morphism, "a", letters))

    # [-2; 2, 1, 1, ...] = -phi; [0; 1, 1, ...] = 1/phi; [1; 3, 3, ...]
    assert word_cf([-2], {"a": "ab", "b": "b"},
                   {"a": 2, "b": 1}).minpoly == P((-1, 1, 1))
    assert word_cf([0], {"a": "ab", "b": "a"},
                   {"a": 1, "b": 1}).minpoly == P((-1, 1, 1))
    # b and c are reachable from a's image, and share the value 3
    assert word_cf([1], {"a": "abc", "b": "cb", "c": "c"},
                   {"a": 5, "b": 3, "c": 3}).minpoly == \
        ContinuedFraction([1, 5], PeriodicRule([3])).minpoly
    # two values after the start letter: no minpoly
    assert word_cf([0], {"a": "ab", "b": "ab"},
                   {"a": 2, "b": 1}).minpoly is None
    assert preset("fibwordcf").minpoly is None


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

    # (sqrt(3) - 1)/2 = [0; 2, 1, 2, 1, ...] from a word rule with two
    # letter values has no minpoly, so its zero is never certified
    two_values = descriptor_from_dict({
        "kind": "cf", "prefix": [0],
        "rule": {"type": "word", "morphism": {"a": "ab", "b": "ab"},
                 "start": "a", "letters": {"a": 2, "b": 1}},
    })
    assert two_values.minpoly is None
    with pytest.raises(PrecisionExhausted):
        certified_abs(P((-1, 2, 2)), two_values, 64, cap=256)


def test_is_zero_at_exact():
    d = preset("sqrt2m1")
    assert is_zero_at(P((-1, 2, 1)), d)
    assert is_zero_at(P((-2, 4, 2)), d)
    assert not is_zero_at(P((-1, 2)), d)
    with pytest.raises(ValueError):
        is_zero_at(P(()), d)


# sqrt(2) isolated in (1, 3/2] as a root of the squarefree but reducible
# (T^2 - 2)(T - 3): an `algebraic` minpoly need not be irreducible
SQRT2_REDUCIBLE = ((6, -2, -3, 1), ("1", "3/2"))


def test_is_zero_at_reducible_minpoly():
    d = AlgebraicNumber(*SQRT2_REDUCIBLE)
    cases = (
        (P((-2, 0, 1)), True),    # the factor with the root: step 4
        (P((3, -4, 1)), False),   # (T - 1)(T - 3): step 4, no root of the gcd
        (P((-3, 1)), False),      # the other factor: enclosure excludes 0
        (P((6, -2, -3, 1)) * P((1, 1)), True),  # a multiple of the minpoly
    )
    for poly, zero in cases:
        assert is_zero_at(poly, d) is zero


def test_is_zero_at_never_refines():
    reducible = AlgebraicNumber(*SQRT2_REDUCIBLE)
    step4 = P((-2, 0, 1))
    iv = reducible._current()
    assert pseudo_remainder(step4, reducible.minpoly)
    assert step4.eval_interval(iv).contains_zero()
    targets = (
        (preset("cbrt2"), (P((-2, 0, 0, 1)), P((1, -1)), P((-5, 4)))),
        (ContinuedFraction([0], PeriodicRule([2])),
         (P((-1, 2, 1)), P((-1, 2)), P((0, 0, 3)))),
        (reducible, (step4, P((3, -4, 1)), P((-3, 1)))),
    )
    for desc, polys in targets:
        for bits in (None, 64):
            if bits:
                desc.refine(bits)
            before = desc._current()
            for poly in polys:
                is_zero_at(poly, desc)
                assert desc._current() is before


def _reference_is_zero(poly, desc):
    """The gcd + Sturm zero test, written independently of is_zero_at."""
    iv = desc._current()
    if iv.is_point():
        return poly.eval_fraction(iv.lo) == 0
    g = poly_gcd(poly, desc.minpoly)
    if g.degree == desc.minpoly.degree:
        return True
    return g.degree >= 1 and sturm_root_count(g, iv.lo, iv.hi) >= 1


def _has_rational_root(poly):
    c0, cn = poly.coeffs[0], poly.coeffs[-1]
    if c0 == 0:
        return True
    return any(poly.eval_fraction(Fraction(s * a, b)) == 0
               for a in range(1, abs(c0) + 1) if c0 % a == 0
               for b in range(1, abs(cn) + 1) if cn % b == 0 for s in (1, -1))


def _root_cells(m, f):
    """Grid cells of width 1/8 in [-6, 6] holding exactly one root of m,
    a root of f, with nonzero endpoint values of m."""
    grid = [Fraction(k, 8) for k in range(-48, 49)]
    return [(a, b) for a, b in zip(grid, grid[1:])
            if f.eval_fraction(a) * f.eval_fraction(b) < 0
            and m.eval_fraction(a) and m.eval_fraction(b)
            and sturm_root_count(m, a, b) == 1]


def _polys(max_degree, bound):
    return st.builds(
        P, st.lists(st.integers(-bound, bound), min_size=1,
                    max_size=max_degree + 1)).filter(bool)


def _of_degree(degree, bound):
    """Degree exactly `degree`, leading coefficient 1..3."""
    return st.builds(lambda low, lead: P((*low, lead)),
                     st.lists(st.integers(-bound, bound), min_size=degree,
                              max_size=degree), st.integers(1, 3))


@st.composite
def zero_test_targets(draw):
    """(descriptor, factor with the value as a root, other factor): the
    other factor is 1 unless the minimal polynomial is a reducible f * g."""
    kind = draw(st.sampled_from((2, 3, "reducible", "periodic", "finite")))
    one = P((1,))
    if kind in ("periodic", "finite"):
        prefix = [draw(st.integers(-3, 3)),
                  *draw(st.lists(st.integers(1, 4), max_size=3))]
        rule = None
        if kind == "periodic":
            rule = PeriodicRule(draw(st.lists(st.integers(1, 4), min_size=1,
                                              max_size=3)))
        d = ContinuedFraction(prefix, rule)
        return d, d.minpoly, one
    if kind == "reducible":
        f = draw(st.integers(1, 2).flatmap(lambda k: _of_degree(k, 5)))
        g = draw(st.integers(1, 2).flatmap(lambda k: _of_degree(k, 5)))
    else:
        f = draw(_of_degree(kind, 9))  # irreducible of degree 2 or 3
        assume(not _has_rational_root(f))
        g = one
    m = f * g
    assume(poly_gcd(m, m.derivative()).degree == 0)
    cells = _root_cells(m, f)
    assume(cells)
    return AlgebraicNumber(m, draw(st.sampled_from(cells))), f, g


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(target=zero_test_targets(), s=_polys(3, 9), r=_polys(4, 9),
       refined=st.booleans())
def test_is_zero_at_matches_gcd_sturm_reference(target, s, r, refined):
    desc, f, g = target
    if refined:
        desc.refine(256)
    # s * g vanishes only where s does: compared with the reference alone
    cases = ((r, None), (s * g, None), (s * desc.minpoly, True), (s * f, True))
    for poly, zero in cases:
        got = is_zero_at(poly, desc)
        assert got == _reference_is_zero(poly, desc)
        assert zero is None or got is zero


@st.composite
def reduction_cases(draw):
    """(descriptor, coefficient tuple, True if it is a multiple of the
    minimal polynomial m): m squarefree with lc(m) in +-1..3, irreducible
    or a reducible f * g, and tuples of length 1..8 that are free, of
    degree below deg m, or S * m, each with up to two trailing zeros."""
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        f = draw(st.integers(1, 2).flatmap(lambda k: _of_degree(k, 5)))
        g = P((*draw(st.lists(st.integers(-5, 5), min_size=1, max_size=2)), 1))
    else:
        f = draw(st.integers(2, 3).flatmap(lambda k: _of_degree(k, 9)))
        assume(not _has_rational_root(f))
        g = P((1,))
    m = f * g * sign
    assume(poly_gcd(m, m.derivative()).degree == 0)
    cells = _root_cells(m, f)
    assume(cells)
    desc = AlgebraicNumber(m, draw(st.sampled_from(cells)))
    kind = draw(st.sampled_from(("free", "short", "multiple")))
    if kind == "multiple":
        coeffs = (draw(_polys(7 - m.degree, 9)) * m).coeffs
    else:
        size = m.degree if kind == "short" else 8
        coeffs = tuple(draw(st.lists(st.integers(-9, 9), min_size=1,
                                     max_size=size)))
    coeffs += (0,) * draw(st.integers(0, min(2, 8 - len(coeffs))))
    return desc, coeffs, kind == "multiple"


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=reduction_cases())
# lc(m) = -2 and K - k = 1 for a trailing zero: the scale factor is -2
@example(case=(AlgebraicNumber((3, 0, -2), ("1", "3/2")), (1, 2, 3, 0),
               False))
def test_reduction_table_is_the_scaled_pseudo_remainder(case):
    desc, coeffs, multiple = case
    m, poly = desc.minpoly, P(coeffs)
    assume(poly)
    cols = reduction_table(m.coeffs, len(coeffs))
    r = P([sum(c * x for c, x in zip(coeffs, col)) for col in cols])
    big_k = max(len(coeffs) - m.degree, 0)
    k = max(poly.degree - m.degree + 1, 0)
    assert r == pseudo_remainder(poly, m) * m.coeffs[-1] ** (big_k - k)
    for bits in (None, 256):
        if bits:
            desc.refine(bits)
        got = is_zero_at(poly, desc)
        assert got == _reference_is_zero(poly, desc)
        assert not multiple or got


def _reference_brackets(minpoly, lo, hi, ps):
    """Bisection in Fraction arithmetic, one midpoint per step, stopping at
    an exact root: the brackets refine(p) returns for each p in turn."""
    sign_lo = minpoly.eval_fraction(lo) > 0
    out = []
    for p in ps:
        while hi - lo > Fraction(1, 2**p):
            mid = (lo + hi) / 2
            s = minpoly.eval_fraction(mid)
            if s == 0:
                lo = hi = mid
            elif (s > 0) == sign_lo:
                lo = mid
            else:
                hi = mid
        out.append((lo, hi))
    return out


# (2T - 1)(T^2 - 2) is reducible; its root 1/2 is the first midpoint of
# [0, 1] and the second of [1/4, 5/4]
_DYADIC_ROOT = (P((2, -4, -1, 2)), ((Fraction(0), Fraction(1)),
                                    (Fraction(1, 4), Fraction(5, 4))))


@st.composite
def algebraic_targets(draw):
    """(minimal polynomial, isolating interval): irreducible quadratics and
    cubics with small coefficients, reducible products, and _DYADIC_ROOT."""
    kind = draw(st.sampled_from((2, 3, "reducible", "dyadic root")))
    if kind == "dyadic root":
        m, cells = _DYADIC_ROOT
        return m, draw(st.sampled_from(cells))
    if kind == "reducible":
        f = draw(st.integers(1, 2).flatmap(lambda k: _of_degree(k, 3)))
        m = f * draw(st.integers(1, 2).flatmap(lambda k: _of_degree(k, 3)))
        assume(poly_gcd(m, m.derivative()).degree == 0)
    else:
        f = m = draw(_of_degree(kind, 2))
        assume(not _has_rational_root(f))
    cells = _root_cells(m, f)
    assume(cells)
    return m, draw(st.sampled_from(cells))


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(target=algebraic_targets(),
       ps=st.lists(st.integers(0, 200), min_size=1, max_size=6))
def test_algebraic_refine_matches_fraction_bisection(target, ps):
    m, (lo, hi) = target
    desc = AlgebraicNumber(m, (lo, hi))
    expected = _reference_brackets(m, lo, hi, ps)
    for p, bracket in zip(ps, expected):
        iv = desc.refine(p)
        assert (iv.lo, iv.hi) == bracket
        assert desc._current() is iv


def test_algebraic_refine_stops_at_dyadic_root():
    m, (unit, shifted) = _DYADIC_ROOT
    half = RationalInterval.point(Fraction(1, 2))
    assert AlgebraicNumber(m, unit).refine(1) == half
    desc = AlgebraicNumber(m, shifted)
    assert desc.refine(0) == RationalInterval(Fraction(1, 4), Fraction(5, 4))
    assert desc.refine(1) == RationalInterval(Fraction(1, 4), Fraction(3, 4))
    assert desc.refine(2) == half
    assert desc.refine(500) == half


def test_compare_abs_orders_values():
    d = preset("sqrt2m1")
    # |2z - 1| = 0.171..., |z| = 0.414...
    assert compare_abs(P((-1, 2)), P((0, 1)), d) is Comparison.LESS
    assert compare_abs(P((0, 1)), P((-1, 2)), d) is Comparison.GREATER
    assert compare_abs(P((-1, 2)), P((1, -2)), d) is Comparison.EQUAL
    # a cap under 16 still evaluates: 0.24 apart, 8 bits separate them
    assert compare_abs(P((-1, 2)), P((0, 1)), d, cap=8) is Comparison.LESS
    assert compare_abs(P((0, 1)), P((-1, 2)), d, cap=1) is Comparison.GREATER


def test_compare_abs_touching_enclosures_do_not_decide():
    # on the 1-bit cbrt2 bracket [1, 3/2], |2T - 2| is enclosed in [0, 1]
    # and |T| in [1, 3/2]: they share the point 1, so neither lies below
    d = preset("cbrt2")
    assert d.refine(1) == RationalInterval(Fraction(1), Fraction(3, 2))
    with pytest.raises(PrecisionExhausted):
        compare_abs(P((-2, 2)), P((0, 1)), d, cap=1)
    assert compare_abs(P((-2, 2)), P((0, 1)), d, cap=2) is Comparison.LESS


def test_compare_abs_rejects_cap_below_one():
    d = preset("sqrt2m1")
    for cap in (0, -1):
        with pytest.raises(ValueError):
            compare_abs(P((-1, 2)), P((0, 1)), d, cap=cap)


def _single_tests_first(poly_p, poly_q, desc, cap):
    """compare_abs with the zero tests in the order P, Q, then P - Q and
    P + Q, and the numeric loop from 16 bits: the reference order."""
    if poly_p.is_zero() or poly_q.is_zero():
        raise ValueError("compare_abs requires nonzero polynomials")
    if poly_p == poly_q or poly_p == -poly_q:
        return Comparison.EQUAL
    if desc.minpoly is not None:
        zp = is_zero_at(poly_p, desc)
        zq = is_zero_at(poly_q, desc)
        if zp and zq:
            return Comparison.EQUAL
        if zp:
            return Comparison.LESS
        if zq:
            return Comparison.GREATER
        if is_zero_at(poly_p - poly_q, desc) or is_zero_at(poly_p + poly_q, desc):
            return Comparison.EQUAL
    p = 16
    while p <= cap:
        x = desc.refine(p)
        a = poly_p.eval_abs_interval(x)
        b = poly_q.eval_abs_interval(x)
        if a.strictly_below(b):
            return Comparison.LESS
        if b.strictly_below(a):
            return Comparison.GREATER
        p *= 2
    raise PrecisionExhausted("indistinguishable at cap", cap=cap)


# (fresh descriptor, factor with the value as a root, or None)
_COMPARE_TARGETS = (
    (lambda: preset("cbrt2"), P((-2, 0, 0, 1))),
    (lambda: preset("sqrt2m1"), P((-1, 2, 1))),
    (lambda: AlgebraicNumber(*SQRT2_REDUCIBLE), P((-2, 0, 1))),
    (lambda: ContinuedFraction([1], PeriodicRule([1, 2])), P((-3, 0, 1))),
    (lambda: ContinuedFraction([0, 2, 3]), P((-3, 7))),  # 3/7
    (lambda: preset("liouville2fact"), None),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(target=st.sampled_from(_COMPARE_TARGETS),
       kind=st.sampled_from(("random", "P - Q", "P + Q", "one zero",
                             "both zero")),
       p=_polys(3, 6), q=_polys(3, 6), s=_polys(1, 3),
       cap=st.sampled_from((16, 64, 4096)), swap=st.booleans())
def test_compare_abs_matches_single_tests_first(target, kind, p, q, s, cap,
                                                swap):
    make, f = target
    if f is not None:
        if kind == "P - Q":
            q = p + s * f
        elif kind == "P + Q":
            q = -p + s * f
        elif kind == "one zero":
            p = s * f
        elif kind == "both zero":
            p, q = s * f, q * f
    if swap:
        p, q = q, p
    outcomes = []
    for impl in (compare_abs, _single_tests_first):
        desc = make()
        try:
            got = impl(p, q, desc, cap)
        except (ValueError, PrecisionExhausted) as exc:
            got = type(exc)
        iv = desc._current()
        outcomes.append((got, iv.lo, iv.hi))
    assert outcomes[0] == outcomes[1]


def _recording(desc, attr, limit=100):
    """Shadow desc.attr with a wrapper that records its argument; a loop
    that never ends would record without bound, so stop at the limit."""
    args, real = [], getattr(desc, attr)

    def wrapper(p):
        args.append(p)
        assert len(args) < limit, f"{attr} called without end"
        return real(p)

    setattr(desc, attr, wrapper)
    return args


def test_certified_abs_returns_at_zero_bits():
    # at max(rel_bits, abs_bits) = 0 the precision starts at 1 bit, so
    # doubling it makes progress
    desc = preset("liouville2fact")
    ps = _recording(desc, "refine")
    iv = certified_abs(P((-1, 2)), desc, 0)
    assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(9, 16))
    assert ps == [1, 2]
    for rel_bits, abs_bits in ((-1, 0), (0, -1), (-8, 8)):
        with pytest.raises(ValueError):
            certified_abs(P((-1, 2)), desc, rel_bits, abs_bits=abs_bits)


def test_compare_abs_evaluates_at_its_cap():
    # 2**80 * cbrt2 lies 0.715 past N, so |2**80 T - N| > |2**80 T - N - 1|,
    # separable on a bracket about 2**-100 wide: the cap is tried even when
    # it is not 16 * 2**k
    n = 1523151087893883639709146
    a, b = P((-n, 2**80)), P((-n - 1, 2**80))
    desc = preset("cbrt2")
    ps = _recording(desc, "refine")
    assert compare_abs(a, b, desc, cap=100) is Comparison.GREATER
    assert ps == [16, 32, 64, 100]
    assert compare_abs(b, a, preset("cbrt2"), cap=100) is Comparison.LESS
    with pytest.raises(PrecisionExhausted):
        compare_abs(a, b, preset("cbrt2"), cap=64)


def _fraction_refine(desc, p):
    """refine(p) with the width test in Fraction arithmetic."""
    while desc._current().width > Fraction(1, 2**p):
        if not desc._improve(p):
            raise PrecisionExhausted("cannot refine", cap=p)
    return desc._current()


def _fraction_abs_horner(poly, x):
    """|P(x)| by interval Horner on RationalInterval endpoints."""
    acc = RationalInterval.point(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc.abs()


def _fraction_certified_abs(poly, desc, rel_bits, cap, abs_bits):
    """certified_abs as its loop was written on Fraction endpoints: the
    tolerance min(lo * 2**-rel_bits, 2**-abs_bits) and the width as
    Fractions, the enclosure by Fraction Horner."""
    p = max(rel_bits, abs_bits)
    while True:
        iv = _fraction_abs_horner(poly, _fraction_refine(desc, p))
        tol = min(iv.lo / (1 << rel_bits), Fraction(1, 1 << abs_bits))
        if iv.lo > 0 and iv.width <= tol:
            return iv
        if p >= cap:
            if iv.lo > 0:
                return iv
            if is_zero_at(poly, desc):
                return None
            raise PrecisionExhausted("not separated from zero", cap=cap)
        p = min(2 * p, cap)


# (sqrt(3) - 1)/2 from a word rule with two letter values: no minpoly
_TWO_VALUES = {
    "kind": "cf", "prefix": [0],
    "rule": {"type": "word", "morphism": {"a": "ab", "b": "ab"},
             "start": "a", "letters": {"a": 2, "b": 1}},
}

# every descriptor kind, with point brackets from a finite cf and from an
# algebraic target whose first midpoint is a rational root
_EVAL_TARGETS = _COMPARE_TARGETS + (
    (lambda: AlgebraicNumber(_DYADIC_ROOT[0], _DYADIC_ROOT[1][0]), P((-1, 2))),
    (lambda: AlgebraicNumber(_DYADIC_ROOT[0], _DYADIC_ROOT[1][1]), P((-1, 2))),
    (lambda: preset("fibwordcf"), None),
    (lambda: preset("liouville3pow2"), None),
    (lambda: descriptor_from_dict(_TWO_VALUES), P((-1, 2, 2))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(target=st.sampled_from(_EVAL_TARGETS), zero=st.booleans(),
       poly=_polys(3, 6), s=_polys(1, 3),
       rel_bits=st.sampled_from((1, 8, 64, 200)),
       abs_bits=st.sampled_from((0, 1, 8, 64, 200)),
       cap=st.sampled_from((8, 64, 4096)),
       pre=st.sampled_from((None, 16, 256)))
def test_certified_abs_matches_fraction_loop(target, zero, poly, s, rel_bits,
                                             abs_bits, cap, pre):
    make, f = target
    if zero and f is not None:
        poly = s * f
    outcomes = []
    for impl in (certified_abs, _fraction_certified_abs):
        desc = make()
        if pre is not None:
            desc.refine(pre)
        try:
            got = impl(poly, desc, rel_bits, cap, abs_bits)
        except PrecisionExhausted as exc:
            got = type(exc)
        if isinstance(got, RationalInterval):
            got = (got.lo, got.hi)
        iv = desc._current()
        outcomes.append((got, iv.lo, iv.hi))
    assert outcomes[0] == outcomes[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(target=st.sampled_from(_EVAL_TARGETS),
       ps=st.lists(st.integers(1, 300), min_size=1, max_size=6))
def test_refine_matches_fraction_width_test(target, ps):
    make, _ = target
    desc, ref = make(), make()
    steps = _recording(desc, "_improve", 1000)
    ref_steps = _recording(ref, "_improve", 1000)
    for p in ps:
        iv, ref_iv = desc.refine(p), _fraction_refine(ref, p)
        assert (iv.lo, iv.hi) == (ref_iv.lo, ref_iv.hi)
        assert steps == ref_steps
        # the width bits are exact: width <= 2**-k exactly for k <= bits
        bits = desc._width_bits(iv)
        if iv.is_point():
            assert bits == float("inf")
        elif bits < 0:
            assert bits == -1 and iv.width > 1
        else:
            assert Fraction(1, 2 ** (bits + 1)) < iv.width <= Fraction(1, 2**bits)
        assert bits >= p


def test_descriptor_round_trip():
    for name in STOCK_NAMES:
        d = preset(name)
        clone = descriptor_from_dict(d.to_dict())
        a = d.refine(30)
        b = clone.refine(30)
        assert a.intersects(b)
        assert clone.label == d.label


@pytest.mark.parametrize("alias, canonical", [
    ({"kind": "continued-fraction", "prefix": [0],
      "rule": {"type": "periodic", "period": [1, 2]}},
     {"kind": "cf", "prefix": [0], "rule": {"type": "periodic", "period": [1, 2]}}),
    ({"kind": "liouville-series", "base": 2},
     {"kind": "liouville", "base": 2, "exponents": "factorial"}),
    ({"kind": "liouville", "base": 3, "exponents": "pow2"},
     {"kind": "liouville", "base": 3, "exponents": {"type": "power", "base": 2}}),
    ({"kind": "liouville", "base": 2, "exponents": "pow4"},
     {"kind": "liouville", "base": 2, "exponents": {"type": "power", "base": 4}}),
    ({"kind": "cf", "prefix": [1, 2, 3], "rule": {"type": "finite"}},
     {"kind": "cf", "prefix": [1, 2, 3]}),
])
def test_descriptor_aliases_load_as_canonical(alias, canonical):
    a, b = descriptor_from_dict(alias), descriptor_from_dict(canonical)
    assert a.to_dict() == b.to_dict()
    assert a.refine(64) == b.refine(64)
