import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyapprox.errors import BudgetExceeded
from polyapprox import polynomials
from polyapprox.exactlinalg import rank_of_rows
from polyapprox.intervals import RationalInterval
from polyapprox.polynomials import (
    IntegerPolynomial,
    coprime_shift_rank,
    gelfond_scan,
    lowest_positive,
    poly_gcd,
    pseudo_remainder,
    shell_coeffs,
    shift_rank,
    sturm_chain,
    sturm_root_count,
)

from references import plain_eval_scaled

P = IntegerPolynomial


def test_basic_attributes():
    p = P((-49, 64))
    assert p.degree == 1
    assert p.height == 64
    assert str(p) == "64T - 49"
    assert p.coeff_vector(4) == [-49, 64, 0, 0]
    assert not p.is_zero()
    assert P(()).is_zero() and P((0, 0)).is_zero()


def test_canonical_sign():
    p = P((1, -2))
    assert p.canonical().coeffs == (-1, 2)
    assert p.canonical().height == p.height
    assert P((0, 3)).canonical().coeffs == (0, 3)


def _highest_nonzero(coeffs):
    return next(c for c in reversed(coeffs) if c)


def test_shell_coeffs_is_the_filtered_box():
    for length in range(1, 5):
        for h in range(1, 5):
            got = list(shell_coeffs(length, h))
            want = {
                c for c in product(range(-h, h + 1), repeat=length)
                if max(map(abs, c)) == h and _highest_nonzero(c) > 0
            }
            assert len(got) == len(set(got)), (length, h)
            assert set(got) == want, (length, h)
    assert list(shell_coeffs(3, 0)) == []


def test_lowest_positive_picks_one_sign():
    for t in product(range(-2, 3), repeat=3):
        neg = tuple(-c for c in t)
        assert lowest_positive(t) == lowest_positive(neg)
        assert lowest_positive(t) in (t, neg)
        if any(t):
            assert next(c for c in lowest_positive(t) if c) > 0
    assert lowest_positive((0, 0)) == (0, 0)


def test_shift_multiplies_by_powers():
    p = P((1, 1))
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert p.shift(0) == p
    # heights are shift invariant
    for j in range(5):
        assert p.shift(j).height == p.height


def test_eval_abs_interval_encloses_exact_value():
    rng = random.Random(99)
    for _ in range(100):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(4))
        p = P(coeffs)
        if p.is_zero():
            continue
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        box = RationalInterval(x - Fraction(1, 1000), x + Fraction(1, 1000))
        assert abs(p.eval_fraction(x)) in p.eval_abs_interval(box)


def reference_eval_interval(poly, x):
    """Interval Horner in Fraction arithmetic."""
    acc = RationalInterval.point(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


# dyadic (bisection), cf-style convergent and Liouville-style denominators
DENOMINATORS = st.one_of(
    st.integers(0, 80).map(lambda k: 2**k),
    st.integers(1, 10**12),
    st.builds(pow, st.sampled_from((3, 5, 10)), st.integers(1, 60)),
)


@st.composite
def horner_intervals(draw):
    lo = Fraction(draw(st.integers(-10**15, 10**15)), draw(DENOMINATORS))
    width = draw(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 10**15), DENOMINATORS),
    ))
    return RationalInterval(lo, lo + width)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(coeffs=st.lists(st.integers(-50, 50), max_size=7), x=horner_intervals())
def test_eval_interval_equals_fraction_horner(coeffs, x):
    p = P(coeffs)
    ref = reference_eval_interval(p, x)
    new = p.eval_interval(x)
    assert (new.lo, new.hi) == (ref.lo, ref.hi)
    new_abs, ref_abs = p.eval_abs_interval(x), ref.abs()
    assert (new_abs.lo, new_abs.hi) == (ref_abs.lo, ref_abs.hi)
    # the integer triples, reduced, are the same endpoints over den = d**deg
    d = math.lcm(x.lo.denominator, x.hi.denominator)
    for (lo, hi, den), iv in ((p.eval_scaled(x), ref),
                              (p.eval_abs_scaled(x), ref_abs)):
        assert den == d ** max(p.degree, 0)
        assert (Fraction(lo, den), Fraction(hi, den)) == (iv.lo, iv.hi)
    # a point is a zero-width interval: the exact value
    assert p.eval_fraction(x.lo) == \
        reference_eval_interval(p, RationalInterval.point(x.lo)).lo


@st.composite
def shared_tail_pools(draw):
    # members drawn from a few tails, so that they share Horner prefixes
    tails = draw(st.lists(st.lists(st.integers(-9, 9), max_size=5),
                          min_size=1, max_size=3))
    members = draw(st.lists(
        st.tuples(st.integers(-9, 9), st.sampled_from(tails)),
        min_size=1, max_size=8))
    return [P([c0] + tail) for c0, tail in members]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pool=shared_tail_pools(), a=horner_intervals(), b=horner_intervals(),
       point=horner_intervals())
def test_shared_prefixes_on_interleaved_brackets(pool, a, b, point):
    # the Horner states are kept for the last bracket object only, so
    # returning to a after b, and after a point, rebuilds them from
    # scratch; eval_fraction evaluates a point without touching them
    point = RationalInterval.point(point.lo)
    for x in (a, b, a, point, a):
        for p in pool:
            assert p.eval_scaled(x) == plain_eval_scaled(p, x)
            assert p.eval_fraction(point.lo) == \
                Fraction(*plain_eval_scaled(p, point)[::2])
        if any(pool):  # the zero polynomial evaluates no bracket
            assert polynomials._horner[0] is x


def test_eval_scaled_at_high_degree():
    # the longest cached tail is found by a loop, not by recursion, so no
    # degree reaches the recursion limit
    x = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    rng = random.Random(2000)
    coeffs = [rng.randint(-5, 5) for _ in range(2000)] + [1]
    p, q = P(coeffs), P([7] + coeffs[1:1000] + [3] + coeffs[1001:])
    for poly in (p, q, p):
        assert poly.eval_scaled(x) == plain_eval_scaled(poly, x)
    P([1, 1]).eval_scaled(RationalInterval.point(0))  # drop the big states


def test_poly_gcd_examples():
    g = poly_gcd(P((-1, 0, 1)), P((1, 2, 1)))
    assert g.coeffs == (1, 1)
    assert poly_gcd(P((-2, 0, 1)), P((-3, 0, 1))).degree == 0
    # gcd of P with 0 is P made primitive and canonical
    assert poly_gcd(P((0, -4, -8)), P(())).coeffs == (0, 1, 2)


# Reference for poly_gcd and the Sturm chain: Euclid over Q on
# constant-first Fraction lists, scaled back to primitive integer parts.
def _divmod_fraction(a, b):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
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


def _primitive_of_fractions(fs):
    scale = math.lcm(*(f.denominator for f in fs))
    return P([int(f * scale) for f in fs]).primitive()


def fraction_euclid_gcd(p, q):
    if p.is_zero():
        return q.primitive().canonical()
    if q.is_zero():
        return p.primitive().canonical()
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        _, r = _divmod_fraction(a, b)
        a, b = b, r
    return _primitive_of_fractions(a).canonical()


def fraction_euclid_sturm_chain(p):
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero():
        a = [Fraction(c) for c in chain[-2].coeffs]
        b = [Fraction(c) for c in chain[-1].coeffs]
        _, r = _divmod_fraction(a, b)
        if not r:
            break
        chain.append(_primitive_of_fractions([-f for f in r]))
    return [c for c in chain if not c.is_zero()]


def fraction_root_count(p, lo, hi):
    chain = fraction_euclid_sturm_chain(p)

    def variations(x):
        values = (sum(c * x**i for i, c in enumerate(f.coeffs)) for f in chain)
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


# small factors with any sign of leading coefficient, monic or not
factors = st.builds(lambda low, lead: P((*low, lead)),
                    st.lists(st.integers(-5, 5), max_size=3),
                    st.integers(-4, 4).filter(bool))


def _product(fs):
    out = P((1,))
    for f in fs:
        out = out * f
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(common=st.lists(factors, max_size=3), left=st.lists(factors, max_size=2),
       right=st.lists(factors, max_size=2), zero=st.sampled_from((None, 0, 1)))
def test_poly_gcd_matches_fraction_euclid(common, left, right, zero):
    shared = _product(common)
    p, q = shared * _product(left), shared * _product(right)
    if zero == 0:
        p = P(())
    elif zero == 1:
        q = P(())
    g = poly_gcd(p, q)
    assert g == fraction_euclid_gcd(p, q)
    if zero is None:
        assert _exact_quotient(g, shared.primitive()) is not None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fs=st.lists(factors, min_size=1, max_size=4), square=st.booleans(),
       a=st.fractions(min_value=-8, max_value=8, max_denominator=16),
       b=st.fractions(min_value=-8, max_value=8, max_denominator=16))
def test_sturm_matches_fraction_euclid(fs, square, a, b):
    p = _product(fs) * (fs[0] if square else 1)
    assert sturm_chain(p) == fraction_euclid_sturm_chain(p)
    lo, hi = min(a, b), max(a, b)
    assert sturm_root_count(p, lo, hi) == fraction_root_count(p, lo, hi)


def test_sturm_chain_keeps_the_remainder_when_lc_power_is_negative():
    # the third member -T + 4 divides 4T^3 + 1 with k = 3, so lc**k = -1:
    # the pseudo-remainder is already the negated Euclid remainder
    p = P((-3, 1, 0, 0, 1))
    chain = sturm_chain(p)
    assert [c.coeffs for c in chain] == [(-3, 1, 0, 0, 1), (1, 0, 0, 4),
                                         (4, -1), (-1,)]
    assert chain == fraction_euclid_sturm_chain(p)
    assert sturm_root_count(p, -3, 3) == 2


def _exact_quotient(a, m):
    """Q in Z[T] with a = Q * m, or None if there is none."""
    a = list(a.coeffs)
    q = [0] * max(len(a) - m.degree, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i], rest = divmod(a[i + m.degree], m.coeffs[-1])
        if rest:
            return None
        for j, b in enumerate(m.coeffs):
            a[i + j] -= q[i] * b
    return None if any(a) else P(q)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(p=st.lists(st.integers(-50, 50), max_size=8),
       m=st.builds(lambda low, lead: P((*low, lead)),
                   st.lists(st.integers(-20, 20), max_size=4),
                   st.integers(-6, 6).filter(bool)))
def test_pseudo_remainder_identity(p, m):
    p = P(p)
    r = pseudo_remainder(p, m)
    k = max(p.degree - m.degree + 1, 0)
    assert r.degree < m.degree
    q = _exact_quotient(p * m.coeffs[-1] ** k - r, m)
    assert q is not None and q * m + r == p * m.coeffs[-1] ** k


def test_pseudo_remainder_examples():
    # 4 (T^2 + 1) = (2T + 1)(2T - 1) + 5; T^3 - 2 = T * T^2 - 2; a P of
    # lower degree than m is its own remainder
    assert pseudo_remainder(P((1, 0, 1)), P((-1, 2))) == P((5,))
    assert pseudo_remainder(P((-2, 0, 0, 1)), P((0, 0, 1))) == P((-2,))
    assert pseudo_remainder(P((3, 1)), P((1, 0, 1))) == P((3, 1))
    assert pseudo_remainder(P(()), P((1, 1))).is_zero()
    with pytest.raises(ZeroDivisionError):
        pseudo_remainder(P((1, 1)), P(()))


def _rank(polys, m):
    return rank_of_rows([p.coeff_vector(m + 1) for p in polys], m + 1)


def test_rank_examples():
    assert _rank((P((1,)), P((0, 1)), P((0, 0, 1))), 2) == 3
    p = P((3, -1, 2))
    assert _rank((p, p * P((2,))), 4) == 1


def test_rank_with_planted_deficiency():
    rng = random.Random(5150)
    for _ in range(20):
        base = [
            P(tuple(rng.randint(-5, 5) for _ in range(6))) for _ in range(4)
        ]
        if _rank(base, 5) != 4:
            continue
        mixed = []
        for _ in range(2):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            mixed.append(base[0] * P((a,)) + base[1] * P((b,)))
        assert _rank(base + mixed, 5) == 4


def test_rank_invariances():
    rng = random.Random(77)
    polys = [P(tuple(rng.randint(-4, 4) for _ in range(5))) for _ in range(4)]
    base = _rank(polys, 4)
    assert _rank([p * P((3,)) for p in polys], 4) == base
    shuffled = list(polys)
    rng.shuffle(shuffled)
    assert _rank(shuffled, 4) == base


def test_shift_family_contents():
    # 1 + T, T + T^2, T^2 + T^3: the shifts of 1 + T within degree 3
    assert shift_rank((P((1, 1)),), 3) == 3
    with pytest.raises(ValueError):
        shift_rank((P(()),), 3)
    with pytest.raises(ValueError):
        shift_rank((P((0, 0, 0, 0, 1)),), 3)


def test_coprime_shift_rank_examples():
    assert coprime_shift_rank(P((-2, 0, 1)), P((-3, 0, 1)))["full"]
    shared = coprime_shift_rank(P((0, -1, 1)), P((-1, 0, 1)))
    assert not shared["full"]
    assert shared["rank"] == 3  # a+b-deg gcd = 2+2-1
    small = coprime_shift_rank(P((1, 1)), P((-1, 1)))
    assert small["full"] and small["rank"] == 2


def test_coprime_shift_rank_matches_gcd_oracle():
    rng = random.Random(1234)
    for _ in range(60):
        p = P(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 4))))
        q = P(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 4))))
        if p.degree < 1 or q.degree < 1:
            continue
        res = coprime_shift_rank(p, q)
        expected = p.degree + q.degree - poly_gcd(p, q).degree
        assert res["rank"] == expected


def test_gelfond_hand_pairs():
    p = P((1, 1))
    assert Fraction((p * p).height, p.height * p.height) == 2
    q = P((-1, 1))
    assert Fraction((q * q).height, q.height * q.height) == 2


def test_gelfond_exhaustive_tiny():
    scan = gelfond_scan(1, 1, sample_count=None)
    assert scan.min_ratio == 1
    assert scan.max_ratio == 2
    assert scan.count > 0
    scan = gelfond_scan(2, 3, None)
    assert scan.count == 14706
    assert scan.min_ratio == Fraction(1, 3)
    assert [str(p) for p in scan.min_witness] == ["T^2 - 2T + 1",
                                                  "2T^2 + 3T + 2"]
    assert scan.max_ratio == 3
    assert [str(p) for p in scan.max_witness] == ["-T^2 - T + 1",
                                                  "-T^2 + T + 1"]


def _reference_gelfond(n, h_max, sample_count, rng_seed):
    """count, extremes and witnesses of H(PQ) / (H(P) H(Q)) in Fraction
    arithmetic, over the pairs gelfond_scan visits, first extreme kept."""
    if sample_count is None:
        pool = [P(c) for c in sorted(lowest_positive(c)
                                     for h in range(1, h_max + 1)
                                     for c in shell_coeffs(n + 1, h))]
        pairs = [(p, q) for i, p in enumerate(pool) for q in pool[i:]]
    else:
        rng = random.Random(rng_seed)

        def draw():
            while True:
                p = P([rng.randint(-h_max, h_max) for _ in range(n + 1)])
                if p:
                    return p
        pairs = [(draw(), draw()) for _ in range(sample_count)]
    lo = hi = None
    for p, q in pairs:
        r = Fraction((p * q).height, p.height * q.height)
        if lo is None or r < lo[0]:
            lo = (r, (p, q))
        if hi is None or r > hi[0]:
            hi = (r, (p, q))
    return len(pairs), lo, hi


# n = 1 puts the product coefficients' bound 2 H**2 at both sides of each
# lane-width step: 8 | 16 bits at H = 7 | 8, 16 | 32 at 127 | 128,
# 32 | 64 at 32767 | 32768, 64 | 128 at 2**31 - 1 | 2**31
LANE_STEPS = ((7, 8), (8, 16), (127, 16), (128, 32), (32767, 32), (32768, 64),
              (2**31 - 1, 64), (2**31, 128))


def test_gelfond_lane_widths():
    assert [(h, polynomials._Lanes(1, h).bits) for h, _ in LANE_STEPS] == list(
        LANE_STEPS)
    assert polynomials._Lanes(2, 3).bits == 8  # the benchmark's exhaustive cell
    assert polynomials._Lanes(3, 2**40).bits == 128
    # P = H (1 + ... + T^n) squared reaches the bound (n + 1) H**2
    for n, h in [(1, h) for h, _ in LANE_STEPS] + [(3, 2**40), (2, 3)]:
        lanes = polynomials._Lanes(n, h)
        p = (h,) * (n + 1)
        q = (h, -h) + (0,) * (n - 1)  # H (1 - T): |coefficients| <= 2 H**2
        row = lanes.pack(p) + (lanes.pack(q) << lanes.width)
        heights = lanes.heights(lanes.value(p), row, 2, lanes.offset(2))
        assert heights == [(n + 1) * h * h, (P(p) * P(q)).height]


def _examples(cells):
    def add(test):
        for cell in reversed(cells):
            test = example(cell=cell)(test)
        return test
    return add


@_examples([((2, 3), None, 0), ((1, 10), None, 0), ((4, 1), None, 0),
            ((1, 7), None, 0), ((1, 8), None, 0),
            *(((1, h), 60, h % 97) for h, _ in LANE_STEPS),
            ((3, 2**40), 60, 5)])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(cell=st.one_of(
    st.tuples(st.sampled_from(((1, 1), (1, 2), (1, 4), (2, 1), (2, 2),
                               (3, 1))), st.none(), st.just(0)),
    st.tuples(st.tuples(st.integers(1, 4), st.integers(1, 12)),
              st.integers(1, 150), st.integers(0, 2**32))))
def test_gelfond_matches_fraction_reference(cell):
    (n, h_max), samples, seed = cell
    scan = gelfond_scan(n, h_max, samples, seed)
    count, (lo, lo_wit), (hi, hi_wit) = _reference_gelfond(n, h_max,
                                                           samples, seed)
    assert scan.count == count
    assert (scan.min_ratio, scan.max_ratio) == (lo, hi)
    assert scan.min_witness == lo_wit and scan.max_witness == hi_wit


def test_gelfond_exhaustive_budget(monkeypatch):
    with pytest.raises(BudgetExceeded):
        gelfond_scan(3, 10, None)  # 97240-member pool: 4.7e9 pairs
    monkeypatch.setattr(polynomials, "PAIR_LIMIT", 14706)
    assert gelfond_scan(2, 3, None).count == 14706
    monkeypatch.setattr(polynomials, "PAIR_LIMIT", 14705)
    with pytest.raises(BudgetExceeded, match="14706 exhaustive pairs"):
        gelfond_scan(2, 3, None)
    monkeypatch.setattr(polynomials, "PAIR_LIMIT", 1)
    assert gelfond_scan(3, 10, 5).count == 5  # sampling is not capped


def test_gelfond_envelope_no_drift():
    small = gelfond_scan(2, 5, sample_count=2000, rng_seed=0)
    large = gelfond_scan(2, 12, sample_count=2000, rng_seed=0)
    for scan in (small, large):
        assert Fraction(1, 16) <= scan.min_ratio <= scan.max_ratio <= 16
        lo_p, lo_q = scan.min_witness
        ratio = Fraction((lo_p * lo_q).height, lo_p.height * lo_q.height)
        assert ratio == scan.min_ratio
