import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polyapprox.bestapprox import BestApproxSequence, best_approx_sequence
from polyapprox.errors import BudgetExceeded, IndexOutOfRange
from polyapprox.exponents import estimate_exponents, height_growth_report
from polyapprox.numbers import (
    AlgebraicNumber,
    ContinuedFraction,
    PeriodicRule,
    descriptor_from_dict,
)
from polyapprox.polynomials import IntegerPolynomial, poly_gcd, sturm_root_count
from polyapprox.presets import preset
from references import (
    continued_fraction_quotients,
    micro_reference_records,
    n1_convergent_records,
    oracle_best_approx,
)

P = IntegerPolynomial


def chains_equal(a, b):
    if len(a) != len(b):
        return False
    return all(
        ra.poly == rb.poly and ra.height == rb.height
        for ra, rb in zip(a.records, b.records)
    )


def test_monotone_invariants(seq_of):
    seq = seq_of("cbrt2", 2, 60)
    heights = [r.height for r in seq.records]
    assert heights == sorted(heights)
    assert len(set(heights)) == len(heights)
    for prev, nxt in zip(seq.records, seq.records[1:]):
        assert nxt.value.strictly_below(prev.value)
        assert prev.value.strictly_positive()


def test_record_heights_match_polynomials(seq_of):
    seq = seq_of("liouville2fact", 1, 100)
    for rec in seq.records:
        assert rec.height == rec.poly.height
        assert rec.poly.degree <= seq.n


def test_engine_matches_oracle_small(seq_of):
    for name in ("sqrt2m1", "cbrt2", "fibwordcf"):
        engine = seq_of(name, 2, 12)
        oracle = oracle_best_approx(preset(name), 2, 12)
        assert chains_equal(engine, oracle)


def test_engine_matches_micro_reference(seq_of):
    for name in ("sqrt2m1", "liouville3pow2"):
        engine = seq_of(name, 1, 8)
        micro = micro_reference_records(preset(name), 1, 8)
        assert [(r.height, r.poly) for r in engine.records] == micro


def test_first_record_for_small_targets():
    # targets in (0, 1/2) start with P1 = T; larger ones prefer T - 1
    for name in ("sqrt2m1", "liouville3pow2"):
        seq = best_approx_sequence(preset(name), 1, 1)
        assert len(seq) == 1
        assert seq.record(1).poly == P((0, 1))
    big = best_approx_sequence(preset("liouville2fact"), 1, 1)
    assert big.record(1).poly == P((-1, 1))


def test_convergent_chain_sqrt2m1(seq_of):
    seq = seq_of("sqrt2m1", 1, 30)
    expected = [(-0, 1), (-1, 2), (-2, 5), (-5, 12), (-12, 29)]
    got = [r.poly.coeffs for r in seq.records]
    assert got == [tuple(c) for c in expected]
    cross = n1_convergent_records(preset("sqrt2m1"), 30)
    assert [r.poly for r in seq.records] == cross


@pytest.mark.parametrize("cap, count, schedule", [(100, 40, [64, 100]),
                                                  (8, 2, [8])])
def test_continued_fraction_quotients_stay_within_cap(cap, count, schedule):
    # 40 quotients of fibwordcf need more than 64 bits; 2 need fewer than 8
    desc = preset("fibwordcf")
    refine, asked = desc.refine, []
    desc.refine = lambda bits: asked.append(bits) or refine(bits)
    assert len(continued_fraction_quotients(desc, count, cap=cap)) == count
    assert asked == schedule


def test_liouville_detection_record(seq_of):
    seq = seq_of("liouville2fact", 1, 100)
    match = [r for r in seq.records if r.poly == P((-49, 64))]
    assert len(match) == 1
    value = match[0].value
    assert Fraction(1, 2**19) < value.lo and value.hi < Fraction(1, 2**17)


def test_oracle_budget_guard():
    with pytest.raises(BudgetExceeded):
        oracle_best_approx(preset("cbrt2"), 3, 10**6)


@pytest.mark.parametrize("search", [best_approx_sequence, oracle_best_approx])
@pytest.mark.parametrize("name, n, h_max", [("liouville2fact", 2, 10),
                                            ("sqrt2m1", 3, 6)])
@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_rejected(search, name, n, h_max, cap):
    # rejected up front, whether or not the chain would reach compare_abs,
    # which refuses cap < 1: sqrt2m1 at n = 3 compares with its incumbent,
    # liouville2fact at n = 2 makes no comparison at all
    with pytest.raises(ValueError, match="cap"):
        search(preset(name), n, h_max, cap=cap)


@pytest.mark.parametrize("search", [best_approx_sequence, oracle_best_approx])
@pytest.mark.parametrize("name", ["cbrt2", "fibwordcf"])
@pytest.mark.parametrize("n, h_max, cap, message", [
    (0, 5, 4096, "degree bound must be >= 1"),
    (0, 10**9, 4096, "degree bound must be >= 1"),
    (2, 0, 4096, "height bound must be >= 1"),
    (5, 10**6, 0, "precision cap must be >= 1"),
])
def test_search_inputs_checked_first(search, name, n, h_max, cap, message):
    # before any refinement, and before the size guards: the h_max = 10**9
    # and last cells are far over every limit of both searches
    desc = preset(name)
    bits = desc._bits
    with pytest.raises(ValueError, match=message):
        search(desc, n, h_max, cap=cap)
    assert desc._bits == bits


class _GuardPassed(Exception):
    pass


def _stop_at_chain(monkeypatch):
    from polyapprox import bestapprox

    def stop(*args):
        raise _GuardPassed

    monkeypatch.setattr(bestapprox, "_Chain", stop)


@pytest.mark.parametrize("n", range(1, 10))
def test_guard_accepts_every_former_box(monkeypatch, n):
    # the former guard accepted (2H+1)^n <= 30,000,000; at its largest H
    # the engine still gets past both limits to the chain
    side = int(30_000_000 ** (1 / n)) + 1
    while side ** n > 30_000_000:
        side -= 1
    h_max = (side - 1) // 2
    assert (2 * h_max + 1) ** n <= 30_000_000 < (2 * h_max + 3) ** n
    _stop_at_chain(monkeypatch)
    with pytest.raises(_GuardPassed):
        best_approx_sequence(preset("cbrt2"), n, h_max)


# the largest accepted H per n: the tail limit sets it at n = 1, 3, 5, 6,
# the orbit row limit at n = 2, 4
@pytest.mark.parametrize("n, h_max", [(1, 30_000_000), (2, 999_999),
                                      (3, 3_872), (4, 706), (5, 195),
                                      (6, 43)])
def test_guard_limits(monkeypatch, n, h_max):
    desc = preset("cbrt2")
    bits = desc._bits
    with pytest.raises(BudgetExceeded):
        best_approx_sequence(desc, n, h_max + 1)
    assert desc._bits == bits
    _stop_at_chain(monkeypatch)
    with pytest.raises(_GuardPassed):
        best_approx_sequence(desc, n, h_max)


def test_record_access_bounds(seq_of):
    seq = seq_of("sqrt2m1", 1, 30)
    assert seq.record(1).k == 1
    with pytest.raises(IndexOutOfRange):
        seq.record(0)
    with pytest.raises(IndexOutOfRange):
        seq.record(len(seq) + 1)


def test_round_trip_serialization(seq_of):
    seq = seq_of("cbrt2", 2, 40)
    clone = BestApproxSequence.from_dict(seq.to_dict())
    assert chains_equal(seq, clone)
    assert clone.value_bits == seq.value_bits
    assert clone.descriptor == seq.descriptor


def test_uniform_ratio_report_shape(seq_of):
    seq = seq_of("cbrt2", 2, 100)
    est = estimate_exponents(seq, k0=1)
    assert len(est.u_rows) >= 3
    for row in est.u_rows:
        assert row.next_height > row.height or row.height == 1
        assert row.ratio.lo > 0
    assert est.what_proxy_interval is not None
    least = min(r.ratio.hi for r in est.u_rows if r.k >= est.k0)
    assert est.what_proxy_interval.lo <= least


def test_height_growth_report(seq_of):
    seq = seq_of("liouville2fact", 1, 100)
    rows = height_growth_report(seq)
    # consecutive pairs, minus those with log H_k = 0 in the denominator
    usable = sum(1 for r in seq.records[:-1] if r.height >= 2)
    assert len(rows) == usable
    for row in rows:
        assert row.rho.lo > 0


def test_larger_horizon_extends_chain(seq_of):
    short = seq_of("cbrt2", 2, 40)
    long = seq_of("cbrt2", 2, 60)
    assert len(long) >= len(short)
    for a, b in zip(short.records, long.records):
        assert a.poly == b.poly


# -- pinned long chains ------------------------------------------------------


def test_cbrt2_degree2_chain_to_1000(seq_of):
    seq = seq_of("cbrt2", 2, 1000)
    assert [r.height for r in seq.records] == [
        1, 2, 3, 7, 14, 19, 29, 35, 59, 100, 180, 459, 521, 800]
    assert seq.records[-1].poly.coeffs == (-645, -496, 800)
    assert seq.warnings == () and seq.ties == ()


def test_periodic_cf_sqrt2m1_chain_is_exact():
    # sqrt(2) - 1 as [0; 2, 2, ...]: T^2 + 2T - 1 is an exact zero, not a
    # NearZero skip that shifts the records to heights 3, 5, 11
    seq = best_approx_sequence(ContinuedFraction([0], PeriodicRule([2])), 2, 12)
    assert [r.height for r in seq.records] == [1, 2, 4, 10]
    assert seq.warnings == ()


def test_record_values_meet_both_width_targets():
    for name, n, h_max in (("cbrt2", 2, 200), ("sqrt2m1", 3, 15),
                           ("fibwordcf", 2, 150)):
        seq = best_approx_sequence(preset(name), n, h_max, value_bits=192)
        assert len(seq) > 3
        for rec in seq.records:
            assert rec.value.lo > 0
            assert rec.value.width <= Fraction(1, 2**192)
            assert rec.value.width <= rec.value.lo / 2**64


def test_word_rule_minus_phi_chain_pinned():
    # a word rule with an eventually constant fixed point: [-2; 2, 1, 1, ...]
    # is -phi, and T^2 + T - 1 is an exact zero, not a NearZero skip
    def minus_phi():
        return descriptor_from_dict({
            "kind": "cf", "prefix": [-2],
            "rule": {"type": "word", "morphism": {"a": "ab", "b": "b"},
                     "start": "a", "letters": {"a": 2, "b": 1}},
        })

    assert minus_phi().minpoly == P((-1, 1, 1))
    for n, heights in ((2, [1, 2, 3, 4]), (3, [1, 2, 4, 6])):
        seq = best_approx_sequence(minus_phi(), n, 6)
        assert [r.height for r in seq.records] == heights
        assert seq.warnings == ()
    assert _records(seq) == _records(oracle_best_approx(minus_phi(), 3, 6))
    seq = best_approx_sequence(minus_phi(), 2, 6)
    assert _records(seq) == _records(oracle_best_approx(minus_phi(), 2, 6))
    micro = micro_reference_records(minus_phi(), 2, 6)
    assert [(r.height, r.poly) for r in seq.records] == micro


def test_liouville2fact_degree4_chain_to_25(seq_of):
    seq = seq_of("liouville2fact", 4, 25)
    assert [r.height for r in seq.records] == [1, 2, 3, 4, 5, 7, 9, 15, 16, 21]
    assert seq.records[-1].poly.coeffs == (-12, -1, 21, -12, 17)


# sha256 of the sorted-key JSON of to_dict(), recorded with the engine that
# walked the (c2..cn) tails against a one-coordinate orbit.
PINNED_DIGESTS = (
    ("liouville2fact", 4, 60,
     "8a56524fc0a547a71149d07ca66947e3fdc9cf756e530da685e45e364afe827a"),
    ("fibwordcf", 3, 200,
     "b5cb7b279750bc4db7b996df507d4bf8d95c1c35b71781d41bb831df38cdf359"),
    # 4 records and 25 ties
    ("sqrt2m1", 4, 20,
     "5515ad93d68236599b6f0ce156a5a028a279fef2a01eed1f9499de88e72d91d1"),
    ("cbrt2", 5, 8,
     "3748a0b1a7315c6f79d2d8840e806740b70ba3ddbc7a993a4eeeceab48a909f9"),
    ("liouville2fact", 5, 12,
     "930fa70c08bf084fe152f0e8e127f1a324ae92c5ba2398ea43525263af4de19e"),
)


@pytest.mark.parametrize("name, n, h_max, digest", PINNED_DIGESTS)
def test_chain_digest_pinned(name, n, h_max, digest):
    seq = best_approx_sequence(preset(name), n, h_max)
    text = json.dumps(seq.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ties_decided_before_single_zero_tests(monkeypatch):
    # offer reads exact zeros (residue 0) and ties within a residue class,
    # the incumbent's included, off one residue per candidate: 2 compare_abs
    # and 8 is_zero_at calls (the 4 zero tests of each compare_abs) where a
    # call per pair and per coarse zero took 380 and 591, with the same
    # bytes.  The counts are exact, so a same-class pair or a multiple of m
    # that reaches compare_abs or is_zero_at again fails here
    from polyapprox import bestapprox, numbers

    counts = {"zero": 0, "compare": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    zero = counted(numbers.is_zero_at, "zero")
    monkeypatch.setattr(numbers, "is_zero_at", zero)
    monkeypatch.setattr(bestapprox, "is_zero_at", zero)
    monkeypatch.setattr(bestapprox, "compare_abs",
                        counted(bestapprox.compare_abs, "compare"))
    seq = best_approx_sequence(preset("sqrt2m1"), 4, 8)
    text = json.dumps(seq.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "eb0ec7e2af5e2ba20083ea7823e3c5cc127a63b1b45b471de4522b4c94ebdffd")
    assert counts["compare"] == 2
    assert counts["zero"] == 8


# sqrt(2) - 1 as a root of the squarefree but reducible
# (T^2 + 2T - 1)(T - 3)
SQRT2M1_REDUCIBLE = {"kind": "algebraic", "minpoly": [3, -7, -1, 1],
                     "interval": ["2/5", "1/2"]}


@pytest.mark.parametrize("n, h_max, h_micro", [(3, 10, 5), (4, 6, 3)])
def test_reducible_minpoly_ties_match_preset(n, h_max, h_micro):
    # offer settles the multiples of m by residue; ties and zeros through
    # the factor T^2 + 2T - 1 alone leave a nonzero residue and still go to
    # compare_abs and is_zero_at.  Records and tie lines, repeats included,
    # are those of the irreducible preset; micro_reference_records is
    # exponential, so it checks the records up to h_micro
    desc = descriptor_from_dict(SQRT2M1_REDUCIBLE)
    seq = best_approx_sequence(desc, n, h_max)
    plain = best_approx_sequence(preset("sqrt2m1"), n, h_max)
    assert ([r.poly.coeffs for r in seq.records]
            == [r.poly.coeffs for r in plain.records])
    assert seq.ties == plain.ties and seq.ties
    assert not seq.warnings
    oracle = oracle_best_approx(descriptor_from_dict(SQRT2M1_REDUCIBLE), n,
                                h_max)
    assert oracle.to_dict() == seq.to_dict()
    micro = micro_reference_records(descriptor_from_dict(SQRT2M1_REDUCIBLE),
                                    n, h_micro)
    assert micro == [(r.height, r.poly) for r in seq.records
                     if r.height <= h_micro]


def test_offer_compares_only_across_residue_classes(monkeypatch):
    # coarse bounds that separate nothing, so the tuple order sets the
    # contenders' order.  At zeta = sqrt(2) - 1, m = T^2 + 2T - 1:
    # |T - 2| = 1.59 and |2T - 1| = 0.17 lie in different classes, and
    # T^2 = -(2T - 1) + m ties 2T - 1 in its class, as does 2T - 1 + m.
    # Only cross-class pairs are compared, and a contender that ties the
    # incumbent does not stop one of another class, T^2 - 3T + 1 = 0.07
    from polyapprox import bestapprox
    from polyapprox.numbers import DEFAULT_CAP

    calls, real = [], bestapprox.compare_abs

    def compare(p, q, *args, **kwargs):
        calls.append((p.coeffs, q.coeffs))
        return real(p, q, *args, **kwargs)

    monkeypatch.setattr(bestapprox, "compare_abs", compare)
    unit = 1 << 128
    chain = bestapprox._Chain(preset("sqrt2m1"), 2, 3, DEFAULT_CAP, 128)
    chain.offer(2, [(1, 4 * unit, c) for c in ((0, 0, 1), (-1, 2, 0),
                                               (-2, 1, 0))])
    assert calls == [((-1, 2), (-2, 1))]
    assert [r.poly.coeffs for r in chain.records] == [(-1, 2)]
    assert chain.ties == ["Tie at height 2: |2T - 1| = |T^2|; kept 2T - 1"]
    chain.offer(3, [(1, 4 * unit, (-2, 4, 1))])
    assert len(calls) == 1 and len(chain.records) == 1
    chain.offer(3, [(1, 4 * unit, c) for c in ((0, 0, 1), (-1, 3, -1))])
    assert calls[1:] == [((0, 0, 1), (-1, 3, -1)), ((-1, 3, -1), (-1, 2))]
    assert [r.poly.coeffs for r in chain.records] == [(-1, 2), (1, -3, 1)]


def test_offer_best_in_the_incumbents_class_makes_no_record(monkeypatch):
    # At zeta = sqrt(2) - 1 the incumbent T has the class of T + m =
    # T^2 + 3T - 1, which sorts first and stays best against T + 1: its
    # class settles the tie with the incumbent, so compare_abs runs once.
    from polyapprox import bestapprox
    from polyapprox.numbers import DEFAULT_CAP

    calls, real = [], bestapprox.compare_abs

    def compare(p, q, *args, **kwargs):
        calls.append((str(p), str(q)))
        return real(p, q, *args, **kwargs)

    monkeypatch.setattr(bestapprox, "compare_abs", compare)
    unit = 1 << 128
    chain = bestapprox._Chain(preset("sqrt2m1"), 2, 3, DEFAULT_CAP, 128)
    chain.offer(1, [(1, 4 * unit, (0, 1))])
    assert [str(r.poly) for r in chain.records] == ["T"]
    chain.offer(3, [(1, 2, (-1, 3, 1)), (1, 2, (1, 1))])
    assert calls == [("T + 1", "T^2 + 3T - 1")]
    assert [str(r.poly) for r in chain.records] == ["T"]
    assert not chain.warnings and not chain.ties


def test_offer_near_tie_keeps_the_lexicographically_smaller(monkeypatch):
    # (sqrt(3) - 1)/2 has no minpoly, so T, 2T^2 + 3T - 1 and
    # -2T^2 - T + 1, which differ by multiples of 2T^2 + 2T - 1, never
    # separate: the later contender is the smaller one and replaces the
    # first, then ties the incumbent T without a record.
    from polyapprox import bestapprox

    desc = descriptor_from_dict({
        "kind": "cf", "prefix": [0],
        "rule": {"type": "word", "morphism": {"a": "ab", "b": "ab"},
                 "start": "a", "letters": {"a": 2, "b": 1}}})
    chain = bestapprox._Chain(desc, 2, 3, 64, 64)
    chain.offer(1, [(1, 1 << 128, (0, 1))])
    assert [str(r.poly) for r in chain.records] == ["T"]
    chain.offer(3, [(1, 2, (-1, 3, 2)), (1, 2, (1, -1, -2))])
    assert chain.warnings == [
        "NearTie: |-2T^2 - T + 1| vs |2T^2 + 3T - 1| indistinguishable at"
        " cap 64; lexicographically smaller kept",
        "NearTie: |-2T^2 - T + 1| vs incumbent |T| indistinguishable at"
        " cap 64; no record",
    ]
    assert [str(r.poly) for r in chain.records] == ["T"]


def test_chain_is_offered_distinct_tuples(monkeypatch):
    # _Chain.offer runs no dedupe: the engine walks each prefix once, at its
    # tail's shell, with the constants of one prefix distinct, and the
    # oracle offers each tuple once.  n = 4 and 5 read the pair orbit.
    from polyapprox import bestapprox

    real, calls = bestapprox._Chain.offer, []

    def offer(self, h, cands):
        coeffs = [c[2] for c in cands]
        assert len(set(coeffs)) == len(coeffs), (h, coeffs)
        calls.append(h)
        return real(self, h, cands)

    monkeypatch.setattr(bestapprox._Chain, "offer", offer)
    for name in ("sqrt2m1", "cbrt2", "liouville2fact", "fibwordcf"):
        for n, h_max in ((1, 40), (2, 20), (3, 12), (4, 8), (5, 5)):
            best_approx_sequence(preset(name), n, h_max)
        oracle_best_approx(preset(name), 3, 6)
    assert calls


# The engine that looked up every tail again after each offer, and visited
# every zero prefix (h, 0, ..., 0), made 2,596 and 299 window lookups here
@pytest.mark.parametrize("name, n, h_max, lookups, digest", [
    ("liouville2fact", 3, 25, 1335,
     "f3164b21ad2c16b18f5ff20b69f2c6e041697e4ecc04d890be06dd160ca3d349"),
    ("sqrt2m1", 4, 8, 239,
     "eb0ec7e2af5e2ba20083ea7823e3c5cc127a63b1b45b471de4522b4c94ebdffd"),
])
def test_orbit_window_lookups_pinned(monkeypatch, name, n, h_max, lookups,
                                     digest):
    # after an offer, only the tails whose window held a higher head are
    # looked up again; the count is exact, so a tail list that drops a
    # needed tail changes the chain and one that keeps every tail the count
    from polyapprox import bestapprox

    calls, real = [0], bestapprox._orbit_window

    def window(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(bestapprox, "_orbit_window", window)
    seq = best_approx_sequence(preset(name), n, h_max)
    text = json.dumps(seq.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert calls[0] == lookups


@pytest.mark.parametrize("name", ["fibwordcf", "liouville2fact"])
def test_degree1_large_horizon_matches_convergents(name):
    # at n = 1 the zero prefix (h,) is the only prefix, so its window test
    # alone decides every shell; the property test stops at H = 500
    seq = best_approx_sequence(preset(name), 1, 20_000)
    assert [r.poly for r in seq.records] == n1_convergent_records(
        preset(name), 20_000)


# -- property tests: the engine against the independent searches -----------

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


def _has_rational_root(coeffs):
    """Rational root test for an integer polynomial with coeffs[0] != 0."""
    def divisors(k):
        return [d for d in range(1, abs(k) + 1) if k % d == 0]

    poly = IntegerPolynomial(coeffs)
    return any(
        poly.eval_fraction(Fraction(sign * p, q)) == 0
        for p in divisors(coeffs[0]) for q in divisors(coeffs[-1])
        for sign in (1, -1)
    )


def _isolating_intervals(coeffs, lo, hi):
    """Grid cells of width 1/16 inside [lo, hi] holding exactly one root,
    with a sign change across the cell."""
    poly = IntegerPolynomial(coeffs)
    grid = [Fraction(k, 16) for k in range(16 * lo, 16 * hi + 1)]
    cells = []
    for a, b in zip(grid, grid[1:]):
        fa, fb = poly.eval_fraction(a), poly.eval_fraction(b)
        if fa and fb and (fa > 0) != (fb > 0) \
                and sturm_root_count(poly, a, b) == 1:
            cells.append((a, b))
    return cells


@st.composite
def algebraic_targets(draw, degree, lo=-9, hi=9, bound=9):
    """Irreducible polynomials of the given degree, with coefficients in
    [-bound, bound] and leading coefficient 1..3, at a root isolated in
    [lo, hi]."""
    low = draw(st.lists(st.integers(-bound, bound), min_size=degree,
                        max_size=degree))
    coeffs = [*low, draw(st.integers(1, 3))]
    assume(coeffs[0] != 0 and not _has_rational_root(coeffs))
    cells = _isolating_intervals(coeffs, lo, hi)
    assume(cells)
    a, b = draw(st.sampled_from(cells))
    return {"kind": "algebraic", "minpoly": coeffs,
            "interval": [str(a), str(b)]}


@st.composite
def reducible_targets(draw):
    """Squarefree products f * g of two factors of degree 1 or 2, at a root
    of f: a minimal polynomial that is not irreducible, so the zero test
    needs its gcd + Sturm step."""
    def factor():
        degree = draw(st.integers(1, 2))
        low = draw(st.lists(st.integers(-5, 5), min_size=degree,
                            max_size=degree))
        return IntegerPolynomial([*low, draw(st.integers(1, 2))])

    f, g = factor(), factor()
    m = f * g
    assume(poly_gcd(m, m.derivative()).degree == 0)
    cells = [(a, b) for a, b in _isolating_intervals(m.coeffs, -9, 9)
             if f.eval_fraction(a) * f.eval_fraction(b) < 0]
    assume(cells)
    a, b = draw(st.sampled_from(cells))
    return {"kind": "algebraic", "minpoly": list(m.coeffs),
            "interval": [str(a), str(b)]}


LIOUVILLE = st.builds(
    lambda base, exps: {"kind": "liouville", "base": base, "exponents": exps},
    st.sampled_from((2, 3)),
    st.sampled_from(("factorial", {"type": "power", "base": 2})),
)


def fibword_targets(integer_parts):
    return st.builds(
        lambda a0, letters: {
            "kind": "cf", "prefix": [a0],
            "rule": {"type": "word", "morphism": {"a": "ab", "b": "a"},
                     "start": "a", "letters": dict(zip("ab", letters))}},
        integer_parts,
        st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True),
    )


def _cf_prefixes(max_tail):
    return st.builds(lambda a0, tail: [a0, *tail], st.integers(-3, 3),
                     st.lists(st.integers(1, 4), max_size=max_tail))


PERIODIC_CF = st.builds(
    lambda prefix, period: {"kind": "cf", "prefix": prefix,
                            "rule": {"type": "periodic", "period": period}},
    _cf_prefixes(2), st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
FINITE_CF = st.builds(lambda prefix: {"kind": "cf", "prefix": prefix},
                      _cf_prefixes(3))
RATIONAL = st.builds(
    lambda p, q: {"kind": "algebraic", "minpoly": [-p, q],
                  "interval": [str(Fraction(8 * p - 1, 8 * q)),
                               str(Fraction(8 * p + 1, 8 * q))]},
    st.integers(-9, 9), st.integers(1, 3),
)
TARGETS = st.one_of(algebraic_targets(2), algebraic_targets(3), LIOUVILLE,
                    fibword_targets(st.integers(-3, 3)), PERIODIC_CF,
                    FINITE_CF, RATIONAL, reducible_targets())
UNIT_TARGETS = st.one_of(algebraic_targets(2, 0, 1, 3),
                         algebraic_targets(3, 0, 1, 3), LIOUVILLE,
                         fibword_targets(st.just(0)))


def _records(seq):
    return [(r.height, r.poly.coeffs, r.value) for r in seq.records]


SIZES = st.sampled_from(((1, 40), (2, 10), (3, 5)))


@settings(PROPERTY, max_examples=171)
@given(target=TARGETS, size=SIZES)
def test_engine_matches_oracle_random_targets(target, size):
    n, h_max = size
    engine = best_approx_sequence(descriptor_from_dict(target), n, h_max)
    oracle = oracle_best_approx(descriptor_from_dict(target), n, h_max)
    assert _records(engine) == _records(oracle)


@settings(PROPERTY, max_examples=60)
@given(target=UNIT_TARGETS, h_max=st.integers(1, 500))
def test_degree1_engine_matches_convergents(target, h_max):
    seq = best_approx_sequence(descriptor_from_dict(target), 1, h_max)
    convergents = n1_convergent_records(descriptor_from_dict(target), h_max)
    assert [r.poly for r in seq.records] == convergents


@settings(PROPERTY, max_examples=103)
@given(target=TARGETS, n=st.integers(1, 2), h_max=st.integers(1, 4))
def test_engine_matches_micro_reference_random_targets(target, n, h_max):
    seq = best_approx_sequence(descriptor_from_dict(target), n, h_max)
    micro = micro_reference_records(descriptor_from_dict(target), n, h_max)
    assert [(r.height, r.poly) for r in seq.records] == micro


@settings(PROPERTY, max_examples=40)
@given(target=PERIODIC_CF, size=SIZES)
def test_periodic_cf_matches_algebraic_twin(target, size):
    n, h_max = size
    cf = descriptor_from_dict(target)
    bits = 4
    while True:
        iv = cf.refine(bits)
        if sturm_root_count(cf.minpoly, iv.lo, iv.hi) == 1:
            break
        bits *= 2
    twin = AlgebraicNumber(cf.minpoly, (iv.lo, iv.hi))
    chains = [[(r.height, r.poly.coeffs) for r in
               best_approx_sequence(desc, n, h_max).records]
              for desc in (cf, twin)]
    assert chains[0] == chains[1]


# no property above draws n >= 4, where the engine takes the pair orbit
WIDE_SIZES = st.sampled_from(((4, 3), (4, 4), (5, 2)))


@settings(PROPERTY, max_examples=120)
@given(target=TARGETS, size=WIDE_SIZES)
def test_two_coordinate_orbit_matches_oracle(target, size):
    n, h_max = size
    engine = best_approx_sequence(descriptor_from_dict(target), n, h_max)
    oracle = oracle_best_approx(descriptor_from_dict(target), n, h_max)
    assert engine.to_dict() == oracle.to_dict()


@settings(PROPERTY, max_examples=25)
@given(target=TARGETS, h_max=st.integers(1, 2))
def test_two_coordinate_orbit_matches_micro_reference(target, h_max):
    seq = best_approx_sequence(descriptor_from_dict(target), 4, h_max)
    micro = micro_reference_records(descriptor_from_dict(target), 4, h_max)
    assert [(r.height, r.poly) for r in seq.records] == micro
