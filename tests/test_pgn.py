import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyapprox import pgn
from polyapprox.bestapprox import BestApproxRecord, BestApproxSequence
from polyapprox.errors import (
    BudgetExceeded,
    DependentInput,
    NoCertifiedSamples,
)
from polyapprox.exactlinalg import IncrementalBasis
from polyapprox.exponents import ExponentEstimate, estimate_exponents
from polyapprox.intervals import RationalInterval
from polyapprox.logs import ln_interval, ln_interval_of, ln_scaled
from polyapprox.numbers import (
    DEFAULT_CAP,
    AlgebraicNumber,
    ContinuedFraction,
    certified_abs,
    certified_abs_scaled,
    descriptor_from_dict,
)
from polyapprox.pgn import (
    SSGraph,
    SSGraphSample,
    crossing_points,
    exponent_identity_residuals,
    lstar,
    minkowski_check,
    ss_graph,
    successive_minima_at,
    sum_bound_constant,
    transfer_formulas,
    transfer_point,
)
from polyapprox.polynomials import (
    IntegerPolynomial,
    lowest_positive,
    shell_coeffs,
)
from polyapprox.presets import STOCK_NAMES, preset
from references import (plain_eval_scaled, reference_minkowski_check,
                        reference_sum_bound_constant)
from test_bestapprox import PROPERTY, TARGETS

P = IntegerPolynomial


def half():
    return AlgebraicNumber(P((-1, 2)), (Fraction(1, 4), Fraction(3, 4)))


def test_lstar_hand_value():
    v = lstar(P((0, 1)), Fraction(0), 1, half())
    assert v.lo <= 0 <= v.hi
    assert v.width < Fraction(1, 2**40)


def test_lstar_breakpoint():
    # both branches of max(ln H - q/m, ln|P| + q) meet at q = (m/(m+1)) ln 2
    br = ln_interval(2, 96) * Fraction(1, 2)
    q = br.mid
    height_branch = -q  # ln H(T) = 0, m = 1
    value_branch = float(ln_interval(Fraction(1, 2), 96).mid + q)
    assert float(height_branch) == pytest.approx(value_branch, abs=1e-12)
    v = lstar(P((0, 1)), q, 1, half())
    assert float(v.mid) == pytest.approx(float(height_branch), abs=1e-9)


def test_lstar_slopes_via_stencil():
    desc = preset("cbrt2")
    poly = P((-1, -1, 1))
    m = 2
    qs = [Fraction(i, 4) for i in range(0, 24)]
    vals = [float(lstar(poly, q, m, desc).mid) for q in qs]
    slopes = [(b - a) * 4 for a, b in zip(vals, vals[1:])]
    # piecewise linear with slopes -1/m and +1, one kink in between
    assert all(-0.5 - 1e-6 <= s <= 1 + 1e-6 for s in slopes)
    assert any(abs(s - 1) < 1e-6 for s in slopes)
    assert any(abs(s + 0.5) < 1e-6 for s in slopes)


def test_lstar_exact_zero_uses_height_branch():
    desc = preset("sqrt2m1")
    minpoly = P((-1, 2, 1))
    for q in (Fraction(0), Fraction(5), Fraction(50)):
        v = lstar(minpoly, q, 2, desc)
        expected = ln_interval(2, 64) - q / 2
        assert v.intersects(expected)


def test_lstar_guards():
    with pytest.raises(ValueError):
        lstar(P(()), Fraction(0), 1, half())
    with pytest.raises(ValueError):
        lstar(P((0, 1)), Fraction(-1), 1, half())
    with pytest.raises(ValueError):
        lstar(P((0, 1)), Fraction(0), 0, half())


def test_successive_minima_hand_example():
    sample = successive_minima_at(Fraction(0), 1, half(), 1)
    assert sample.certified
    assert [str(w) for w in sample.witnesses] == ["T", "1"]
    for v in sample.values:
        assert v.lo <= 0 <= v.hi


def test_values_non_decreasing_in_j():
    graph = ss_graph(2, preset("cbrt2"), 0, 2, 8, 10)
    for sample in graph.samples:
        for a, b in zip(sample.values, sample.values[1:]):
            assert a.lo <= b.hi


def test_grid_refinement_is_pure():
    coarse = ss_graph(1, preset("sqrt2m1"), 0, 2, 4, 20)
    fine = ss_graph(1, preset("sqrt2m1"), 0, 2, 8, 20)
    for i, q in enumerate(coarse.grid):
        j = fine.grid.index(q)
        for a, b in zip(coarse.samples[i].values, fine.samples[j].values):
            assert (a.lo, a.hi) == (b.lo, b.hi)


@pytest.mark.parametrize("name,m,h_pool", (("cbrt2", 2, 3),
                                            ("liouville2fact", 3, 2)))
def test_graph_log_reuse_matches_independent_samples(name, m, h_pool):
    graph = ss_graph(m, preset(name), 0, 3, 3, h_pool)
    fresh = preset(name)
    alone = tuple(successive_minima_at(q, m, fresh, h_pool) for q in graph.grid)
    assert len(graph.samples) == 4
    for shared, own in zip(graph.samples, alone):
        assert shared.q == own.q
        assert [(v.lo, v.hi) for v in shared.values] == \
            [(v.lo, v.hi) for v in own.values]
        assert shared.witnesses == own.witnesses
        assert shared.certified == own.certified


def test_shared_logs_are_keyed_on_the_enclosure():
    # at 8 bits the logs round the enclosures coarsely enough to see them move
    desc, logs = preset("cbrt2"), {}
    first = successive_minima_at(1, 2, desc, 2, bits=8, logs=logs)
    desc.refine(512)  # the same pool members now get narrower enclosures
    shared = successive_minima_at(1, 2, desc, 2, bits=8, logs=logs)
    assert shared.values != first.values
    assert shared == successive_minima_at(1, 2, desc, 2, bits=8)


def _one_sample_graph():
    sample = SSGraphSample(q=Fraction(1), values=(RationalInterval.point(0),),
                           witnesses=(P((0, 1)),), certified=True)
    return SSGraph(m=1, grid=(Fraction(1),), samples=(sample,))


@pytest.mark.parametrize("call", (
    lambda: lstar(P((0, 1)), 0.1, 1, half()),
    lambda: successive_minima_at(0.1, 2, preset("cbrt2"), 2),
    lambda: ss_graph(1, half(), 0.0, 1, 2, 2),
    lambda: ss_graph(1, half(), 0, 1.0, 2, 2),
    lambda: exponent_identity_residuals(
        _one_sample_graph(), _stub_estimate(1, 1), tail_from=0.5),
), ids=("lstar", "successive_minima_at", "ss_graph-q_min", "ss_graph-q_max",
        "exponent_identity_residuals"))
def test_rational_arguments_reject_floats(call):
    # a float would enter the selection silently, e.g. q = 0.1 as
    # 3602879701896397/2**55
    with pytest.raises(TypeError, match="float"):
        call()


def test_zero_degree_bound_rejected():
    with pytest.raises(ValueError, match="m must be >= 1"):
        successive_minima_at(Fraction(1), 0, half(), 2)
    with pytest.raises(ValueError, match="m must be >= 1"):
        ss_graph(0, half(), 0, 1, 2, 2)


def reference_minima_at(q, m, desc, h_pool, bits):
    """The selection as it was computed before the candidates were kept
    sorted: a full re-sort by Fraction keys after every height, and one
    more greedy pass at the end."""

    def greedy(candidates, dim):
        ordered = sorted(
            candidates,
            key=lambda item: (
                item[0].lo,
                item[0].hi,
                sum(1 for c in item[1].coeffs if c),
                item[1].coeffs,
            ),
        )
        basis = IncrementalBasis(dim)
        picked = []
        for value, poly in ordered:
            if basis.add(poly.coeff_vector(dim)):
                picked.append((value, poly))
                if len(picked) == dim:
                    return picked
        return None

    logs = {}

    def ln_of(iv):
        if iv not in logs:
            logs[iv] = ln_interval_of(iv, bits)
        return logs[iv]

    dim = m + 1
    candidates = []
    cutoff = None
    for h in range(1, h_pool + 1):
        height_branch = ln_of(RationalInterval.point(h)) - q / m
        if cutoff is not None and height_branch.lo > cutoff:
            break
        for coeffs in shell_coeffs(m + 1, h):
            poly = P(lowest_positive(coeffs))
            value = certified_abs(poly, desc, bits, DEFAULT_CAP)
            if value is None:
                total = height_branch
            else:
                total = height_branch.max_with(ln_of(value) + q)
            candidates.append((total, poly))
        if len(candidates) >= dim:
            tentative = greedy(candidates, dim)
            if tentative is not None:
                cutoff = tentative[-1][0].hi
    selection = greedy(candidates, dim)
    values = tuple(v for v, _ in selection)
    outside = ln_of(RationalInterval.point(h_pool + 1)) - q / m
    return values, tuple(p for _, p in selection), values[-1].hi < outside.lo


@st.composite
def minima_cases(draw):
    m = draw(st.sampled_from((1, 2, 3)))
    h_pool = draw(st.integers(1, {1: 4, 2: 3, 3: 2}[m]))
    q = draw(st.fractions(min_value=0, max_value=4, max_denominator=8))
    return (draw(st.sampled_from(STOCK_NAMES)), m, h_pool, q,
            draw(st.sampled_from((8, 16, 64))))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=minima_cases())
def test_sorted_candidates_match_full_resort(case):
    # each side gets its own descriptor: enclosures depend on refinement history
    name, m, h_pool, q, bits = case
    got = successive_minima_at(q, m, preset(name), h_pool, bits=bits)
    values, witnesses, certified = reference_minima_at(
        q, m, preset(name), h_pool, bits
    )
    assert [(v.lo, v.hi) for v in got.values] == \
        [(v.lo, v.hi) for v in values]
    assert got.witnesses == witnesses
    assert got.certified == certified


def fresh_target(name):
    """A stock preset, or 1/2 as the finite cf [0; 2], on which every
    multiple of 2T - 1 is an exact zero."""
    return ContinuedFraction([0, 2]) if name == "cf[0;2]" else preset(name)


@st.composite
def prune_cases(draw):
    # pools large enough that most members sort after a tentative selection
    m = draw(st.sampled_from((1, 2, 3)))
    h_pool = draw(st.integers(1, {1: 8, 2: 4, 3: 2}[m]))
    q = draw(st.fractions(min_value=0, max_value=8, max_denominator=8))
    return (draw(st.sampled_from(STOCK_NAMES + ("cf[0;2]",))), m, h_pool, q,
            draw(st.sampled_from((8, 16, 64))))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=prune_cases())
def test_pruned_pool_matches_full_scan(case):
    # the skipped members change neither the selection nor, as every member
    # is still evaluated, the bracket the descriptor is refined to
    name, m, h_pool, q, bits = case
    desc, ref_desc = fresh_target(name), fresh_target(name)
    got = successive_minima_at(q, m, desc, h_pool, bits=bits)
    values, witnesses, certified = reference_minima_at(
        q, m, ref_desc, h_pool, bits
    )
    assert [(v.lo, v.hi) for v in got.values] == \
        [(v.lo, v.hi) for v in values]
    assert got.witnesses == witnesses
    assert got.certified == certified
    end, ref_end = desc.bracket, ref_desc.bracket
    assert (end.lo, end.hi) == (ref_end.lo, ref_end.hi)


@st.composite
def graph_cases(draw):
    m = draw(st.sampled_from((1, 2, 3)))
    h_pool = draw(st.integers(1, {1: 4, 2: 3, 3: 2}[m]))
    q_min = draw(st.fractions(min_value=0, max_value=4, max_denominator=8))
    span = draw(st.fractions(min_value=Fraction(1, 8), max_value=4,
                             max_denominator=8))
    return (draw(st.sampled_from(STOCK_NAMES + ("cf[0;2]",))), m, h_pool,
            q_min, q_min + span, draw(st.integers(2, 4)),
            draw(st.sampled_from((8, 16, 64))))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(case=graph_cases())
def test_graph_matches_full_scan_point_by_point(case):
    # the grid points share one descriptor, so each full scan runs on the
    # descriptor the earlier ones refined, as the graph's samples do
    name, m, h_pool, q_min, q_max, steps, bits = case
    desc, ref_desc = fresh_target(name), fresh_target(name)
    graph = ss_graph(m, desc, q_min, q_max, steps, h_pool, bits=bits)
    assert len(graph.samples) == steps + 1
    for q, sample in zip(graph.grid, graph.samples):
        values, witnesses, certified = reference_minima_at(
            q, m, ref_desc, h_pool, bits
        )
        assert [(v.lo, v.hi) for v in sample.values] == \
            [(v.lo, v.hi) for v in values]
        assert sample.witnesses == witnesses
        assert sample.certified == certified
    end, ref_end = desc.bracket, ref_desc.bracket
    assert (end.lo, end.hi) == (ref_end.lo, ref_end.hi)


def minima_with_log(desc, q, m, h_pool, bits, plain):
    """successive_minima_at with every refine(p) argument logged, through
    eval_scaled's shared Horner prefixes or, with plain, through the plain
    Horner loop of references.plain_eval_scaled."""
    log, refine = [], desc.refine

    def logged(p):
        log.append(p)
        return refine(p)

    desc.refine = logged
    with pytest.MonkeyPatch.context() as patch:
        if plain:
            patch.setattr(P, "eval_scaled", plain_eval_scaled)
        sample = successive_minima_at(q, m, desc, h_pool, bits=bits)
    end = desc.bracket
    return sample, (end.lo, end.hi), log


def assert_same_as_plain(target, q, m, h_pool, bits):
    # each side gets its own descriptor: enclosures depend on refinement history
    shared = minima_with_log(descriptor_from_dict(target), q, m, h_pool,
                             bits, plain=False)
    plain = minima_with_log(descriptor_from_dict(target), q, m, h_pool,
                            bits, plain=True)
    (got, got_end, got_log), (ref, ref_end, ref_log) = shared, plain
    assert [(v.lo, v.hi) for v in got.values] == \
        [(v.lo, v.hi) for v in ref.values]
    assert got.witnesses == ref.witnesses
    assert got.certified == ref.certified
    assert got_end == ref_end
    assert got_log == ref_log
    return got_log


@st.composite
def evaluator_cases(draw):
    m = draw(st.sampled_from((1, 2, 3)))
    return (draw(TARGETS),
            draw(st.fractions(min_value=0, max_value=6, max_denominator=8)),
            m, draw(st.integers(1, 3 if m < 3 else 2)),
            draw(st.sampled_from((8, 16, 64))))


@settings(PROPERTY, max_examples=150)
@given(case=evaluator_cases())
def test_shared_prefixes_match_plain_evaluation(case):
    assert_same_as_plain(*case)


def test_shared_prefixes_match_plain_evaluation_on_escalation():
    # T^3 - 2 vanishes at cbrt2, so its loop doubles p from 8 up to the cap,
    # each step on a new bracket, and the prefixes are rebuilt on each
    cbrt2 = {"kind": "algebraic", "minpoly": [-2, 0, 0, 1],
             "interval": ["1", "2"]}
    log = assert_same_as_plain(cbrt2, Fraction(3), 3, 2, 8)
    assert log[0] == 8
    assert DEFAULT_CAP in log and 16 in log


def test_prune_skips_logs_but_no_evaluation(monkeypatch):
    calls = {"abs": 0, pgn.DEFAULT_VALUE_BITS: 0, pgn.PRUNE_BITS: 0}

    def counted_abs(*args, **kwargs):
        calls["abs"] += 1
        return certified_abs_scaled(*args, **kwargs)

    def counted_logs(n, d, bits):
        calls[bits] += 1
        return ln_scaled(n, d, bits)

    monkeypatch.setattr(pgn, "certified_abs_scaled", counted_abs)
    monkeypatch.setattr(pgn, "ln_scaled", counted_logs)
    successive_minima_at(3, 2, preset("cbrt2"), 3)
    assert calls["abs"] == 171  # the whole pool: (7**3 - 1) / 2 members
    # 340 with no member skipped: two per member
    assert calls[pgn.DEFAULT_VALUE_BITS] == 26
    assert calls[pgn.PRUNE_BITS] == 2

    # a single height: the selection settles inside it, so most of the
    # 40 members sort after a tentative last pick before their log
    calls.update({"abs": 0, pgn.DEFAULT_VALUE_BITS: 0, pgn.PRUNE_BITS: 0})
    successive_minima_at(1, 3, preset("liouville2fact"), 1)
    assert calls["abs"] == 40
    assert calls[pgn.DEFAULT_VALUE_BITS] < 40


TINY = Fraction(1, 2**200)


@pytest.mark.parametrize("crafted,expected", (
    # lo values 2^-200 apart share their 8-bit prefix, and one lo is
    # negative: the Fraction lo decides, not hi
    ({(0, 1): (Fraction(-1, 3) - TINY, 7),
      (1,): (Fraction(-1, 3), Fraction(-1, 3)),
      (0, 0, 1): (TINY, 1),
      (0, 0, 0, 1): (0, 2)},
     ((0, 1), (1,), (0, 0, 0, 1), (0, 0, 1))),
    # equal lo: lower hi first, then fewer nonzero coefficients, then the
    # lexicographically smaller coefficient tuple
    ({(1, -1, 1): (Fraction(1, 2), 1),
      (1, 0, 1): (Fraction(1, 2), 1),
      (0, 1, 0, 1): (Fraction(1, 2), 1),
      (0, 0, 0, 1): (Fraction(1, 2), 2),
      (1, 1): (Fraction(1, 2), Fraction(3, 4))},
     ((1, 1), (0, 1, 0, 1), (1, 0, 1), (1, -1, 1))),
))
def test_selection_order_on_crafted_values(monkeypatch, crafted, expected):
    # with ln the identity, L* = max(1 - q/m, |P| + q) over the height-1
    # pool; |P| is crafted so that L* is the given interval for the
    # listed members and 50 for the others
    q, m = Fraction(30), 3

    def crafted_abs(poly, desc, bits, cap):
        # [lo - q, hi - q] as an (lo, hi, den) triple, not in lowest terms
        lo, hi = (Fraction(x) - q for x in crafted.get(poly.coeffs, (50, 50)))
        den = 6 * math.lcm(lo.denominator, hi.denominator)
        return (lo.numerator * (den // lo.denominator),
                hi.numerator * (den // hi.denominator), den)

    monkeypatch.setattr(pgn, "certified_abs_scaled", crafted_abs)
    monkeypatch.setattr(pgn, "ln_scaled", lambda n, d, bits: (n, n, d))
    # a valid coarse enclosure of the identity: [x - 1, x + 1]
    monkeypatch.setattr(pgn, "ln_coarse", lambda n, d: (n - d, n + d, d))
    sample = successive_minima_at(q, m, half(), 1, bits=8)
    assert tuple(w.coeffs for w in sample.witnesses) == expected
    assert [(v.lo, v.hi) for v in sample.values] == \
        [tuple(map(Fraction, crafted[c])) for c in expected]


def test_prune_threshold_is_exact(monkeypatch):
    # with ln the identity and q = 30, m = 3, the height-1 picks end at
    # lam = [1/2, 3/2]; a height-2 member is pruned exactly when its value
    # lo lies above lam.lo + 2**-bits
    q, m, bits = Fraction(30), 3, 16
    edge = Fraction(1, 2) + Fraction(1, 1 << bits)
    crafted = {(1,): Fraction(1, 4), (0, 1): Fraction(1, 3),
               (0, 0, 1): Fraction(2, 5), (0, 0, 0, 1): Fraction(1, 2),
               (2,): edge, (0, 2): edge + TINY}
    full, lower = set(), set()

    def crafted_abs(poly, desc, bits, cap):
        lo = crafted.get(poly.coeffs, Fraction(50)) - q
        return lo.numerator, lo.numerator + lo.denominator, lo.denominator

    def identity(n, d, log_bits):
        (full if log_bits == bits else lower).add(Fraction(n, d))
        return n, n, d

    monkeypatch.setattr(pgn, "certified_abs_scaled", crafted_abs)
    monkeypatch.setattr(pgn, "ln_scaled", identity)
    monkeypatch.setattr(pgn, "ln_coarse", lambda n, d: (n - d, n + d, d))
    sample = successive_minima_at(q, m, half(), 2, bits=bits)
    assert [w.coeffs for w in sample.witnesses] == \
        [(1,), (0, 1), (0, 0, 1), (0, 0, 0, 1)]
    assert {edge - q, edge + TINY - q} <= lower
    assert edge - q in full
    assert edge + TINY - q not in full


def test_greedy_matches_exhaustive_small_pools():
    # oracle: j-th minimum = min over independent j-subsets of the max value
    cases = (("sqrt2m1", 1, Fraction(1), 3), ("cbrt2", 2, Fraction(3, 2), 2))
    for name, m, q, h_pool in cases:
        desc = preset(name)
        sample = successive_minima_at(q, m, desc, h_pool)
        pool = [
            P(coeffs)
            for coeffs in product(range(-h_pool, h_pool + 1), repeat=m + 1)
            if next((c for c in coeffs if c), 0) > 0
        ]
        assert len(pool) <= 200
        values = [lstar(p, q, m, desc) for p in pool]
        for j in range(1, m + 2):
            best = None
            for subset in combinations(range(len(pool)), j):
                basis = IncrementalBasis(m + 1)
                if not all(
                    basis.add(pool[i].coeff_vector(m + 1)) for i in subset
                ):
                    continue
                worst = max((values[i].lo, values[i].hi) for i in subset)
                if best is None or worst < best:
                    best = worst
            got = sample.values[j - 1]
            assert (got.lo, got.hi) == best


def test_minkowski_bound_with_derived_constant():
    desc = preset("cbrt2")
    graph = ss_graph(2, desc, 0, 2, 4, 20)
    check = minkowski_check(graph)
    assert check["certified_count"] >= 1
    c2 = sum_bound_constant(2, preset("cbrt2"))
    assert check["sup_abs_sum"] <= c2
    assert c2 <= 3 * math.log(6)
    # last value dominates, so L_3 + 2 L_2 >= sum of all three >= -C
    for sample in graph.certified_samples():
        top = float(sample.values[-1].mid)
        mid = float(sample.values[-2].mid)
        assert top + 2 * mid >= -c2 - 1e-9
    assert check["min_residual"] >= -c2 - 1e-9


@pytest.mark.parametrize("m,h_pool", ((1, 6), (2, 3), (3, 2)))
@pytest.mark.parametrize("name", STOCK_NAMES)
@pytest.mark.parametrize("graph_bits", (8, 64))
def test_manifest_figures_match_interval_reference(name, m, h_pool,
                                                   graph_bits):
    # the graph's descriptor is the one ss-graph reads its constant from;
    # at 8 bits the values are wide enough for lo and hi to round apart
    desc = preset(name)
    graph = ss_graph(m, desc, 0, 6, 6, h_pool, bits=graph_bits)
    certified = len(graph.certified_samples())
    assert 0 < certified < len(graph.samples)
    assert minkowski_check(graph) == reference_minkowski_check(graph)
    for bits in (8, 64):
        assert sum_bound_constant(m, desc, bits) == \
            reference_sum_bound_constant(m, desc, bits)
        assert sum_bound_constant(m, preset(name), bits) == \
            reference_sum_bound_constant(m, preset(name), bits)


@pytest.mark.parametrize("target", (
    {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": ["-2", "-1"]},
    {"kind": "algebraic", "minpoly": [-1, 10], "interval": ["-1/4", "1/8"]},
    {"kind": "cf", "prefix": [-3, 1, 4]},
), ids=("negative", "around-zero", "point"))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_sum_bound_constant_matches_reference_off_the_unit_interval(target, m):
    # |z| is the larger endpoint magnitude; at 1 bit the second target's
    # bracket is still [-1/4, 1/8], around 0, with the lower end larger
    for bits in (1, 8, 64):
        assert sum_bound_constant(m, descriptor_from_dict(target), bits) == \
            reference_sum_bound_constant(m, descriptor_from_dict(target), bits)


def test_minkowski_requires_certified_samples():
    sample = SSGraphSample(
        q=Fraction(1),
        values=(RationalInterval.point(Fraction(0)),),
        witnesses=(P((0, 1)),),
        certified=False,
    )
    graph = SSGraph(m=1, grid=(Fraction(1),), samples=(sample,))
    with pytest.raises(NoCertifiedSamples):
        minkowski_check(graph)


def test_sum_bound_constant_formula():
    desc = preset("sqrt2m1")
    g = float(desc.refine(96).mid)
    expected = max(math.log1p(g) + math.log(2),
                   math.log(math.factorial(2))) + math.log1p(g)
    got = sum_bound_constant(1, preset("sqrt2m1"))
    assert got == pytest.approx(expected, rel=1e-9)
    assert got >= expected  # reported constant is an upper endpoint


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(pgn, "POOL_LIMIT", 10)
    with pytest.raises(BudgetExceeded):
        successive_minima_at(Fraction(0), 2, preset("cbrt2"), 50)


@pytest.mark.parametrize("name", STOCK_NAMES)
def test_height_one_pool_spans_every_dimension(name):
    # height 1 holds T^0..T^m, and nothing is skipped before a selection
    # exists, so a pool of height 1 always yields m + 1 witnesses
    for m in range(1, 6):
        for q in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(10),
                  Fraction(50)):
            sample = successive_minima_at(q, m, preset(name), 1)
            assert len(sample.witnesses) == m + 1


def test_crossing_hand_value():
    records = (
        BestApproxRecord(k=1, poly=P((0, 1)), height=1,
                         value=RationalInterval.point(Fraction(1, 3))),
        BestApproxRecord(k=2, poly=P((-1, 3)), height=3,
                         value=RationalInterval.point(Fraction(1, 9))),
    )
    seq = BestApproxSequence(descriptor={"kind": "synthetic"}, n=1, h_max=3,
                             records=records, warnings=(), ties=(),
                             cap=4096, value_bits=64)
    points = crossing_points(seq, 1)
    assert len(points) == 1
    k, q = points[0]
    assert k == 2
    # q = (ln 3 - ln(1/3)) / 2 = ln 3
    assert q.intersects(ln_interval(3, 64))


def test_crossings_increase_on_real_chain(seq_of):
    seq = seq_of("cbrt2", 2, 100)
    points = crossing_points(seq, 2)
    qs = [q for _, q in points]
    assert len(qs) == len(seq) - 1
    for a, b in zip(qs, qs[1:]):
        assert a.strictly_below(b)


def test_crossing_defining_property(seq_of):
    # at q_k the height branch of P_k meets the value branch of P_(k-1)
    seq = seq_of("sqrt2m1", 1, 30)
    desc = preset("sqrt2m1")
    for k, q in crossing_points(seq, 1):
        a = lstar(seq.record(k - 1).poly, q.mid, 1, desc)
        b = lstar(seq.record(k).poly, q.mid, 1, desc)
        assert abs(float(a.mid) - float(b.mid)) < 1e-9


def test_transfer_formulas_synthetic():
    res = transfer_formulas(
        RationalInterval.point(Fraction(1)),
        RationalInterval.point(Fraction(-1)),
        1,
    )
    assert float(res["q_tilde"].mid) == pytest.approx(1.0)
    assert float(res["w"].mid) == pytest.approx(1.0)
    assert float(res["rhs"].mid) == pytest.approx(0.0, abs=1e-15)


def test_transfer_formulas_guards():
    one = RationalInterval.point(Fraction(1))
    with pytest.raises(ValueError):
        transfer_formulas(RationalInterval.point(Fraction(0)), -one, 1)


def test_transfer_point_single_record_tight(seq_of):
    # with one polynomial both sides reduce to (m ln H + ln|P|) / (m+1)
    seq = seq_of("cbrt2", 2, 100)
    desc = preset("cbrt2")
    rec = seq.record(len(seq))
    res = transfer_point([rec.poly], 2, desc)
    assert res["holds"]
    assert abs(float(res["lhs"].mid) - float(res["rhs"].mid)) < 1e-9


def test_transfer_point_pair(seq_of):
    seq = seq_of("cbrt2", 2, 100)
    desc = preset("cbrt2")
    polys = [seq.record(len(seq) - 1).poly, seq.record(len(seq)).poly]
    res = transfer_point(polys, 2, desc)
    assert res["holds"]
    assert res["lhs"].lo <= res["rhs"].hi + Fraction(1, 2**30)


def test_transfer_point_rejects_dependent_family():
    desc = preset("cbrt2")
    p = P((1, 1, 1))
    with pytest.raises(DependentInput):
        transfer_point([p, p * P((2,))], 2, desc)


def _stub_estimate(w, what, n=1):
    return ExponentEstimate(
        n=n, h_max=10, k0=1, window=(1, 2),
        w_lower_interval=RationalInterval.point(Fraction(w)),
        what_proxy_interval=RationalInterval.point(Fraction(what)),
        w_rows=(), u_rows=(),
    )


def test_identity_residuals_formula_wiring():
    # constant L1/q = 0 graph: residual collapses to (w+1)/m - (m+1)/m
    zero = RationalInterval.point(Fraction(0))
    samples = tuple(
        SSGraphSample(q=Fraction(q), values=(zero,), witnesses=(P((0, 1)),),
                      certified=True)
        for q in (1, 2, 3, 4)
    )
    graph = SSGraph(m=1, grid=tuple(Fraction(q) for q in (1, 2, 3, 4)),
                    samples=samples)
    res = exponent_identity_residuals(graph, _stub_estimate(3, 1),
                                      tail_from=Fraction(1))
    assert res["residual_low"] == pytest.approx(2.0)
    assert res["residual_high"] == pytest.approx(0.0)
    assert res["q_count"] == 4
    assert res["target"] == pytest.approx(2.0)
    assert res["finite_window"]


def test_identity_residuals_tail_window(seq_of):
    desc = preset("sqrt2m1")
    graph = ss_graph(1, desc, 0, 4, 8, 40)
    est = estimate_exponents(seq_of("sqrt2m1", 1, 200))
    res = exponent_identity_residuals(graph, est)
    assert res["tail_from"] == pytest.approx(2.0)
    assert res["q_count"] == sum(
        1 for s in graph.certified_samples() if s.q >= 2
    )
    recomputed = (res["psi_low"] + 1) * (est.w_lower + 1) - 2
    assert res["residual_low"] == pytest.approx(recomputed, abs=1e-9)
    with pytest.raises(NoCertifiedSamples):
        exponent_identity_residuals(graph, est, tail_from=Fraction(99))
