import random
from fractions import Fraction

import pytest

from polyapprox.bestapprox import BestApproxRecord, BestApproxSequence
from polyapprox.errors import EmptyWindow, IndexOutOfRange, OddN
from polyapprox.intervals import RationalInterval
from polyapprox.polynomials import IntegerPolynomial
from polyapprox.spanconds import (
    GluedTriple,
    build_lambda,
    pair_span_check,
    phi,
    psi_estimate,
    span_rank,
    triple_from_records,
    triple_span_check,
)

P = IntegerPolynomial


def fake_sequence(n, polys):
    """Record chain with synthetic metadata; only polys matter here."""
    records = tuple(
        BestApproxRecord(
            k=i + 1,
            poly=p,
            height=i + 1,
            value=RationalInterval.point(Fraction(1, 10 ** (i + 1))),
        )
        for i, p in enumerate(polys)
    )
    return BestApproxSequence(
        descriptor={"kind": "synthetic"},
        n=n,
        h_max=len(polys),
        records=records,
        warnings=(),
        ties=(),
        cap=4096,
        value_bits=64,
    )


def random_degree_n_poly(rng, n, span=9):
    coeffs = [rng.randint(-span, span) for _ in range(n)]
    lead = rng.choice([c for c in range(-span, span + 1) if c != 0])
    return P(tuple(coeffs + [lead]))


def test_glued_triple_shape():
    t = GluedTriple(2, (P((1,)), P((0, 1)), P((0, 0, 1))))
    assert [b.coeffs for b in t.blocks] == [(1,), (0, 1), (0, 0, 1)]
    with pytest.raises(ValueError):
        GluedTriple(2, (P((1,)), P((0, 1))))
    with pytest.raises(ValueError):
        GluedTriple(1, (P((0, 0, 1)), P((1,)), P((1,))))
    with pytest.raises(ValueError):
        GluedTriple(0, (P((1,)), P((1,)), P((1,))))


def test_lambda_identity_triple():
    t = GluedTriple(2, (P((1,)), P((0, 1)), P((0, 0, 1))))
    m = build_lambda(t)
    assert m == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert phi(t) == 1


def test_lambda2_det_equals_raw_det():
    rng = random.Random(88)
    for _ in range(50):
        polys = [random_degree_n_poly(rng, 2) for _ in range(3)]
        t = GluedTriple(2, tuple(polys))
        m = build_lambda(t)
        cols = [p.coeff_vector(3) for p in polys]
        raw = [
            [cols[c][r] for c in range(3)] for r in range(3)
        ]
        from polyapprox.exactlinalg import det_bareiss

        assert phi(t) == det_bareiss(raw)
        assert len(m) == 3


def test_lambda4_layout_frozen():
    t = GluedTriple(
        4, (P((1, 2, 3, 4, 5)), P((6, 7, 8, 9, 10)), P((11, 12, 13, 14, 15)))
    )
    m = build_lambda(t)
    assert m == (
        (1, 0, 6, 0, 11, 0),
        (2, 1, 7, 6, 12, 11),
        (3, 2, 8, 7, 13, 12),
        (4, 3, 9, 8, 14, 13),
        (5, 4, 10, 9, 15, 14),
        (0, 5, 0, 10, 0, 15),
    )


def test_lambda6_columns_are_cyclic_shifts():
    rng = random.Random(616)
    polys = [random_degree_n_poly(rng, 6) for _ in range(3)]
    t = GluedTriple(6, tuple(polys))
    m = build_lambda(t)
    size, half = len(m), 3
    for c in range(size):
        block_first = tuple(row[(c // half) * half] for row in m)
        shift = c % half
        expected = tuple(
            block_first[(r - shift) % size] for r in range(size)
        )
        assert tuple(row[c] for row in m) == expected


def test_odd_n_rejected():
    t = GluedTriple(3, (P((1,)), P((0, 1)), P((0, 0, 1))))
    with pytest.raises(OddN):
        build_lambda(t)
    with pytest.raises(OddN):
        triple_span_check(t)


def test_three_conditions_agree_on_random_triples():
    rng = random.Random(2024)
    seen_zero = 0
    for n in (2, 4, 6):
        for _ in range(60):
            polys = [random_degree_n_poly(rng, n, span=5) for _ in range(3)]
            res = triple_span_check(GluedTriple(n, tuple(polys)))
            assert res["phi_nonzero"] == res["span_full"]
            assert res["span_full"] == res["kernel_trivial"]
            if not res["phi_nonzero"]:
                seen_zero += 1
    assert seen_zero >= 0  # zero determinants are rare but allowed


def test_planted_dependency_yields_exact_witness():
    rng = random.Random(321)
    for n in (2, 4):
        prev = random_degree_n_poly(rng, n)
        cur = random_degree_n_poly(rng, n)
        nxt = prev + cur
        res = triple_span_check(GluedTriple(n, (prev, cur, nxt)))
        assert not res["phi_nonzero"]
        assert not res["span_full"]
        assert not res["kernel_trivial"]
        a, b, c = res["witness"]
        combo = a * prev + b * cur + c * nxt
        assert combo.is_zero()
        assert any(not p.is_zero() for p in (a, b, c))


def test_span_rank_monotone_and_bounded(seq_of):
    seq = seq_of("cbrt2", 2, 100)
    for k in range(2, len(seq)):
        ranks = [span_rank(seq, k, m) for m in (2, 3)]
        assert ranks == sorted(ranks)
        for m, rank in zip((2, 3), ranks):
            assert rank <= m + 1
    with pytest.raises(ValueError):
        span_rank(seq, 2, 1)
    with pytest.raises(ValueError):
        span_rank(seq, 2, 4)


def test_triple_from_records_window(seq_of):
    seq = seq_of("cbrt2", 2, 100)
    with pytest.raises(IndexOutOfRange):
        triple_from_records(seq, 1)
    with pytest.raises(IndexOutOfRange):
        triple_from_records(seq, len(seq))
    t = triple_from_records(seq, 2)
    assert t.n == 2
    assert t.blocks == tuple(seq.record(i).poly for i in (1, 2, 3))


def test_psi_estimate_minimal_example():
    seq = fake_sequence(2, [P((1,)), P((0, 1)), P((0, 0, 1))])
    est = psi_estimate(seq, threshold=1)
    assert est.psi_hat == 2
    assert est.psi_tilde_hat == 2
    assert est.window == (2, 2)
    assert est.per_m[2] == (2,)


def test_psi_estimate_threshold_semantics():
    seq = fake_sequence(2, [P((1,)), P((0, 1)), P((0, 0, 1))])
    est = psi_estimate(seq, threshold=2)
    assert est.psi_hat is None
    with pytest.raises(ValueError):
        psi_estimate(seq, threshold=0)


def test_psi_estimate_empty_window():
    seq = fake_sequence(2, [P((1,)), P((0, 1))])
    with pytest.raises(EmptyWindow):
        psi_estimate(seq)


def test_psi_estimate_range_invariant(seq_of):
    for name in ("cbrt2", "liouville2fact"):
        seq = seq_of(name, 2, 100)
        est = psi_estimate(seq, threshold=1)
        assert est.psi_hat is not None
        assert 2 <= est.psi_hat <= 3
        d = est.to_dict()
        assert d["finite_window"] is True


def test_pair_span_check_bounds(seq_of):
    seq = seq_of("cbrt2", 2, 100)
    for k in range(2, len(seq) + 1):
        for m in (2, 3):
            res = pair_span_check(seq, k, m)
            assert res["bound_generic"]
            assert res["bound_coprime"]
    with pytest.raises(IndexOutOfRange):
        pair_span_check(seq, 1, 2)


def test_pair_span_simple_example():
    seq = fake_sequence(2, [P((1,)), P((0, 1)), P((0, 0, 1))])
    res = pair_span_check(seq, 2, 2)
    assert res["rank"] == 3
    assert res["coprime"]


def test_pair_span_shared_factor_is_tight():
    # factor of degree n-1 forces rank exactly m-n+2
    shared = P((-1, 1))
    seq = fake_sequence(
        2, [shared * P((0, 1)), shared * P((1, 1)), P((0, 0, 1))]
    )
    for m in (2, 3):
        res = pair_span_check(seq, 2, m)
        assert res["rank"] == m
        assert res["bound_generic"]
        assert not res["coprime"]


def test_coprime_pair_full_rank_at_top_dimension():
    seq = fake_sequence(2, [P((-2, 0, 1)), P((-3, 0, 1)), P((0, 0, 1))])
    res = pair_span_check(seq, 2, 3)
    assert res["coprime"]
    assert res["rank"] == 4
