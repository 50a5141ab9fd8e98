import hashlib
import json
import math
import warnings
from decimal import Decimal, getcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyapprox.bestapprox import BestApproxRecord, BestApproxSequence
from polyapprox.exponents import (
    _STATEMENTS,
    CONSISTENT,
    INDETERMINATE,
    NOT_APPLICABLE,
    VIOLATED,
    ExponentEstimate,
    audit,
    bounds_table,
    classify_exact_row,
    classify_limit_row,
    dbound_interval,
    ebound_interval,
    ebound_roots,
    estimate_exponents,
    sigma_interval,
    sqrt_interval,
    theta_interval,
    wroot_below,
    wroot_interval,
)
from polyapprox.intervals import RationalInterval
from polyapprox.logs import ln_interval, ln_interval_of
from polyapprox.polynomials import IntegerPolynomial
from polyapprox.presets import STOCK_NAMES
from polyapprox.spanconds import span_dims

P = IntegerPolynomial


def test_sqrt_interval_basics():
    iv = sqrt_interval(2)
    assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
    assert iv.width <= Fraction(1, 2**90)
    assert sqrt_interval(Fraction(9, 4)).lo <= Fraction(3, 2) <= sqrt_interval(Fraction(9, 4)).hi
    assert sqrt_interval(0).lo == 0 == sqrt_interval(0).hi
    with pytest.raises(ValueError):
        sqrt_interval(-1)


def test_theta_frozen_values():
    table = {2: 2.6180, 3: 4.4142, 4: 6.3028, 5: 8.2361, 10: 18.1098}
    for n, v in table.items():
        assert abs(float(theta_interval(n)) - v) < 5e-5
    assert abs(float(theta_interval(1)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        theta_interval(0)


def test_sigma_frozen_values():
    table = {2: 2.6180, 4: 6.0, 6: 9.4051, 8: 12.8151}
    for n, v in table.items():
        assert abs(float(sigma_interval(n)) - v) < 5e-5
    # n = 4 radicand is the perfect square 25
    assert sigma_interval(4).lo <= 6 <= sigma_interval(4).hi


def _dec_sqrt(x):
    getcontext().prec = 60
    return Decimal(x).sqrt()


def test_decimal_crosscheck():
    for n in range(2, 21):
        th = (_dec_sqrt(n * n - 2 * n + 5) + 3 * n - 3) / 2
        assert abs(float(theta_interval(n)) - float(th)) < 1e-12
        sg = (_dec_sqrt(2 * n * n - 2 * n + 1) + 2 * n - 1) / 2
        assert abs(float(sigma_interval(n)) - float(sg)) < 1e-12
        t = 2 * n - 2
        rad = 4 * t * t + 17 * n * n - 16 * t * n + 8 * t - 18 * n + 5
        d = (_dec_sqrt(rad) + 2 * t - n + 1) / 2
        assert abs(float(dbound_interval(n, t)) - float(d)) < 1e-12
        rad = t * t - 4 * t * n + 8 * n * n + 2 * t - 12 * n + 5
        e = (_dec_sqrt(rad) + t + 1) / 2
        assert abs(float(ebound_interval(n, t)) - float(e)) < 1e-12


def test_bound_fixed_point_at_right_endpoint():
    # both closed forms pass through (2n-1, 2n-1)
    for n in range(2, 21):
        t = 2 * n - 1
        assert abs(float(dbound_interval(n, t)) - t) < 1e-10
        assert abs(float(ebound_interval(n, t)) - t) < 1e-10
        assert dbound_interval(n, t).lo <= t <= dbound_interval(n, t).hi
        assert ebound_interval(n, t).lo <= t <= ebound_interval(n, t).hi


def test_ebound_special_value():
    iv = ebound_interval(2, 2)
    golden = (sqrt_interval(5) + 3) / 2
    assert iv.intersects(golden)
    assert abs(float(ebound_interval(2, 2)) - 2.6180339887) < 1e-9


def test_ebound_roots_order():
    minus, plus = ebound_roots(2, 2)
    assert minus.hi < plus.lo
    assert plus == ebound_interval(2, 2)
    assert float(minus) == pytest.approx((3 - math.sqrt(5)) / 2)


def test_quadratic_residuals():
    for n in (2, 5, 11, 20):
        for t in (Fraction(n), Fraction(3 * n, 2), Fraction(2 * n - 2)):
            d = float(dbound_interval(n, t))
            rad = float(4 * t * t + 17 * n * n - 16 * t * n + 8 * t - 18 * n + 5)
            assert (2 * d - float(2 * t - n + 1)) ** 2 == pytest.approx(
                rad, rel=1e-10
            )
            e = float(ebound_interval(n, t))
            rad = float(t * t - 4 * t * n + 8 * n * n + 2 * t - 12 * n + 5)
            assert (2 * e - float(t + 1)) ** 2 == pytest.approx(rad, rel=1e-10)


def test_t_outside_its_range_is_listed_and_still_computes():
    # the closed forms compute at any t and warn about none; bounds_table
    # lists the t that lie outside [ceil(3n/2)-1, 2n-1], in ts order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(float(dbound_interval(2, 10)))
        ebound_interval(3, -7)
        dbound_interval(2, 3)
        ebound_interval(2, 2)
    ts = [2, 3, Fraction(7, 2), Fraction(3, 2)]
    assert bounds_table(2, ts).outside == (Fraction(7, 2), Fraction(3, 2))
    assert bounds_table(1, [7]).outside == ()


def test_wroot_frozen_values():
    assert abs(float(wroot_interval(4)) - 6.2875) < 5e-4
    assert abs(float(wroot_interval(5)) - 8.2010) < 5e-4
    # n = 2 root is the golden-ratio value (3+sqrt(5))/2
    assert wroot_interval(2).intersects((sqrt_interval(5) + 3) / 2)
    with pytest.raises(ValueError):
        wroot_interval(1)
    with pytest.raises(ValueError):
        wroot_interval(3, 0)


# Exact brackets of the Fraction bisection, recorded before the integer one.
WROOT_DEFAULT_TOL = {
    2: ("2745207/1048576", "343151/131072"),
    3: ("2314319/524288", "4628639/1048576"),
    4: ("3296429/524288", "6592859/1048576"),
    5: ("17198681/2097152", "34397365/4194304"),
    6: ("10630695/1048576", "1328837/131072"),
    7: ("50711695/4194304", "101423395/8388608"),
    8: ("58943599/4194304", "29471801/2097152"),
    9: ("33602981/2097152", "134411931/8388608"),
    10: ("301962753/16777216", "18872673/1048576"),
    11: ("83792325/4194304", "670338617/33554432"),
    12: ("736856389/33554432", "92107051/4194304"),
}
WROOT_TOL_2_POW_MINUS_40 = {
    2: ("2878558812543/1099511627776", "22488740723/8589934592"),
    3: ("4853479139315/1099511627776", "1213369784829/274877906944"),
    4: ("6913113518161/1099511627776", "3456556759081/549755813888"),
    5: ("4508531135417/549755813888", "36068249083339/4398046511104"),
    6: ("11147092342729/1099511627776", "5573546171365/549755813888"),
}


def test_wroot_interval_endpoints_pinned():
    for n, (lo, hi) in WROOT_DEFAULT_TOL.items():
        iv = wroot_interval(n)
        assert (str(iv.lo), str(iv.hi)) == (lo, hi)
    for n, (lo, hi) in WROOT_TOL_2_POW_MINUS_40.items():
        iv = wroot_interval(n, Fraction(1, 2**40))
        assert (str(iv.lo), str(iv.hi)) == (lo, hi)


@pytest.mark.parametrize("call", (
    lambda: sqrt_interval(2.0),
    lambda: dbound_interval(4, 5.0),
    lambda: ebound_interval(4, 5.0),
    lambda: ebound_roots(4, 5.0),
    lambda: wroot_interval(2, 1e-6),
    lambda: wroot_below(4, 6.5),
), ids=("sqrt_interval", "dbound_interval", "ebound_interval", "ebound_roots",
        "wroot_interval", "wroot_below"))
def test_closed_forms_reject_floats(call):
    with pytest.raises(TypeError, match="float"):
        call()


def test_wroot_inside_open_interval():
    for n in (2, 3, 7, 12):
        iv = wroot_interval(n)
        assert n < float(iv.lo) and float(iv.hi) < 2 * n - 1


def test_wroot_crosses_2n_minus_2_at_ten():
    for n in range(2, 41):
        assert wroot_below(n, Fraction(2 * n - 2)) == (n >= 10)
    # the exact decision gives the cap max(2n-2, w(n)) of the interval max
    point = RationalInterval.point
    for n in range(2, 301):
        assert bounds_table(n, ()).maxroot_cap == (
            wroot_interval(n).max_with(point(Fraction(2 * n - 2))))


def test_wroot_gap_bounded_and_monotone():
    ns = [10, 11, 14, 20, 35, 60, 100]
    gaps = []
    for n in ns:
        iv = wroot_interval(n, Fraction(1, 10**8))
        lo = 2 * n - iv.hi
        hi = 2 * n - iv.lo
        assert lo > 0
        assert hi < Fraction(22565, 10000)
        gaps.append((lo, hi))
    for (_, prev_hi), (cur_lo, _) in zip(gaps, gaps[1:]):
        assert cur_lo > prev_hi


def test_bounds_table_shape():
    bt = bounds_table(2)
    assert float(bt.theta) == pytest.approx(float(theta_interval(2)))
    assert float(bt.w_of_n) == pytest.approx(float(wroot_interval(2)), abs=1e-9)
    assert bt.maxroot_cap == bt.w_of_n  # w(2) > 2n-2 = 2
    d_at = {t: float(d) for t, d, _ in bt.t_rows}
    e_at = {t: float(e) for t, _, e in bt.t_rows}
    assert d_at[3] == pytest.approx(3.0, abs=1e-9)
    assert e_at[3] == pytest.approx(3.0, abs=1e-9)
    assert bt.outside == ()

    assert float(bounds_table(10).maxroot_cap) == 18.0  # w(10) < 2n-2

    degenerate = bounds_table(1)
    assert degenerate.w_of_n is None
    assert degenerate.maxroot_cap is None
    assert degenerate.t_rows == ()

    custom = bounds_table(3, ts=[Fraction(7, 2)])
    assert [t for t, _, _ in custom.t_rows] == [Fraction(7, 2)]


def _synthetic_chain():
    records = (
        BestApproxRecord(k=1, poly=P((0, 1)), height=1,
                         value=RationalInterval.point(Fraction(1, 2))),
        BestApproxRecord(k=2, poly=P((-1, 2)), height=2,
                         value=RationalInterval.point(Fraction(1, 8))),
        BestApproxRecord(k=3, poly=P((-1, 4)), height=4,
                         value=RationalInterval.point(Fraction(1, 32))),
    )
    return BestApproxSequence(descriptor={"kind": "synthetic"}, n=1, h_max=4,
                              records=records, warnings=(), ties=(),
                              cap=4096, value_bits=64)


def test_estimate_on_synthetic_chain():
    est = estimate_exponents(_synthetic_chain())
    # height-1 record is skipped; max(ln 8/ln 2, ln 32/ln 4) = 3
    assert est.w_lower == pytest.approx(3.0, abs=1e-12)
    assert [r.k for r in est.w_rows] == [2, 3]
    # min(ln 2/ln 2, ln 8/ln 4) = 1
    assert est.what_proxy == pytest.approx(1.0, abs=1e-12)
    assert est.window == (1, 3)
    assert est.to_dict()["finite_horizon"] is True

    shifted = estimate_exponents(_synthetic_chain(), k0=2)
    assert shifted.what_proxy == pytest.approx(1.5, abs=1e-12)


def test_estimate_guards():
    empty = BestApproxSequence(descriptor={"kind": "synthetic"}, n=1, h_max=1,
                               records=(), warnings=(), ties=(),
                               cap=4096, value_bits=64)
    with pytest.raises(ValueError):
        estimate_exponents(empty)
    with pytest.raises(ValueError):
        estimate_exponents(_synthetic_chain(), k0=0)


def _two_loop_statistics(seq, k0):
    """Reference: w and u as two separate loops, each taking its own logs
    of the values and heights at 64 bits."""
    w_rows, w_acc = [], None
    for rec in seq.records:
        if rec.height < 2:
            continue
        num = -ln_interval_of(rec.value, 64)
        den = ln_interval(Fraction(rec.height), 64)
        ratio = num.div_by_positive(den)
        w_rows.append((rec.k, rec.height, None, ratio.lo, ratio.hi))
        w_acc = ratio if w_acc is None else w_acc.max_with(ratio)
    u_rows, u_acc = [], None
    records = seq.records
    for i in range(len(records) - 1):
        rec, nxt = records[i], records[i + 1]
        if nxt.height < 2:
            continue
        num = -ln_interval_of(rec.value, 64)
        den = ln_interval(Fraction(nxt.height), 64)
        ratio = num.div_by_positive(den)
        u_rows.append((rec.k, rec.height, nxt.height, ratio.lo, ratio.hi))
        if rec.k >= k0:
            u_acc = ratio if u_acc is None else u_acc.min_with(ratio)
    return w_rows, w_acc, u_rows, u_acc


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(STOCK_NAMES), n=st.integers(1, 3),
       h_max=st.integers(1, 60), data=st.data())
def test_one_pass_matches_two_loops(seq_of, name, n, h_max, data):
    seq = seq_of(name, n, h_max)
    k0 = data.draw(st.integers(1, len(seq.records) + 1), label="k0")
    est = estimate_exponents(seq, k0=k0)
    w_rows, w_acc, u_rows, u_acc = _two_loop_statistics(seq, k0)

    def rows(found):
        return [(r.k, r.height, r.next_height, r.ratio.lo, r.ratio.hi)
                for r in found]

    assert rows(est.w_rows) == w_rows
    assert rows(est.u_rows) == u_rows
    assert est.w_lower_interval == w_acc
    assert est.what_proxy_interval == u_acc
    assert est.w_lower == (None if w_acc is None else float(w_acc.lo))
    assert est.what_proxy == (None if u_acc is None else float(u_acc.hi))
    assert est.window == (k0, len(seq.records))


def test_classify_limit_row_branches():
    point = RationalInterval.point
    assert classify_limit_row(None, point(Fraction(1)))[0] == NOT_APPLICABLE
    assert classify_limit_row(point(Fraction(1)), point(Fraction(2)))[0] == CONSISTENT
    status, note = classify_limit_row(point(Fraction(3)), point(Fraction(2)))
    assert status == INDETERMINATE and "not a certified violation" in note
    wide = RationalInterval(Fraction(1), Fraction(3))
    assert classify_limit_row(wide, point(Fraction(2)))[0] == INDETERMINATE
    assert classify_limit_row(point(Fraction(3)), point(Fraction(2)), "ge")[0] == CONSISTENT
    status, note = classify_limit_row(point(Fraction(1)), point(Fraction(2)), "ge")
    assert status == INDETERMINATE and "below" in note
    with pytest.raises(ValueError):
        classify_limit_row(point(Fraction(1)), point(Fraction(2)), "eq")


def test_classify_exact_row_branches():
    point = RationalInterval.point
    assert classify_exact_row(point(Fraction(1)), point(Fraction(2)))[0] == CONSISTENT
    assert classify_exact_row(point(Fraction(3)), point(Fraction(2)))[0] == VIOLATED
    wide = RationalInterval(Fraction(1), Fraction(3))
    assert classify_exact_row(wide, point(Fraction(2)))[0] == INDETERMINATE
    assert classify_exact_row(point(Fraction(1)), point(Fraction(1)))[0] == VIOLATED
    assert classify_exact_row(point(Fraction(1)), point(Fraction(2)))[0] == CONSISTENT


def _stub(n, w, what, h_max=100):
    def mk(x):
        if x is None:
            return None
        if isinstance(x, tuple):
            return RationalInterval(Fraction(x[0]), Fraction(x[1]))
        return RationalInterval.point(Fraction(x))

    return ExponentEstimate(
        n=n, h_max=h_max, k0=1, window=(1, 5),
        w_lower_interval=mk(w), what_proxy_interval=mk(what),
        w_rows=(), u_rows=(),
    )


def _names(report):
    return [r.name for r in report.rows]


def _row(report, name):
    return next(r for r in report.rows if r.name == name)


def test_audit_basic_report():
    report = audit(_stub(1, 3, Fraction(6, 5)))
    names = _names(report)
    assert names[0] == "theta-floor"
    assert "sigma-ceiling" in names
    assert "exponent-chain" in names
    assert not report.has_violation
    assert _row(report, "theta-floor").status == CONSISTENT
    assert _row(report, "sigma-ceiling").status == CONSISTENT
    assert _row(report, "exponent-chain").status == CONSISTENT
    assert _row(report, "degree-monotone").status == NOT_APPLICABLE
    # at n = 1 the caps equal the universal value, so the proxy exceeds them
    cap = _row(report, "theta-cap")
    assert cap.status == INDETERMINATE
    assert "degenerate at n=1" in cap.note
    assert _row(report, "excess-ratio-floor").status == NOT_APPLICABLE
    assert "even n" in _row(report, "excess-ratio-floor").note
    text = report.to_text()
    assert "audit n=1" in text and "theta-floor" in text
    assert report.to_dict()["rows"][0]["name"] == "theta-floor"


def test_audit_chain_artifact_note():
    # proxy below n is flagged as a horizon artifact, not a violation
    report = audit(_stub(2, 3, Fraction(3, 2)))
    row = _row(report, "exponent-chain")
    assert row.status == CONSISTENT
    assert "artifact" in row.note
    assert not report.has_violation


def test_audit_algebraic_small_degree_gates():
    report = audit(_stub(2, 1, 1), algebraic_degree=2)
    assert _row(report, "exponent-chain").status == NOT_APPLICABLE
    assert _row(report, "theta-cap").status == NOT_APPLICABLE
    assert "transcendental" in _row(report, "theta-cap").note
    target = _row(report, "algebraic-target")
    assert target.status == INDETERMINATE
    assert target.values["target"] == "1"
    assert "pair-minimum-cap" not in _names(report)


def test_audit_degree_monotone_violation():
    report = audit(_stub(2, 2, 2), est_prev=_stub(1, 3, 1))
    row = _row(report, "degree-monotone")
    assert row.status == VIOLATED
    assert report.has_violation


def test_audit_degree_monotone_consistent():
    report = audit(_stub(2, 3, 2), est_prev=_stub(1, Fraction(5, 2), 1))
    assert _row(report, "degree-monotone").status == CONSISTENT


def test_audit_power_gap_equality_branch():
    band = (Fraction(19, 10), Fraction(21, 10))
    report = audit(_stub(2, band, band))
    row = _row(report, "power-gap-floor")
    assert row.status == CONSISTENT
    assert "equality branch" in row.note


def test_audit_power_gap_generic_branch():
    report = audit(_stub(2, 5, 2))
    row = _row(report, "power-gap-floor")
    # (5/2)^2 = 6.25 >= 5 - 2 + 1 = 4
    assert row.status == CONSISTENT
    assert "equality branch" not in row.note


def test_audit_span_rows():
    span = SimpleNamespace(psi_hat=2, psi_tilde_hat=Fraction(2))
    report = audit(_stub(2, 3, 2), span=span)
    assert _row(report, "psi-range").status == CONSISTENT
    assert _row(report, "d-bound-window").status == CONSISTENT
    assert _row(report, "e-bound-window").status == CONSISTENT
    assert "even-span-cap" not in _names(report)  # needs n >= 4

    bad = SimpleNamespace(psi_hat=5, psi_tilde_hat=None)
    report = audit(_stub(2, 3, 2), span=bad)
    assert _row(report, "psi-range").status == VIOLATED
    assert report.has_violation
    assert "d-bound-window" not in _names(report)

    unsettled = SimpleNamespace(psi_hat=None, psi_tilde_hat=None)
    report = audit(_stub(2, 3, 2), span=unsettled)
    row = _row(report, "psi-range")
    assert row.status == NOT_APPLICABLE
    assert "threshold" in row.note
    assert not report.has_violation
    assert "e-bound-window" not in _names(report)


def test_audit_even_span_cap_gating():
    witnessed = SimpleNamespace(psi_hat=5, psi_tilde_hat=Fraction(5))
    report = audit(_stub(4, 7, 5), span=witnessed)
    row = _row(report, "even-span-cap")
    assert row.status == CONSISTENT  # what = 5 <= 2n-2 = 6

    absent = SimpleNamespace(psi_hat=6, psi_tilde_hat=Fraction(6))
    report = audit(_stub(4, 7, 5), span=absent)
    row = _row(report, "even-span-cap")
    assert row.status == NOT_APPLICABLE
    assert "absent" in row.note


def test_audit_excess_ratio_floor_gates():
    # span witnessed and proxy above 3n/2 - 1 = 2: gate met
    span = SimpleNamespace(psi_hat=2, psi_tilde_hat=Fraction(2))
    report = audit(_stub(2, 6, Fraction(5, 2)), span=span)
    row = _row(report, "excess-ratio-floor")
    assert row.status in (CONSISTENT, INDETERMINATE)
    assert row.values.get("lhs") is not None

    # proxy at 2 exactly: strict gate not met
    report = audit(_stub(2, 6, 2), span=span)
    assert _row(report, "excess-ratio-floor").status == NOT_APPLICABLE


def test_audit_steep_ratio_floor_gate():
    report = audit(_stub(2, 9, Fraction(5, 2)))
    row = _row(report, "steep-ratio-floor")
    # lhs = 9/2.5 = 3.6, rhs = 2.5 - 1 = 1.5
    assert row.status == CONSISTENT

    report = audit(_stub(2, 9, 2))
    assert _row(report, "steep-ratio-floor").status == NOT_APPLICABLE


def test_audit_ratio_transfer_gate():
    prev = _stub(1, 2, 1)
    report = audit(_stub(2, 3, Fraction(5, 2)), est_prev=prev)
    row = _row(report, "ratio-transfer-cap")
    # lhs = 2.5, rhs = 2 + 2.5/3 = 2.83..
    assert row.status == CONSISTENT

    report = audit(_stub(2, 2, Fraction(5, 2)), est_prev=prev)
    assert _row(report, "ratio-transfer-cap").status == NOT_APPLICABLE


def test_audit_sigma_cap_needs_both_gates():
    span = SimpleNamespace(psi_hat=2, psi_tilde_hat=Fraction(2))
    prev = _stub(1, 2, 1)
    report = audit(_stub(2, 3, Fraction(5, 2)), span=span, est_prev=prev)
    assert _row(report, "sigma-cap").status == CONSISTENT

    report = audit(_stub(2, 3, Fraction(5, 2)), span=span)
    assert _row(report, "sigma-cap").status == NOT_APPLICABLE


def test_audit_handles_missing_statistics():
    report = audit(_stub(2, None, None))
    assert _row(report, "exponent-chain").status == INDETERMINATE
    assert _row(report, "theta-cap").status == NOT_APPLICABLE
    assert "power-gap-floor" not in _names(report)
    assert not report.has_violation


def test_audit_growth_gate_without_proxy():
    # w grew with the degree bound, but too few records for the proxy
    report = audit(_stub(2, 3, None), est_prev=_stub(1, 1, 1))
    row = _row(report, "ratio-transfer-cap")
    assert row.status == NOT_APPLICABLE
    assert row.note.startswith("gate w_n > w_{n-1} not certifiable")
    assert _row(report, "sigma-cap").note == "no span scan supplied"


AUDIT_BYTES_SHA256 = "a93f048dd214b02688296f999e221273e998464541331c7a39b4ead66f70e960"


def test_audit_bytes_pinned():
    # sha256 of to_text() and to_dict() over a stub matrix that reaches
    # every row and every branch note of the audit
    digest = hashlib.sha256()
    order = list(_STATEMENTS)
    seen = set()
    for n in range(1, 5):
        band = (n - Fraction(1, 10), n + Fraction(1, 10))
        pairs = (
            (None, None),
            (band, band),
            (3 * n, Fraction(3 * n, 2)),
            (4 * n, Fraction(4 * n - 3, 2)),
            (n, 2 * n + 1),
            (Fraction(n, 2), n),
        )
        dims = span_dims(n)
        spans = (
            None,
            SimpleNamespace(psi_hat=None, psi_tilde_hat=None),
            SimpleNamespace(psi_hat=dims.start, psi_tilde_hat=Fraction(dims.start)),
            SimpleNamespace(psi_hat=dims.stop + 1,
                            psi_tilde_hat=Fraction(dims.stop + 1)),
        )
        prevs = (None, _stub(n - 1, None, None), _stub(n - 1, 1, 1),
                 _stub(n - 1, 8 * n, 1))
        for w, what in pairs:
            est = _stub(n, w, what)
            for span in spans:
                for prev in prevs:
                    for degree in (None, 2, n + 1):
                        report = audit(est, span=span, est_prev=prev,
                                       algebraic_degree=degree)
                        digest.update(report.to_text().encode() + b"\n")
                        digest.update(json.dumps(report.to_dict()).encode() + b"\n")
                        names = _names(report)
                        ranks = [order.index(name) for name in names]
                        assert ranks == sorted(ranks)
                        seen.update(names)
    assert seen == set(order)
    assert digest.hexdigest() == AUDIT_BYTES_SHA256
