"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single ``ACCEPTANCE nn PASS/FAIL`` line (visible with
``pytest -rA`` or ``-s``) and then asserts, so the -v listing doubles as
the acceptance checklist.  A07 checks the cube root of 2 at n=2 over
a height ladder: the record chains nest (each is a prefix of the
longest); ``w_lower``, a running max over records of height >= 2, is
pinned at every horizon by the height-2 record (T-1)^2; and the
windowed uniform proxy ``what_proxy`` (at k0=1 and k0=2) lies in the
degree band [1.5, 2.0] around the target min(d-1, n) = 2 and never
rises as the horizon grows.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from polyapprox.cli import main
from polyapprox.exactlinalg import IncrementalBasis
from polyapprox.exponents import (
    VIOLATED,
    audit,
    bounds_table,
    dbound_interval,
    ebound_interval,
    estimate_exponents,
    sigma_interval,
    theta_interval,
    wroot_below,
    wroot_interval,
)
from polyapprox.pgn import (
    crossing_points,
    lstar,
    minkowski_check,
    ss_graph,
    successive_minima_at,
    sum_bound_constant,
)
from polyapprox.polynomials import IntegerPolynomial
from polyapprox.presets import STOCK_NAMES, preset
from polyapprox.spanconds import (
    GluedTriple,
    build_lambda,
    pair_span_check,
    phi,
    psi_estimate,
    triple_from_records,
    triple_span_check,
)
from references import oracle_best_approx

SPAN_SCALES = ((2, 400), (3, 60), (4, 25))


def verdict(num, flag, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if flag else 'FAIL'} - {detail}")
    return flag


def test_a01_bound_values_four_decimals():
    stated_theta = {2: 2.6180, 3: 4.4142, 4: 6.3028, 5: 8.2361, 10: 18.1098}
    stated_sigma = {2: 2.6180, 4: 6.0, 6: 9.4051, 8: 12.8150}
    t0 = time.perf_counter()
    tables = {n: bounds_table(n)
              for n in sorted(set(stated_theta) | set(stated_sigma))}
    elapsed = time.perf_counter() - t0
    # reference digits mix rounded and truncated displays, so allow one
    # unit in the fourth decimal place
    errs = {}
    for n, want in stated_theta.items():
        errs[f"theta({n})"] = abs(float(tables[n].theta) - want)
    for n, want in stated_sigma.items():
        errs[f"sigma({n})"] = abs(float(tables[n].sigma) - want)
    worst = max(errs, key=errs.get)
    flag = all(e < 1e-4 for e in errs.values()) and elapsed < 1.0
    assert verdict(1, flag,
                   f"9 table values, worst |err| {errs[worst]:.2e} at "
                   f"{worst}, built in {elapsed:.3f}s"), (errs, elapsed)


def test_a02_interior_root_solver():
    tol = Fraction(1, 10**7)
    w4 = wroot_interval(4, tol)
    w5 = wroot_interval(5, tol)
    near = (abs(float(w4.mid) - 6.2875) <= 5e-4
            and abs(float(w5.mid) - 8.2010) <= 5e-4)

    below = all(wroot_below(n, 2 * n - 2) == (n >= 10) for n in range(2, 41))

    cap = Fraction(22565, 10**4)
    gaps = {}
    for n in range(10, 101):
        iv = wroot_interval(n, Fraction(1, 10**9))
        gaps[n] = (2 * n - iv.hi, 2 * n - iv.lo)
    in_band = all(lo > 0 and hi < cap for lo, hi in gaps.values())
    monotone = all(gaps[n][1] < gaps[n + 1][0] for n in range(10, 100))

    flag = near and below and in_band and monotone
    assert verdict(2, flag,
                   f"w(4)={float(w4.mid):.4f} w(5)={float(w5.mid):.4f}; "
                   f"2n-2 crossover at n=10 over [2,40]; gap in "
                   f"(0, 2.2565) and increasing on [10,100]"), (
        near, below, in_band, monotone)


def test_a03_closed_form_identities():
    tol = 1e-10
    bad = []
    for n in range(2, 21):
        if abs(float(dbound_interval(n, 2 * n - 1)) - (2 * n - 1)) >= tol:
            bad.append(("D", n, 2 * n - 1))
        if abs(float(ebound_interval(n, 2 * n - 1)) - (2 * n - 1)) >= tol:
            bad.append(("E", n, 2 * n - 1))
        if abs(float(dbound_interval(n, 2 * n - 2))
               - float(theta_interval(n))) >= tol:
            bad.append(("D=theta", n, 2 * n - 2))
        if n % 2 == 0 and abs(float(dbound_interval(n, 3 * n // 2 - 1))
                              - float(sigma_interval(n))) >= tol:
            bad.append(("D=sigma", n, 3 * n // 2 - 1))
    if abs(float(ebound_interval(2, 2)) - (3 + math.sqrt(5)) / 2) >= tol:
        bad.append(("E2(2)", 2, 2))
    assert verdict(3, not bad,
                   f"fixed points, theta and sigma reductions for n=2..20 "
                   f"and E_2(2)=(3+sqrt5)/2, all within {tol}"), bad


def test_a04_engine_matches_reference_search(seq_of):
    t0 = time.perf_counter()
    mismatches = []
    cells = 0
    for name in STOCK_NAMES:
        for n in (1, 2, 3):
            for h_max in (10, 25, 40):
                cells += 1
                fast = seq_of(name, n, h_max)
                slow = oracle_best_approx(preset(name), n, h_max)
                key = lambda s: [(r.height, tuple(r.poly.coeff_vector(n + 1)))
                                 for r in s.records]
                if key(fast) != key(slow):
                    mismatches.append((name, n, h_max))
    elapsed = time.perf_counter() - t0
    flag = not mismatches and elapsed < 300
    assert verdict(4, flag,
                   f"{cells} cells (5 numbers x n=1..3 x H=10/25/40) "
                   f"identical in {elapsed:.1f}s"), (mismatches, elapsed)


def _sqrt2_cf_convergents(q_cap):
    """Convergents of sqrt(2)-1 from the periodic square root algorithm."""
    m, d, a = 0, 1, 1
    digits = [0]
    while True:
        m = d * a - m
        d = (2 - m * m) // d
        a = (1 + m) // d
        digits.append(a)
        if len(digits) > 30:
            break
    p_prev, p = 1, digits[0]
    q_prev, q = 0, 1
    out = [(p, q)]
    for a in digits[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if q > q_cap:
            break
        out.append((p, q))
    return out


def test_a05_degree_one_records_are_convergents(seq_of):
    convergents = _sqrt2_cf_convergents(30)
    assert convergents == [(0, 1), (1, 2), (2, 5), (5, 12), (12, 29)]
    want = [(-p, q) for p, q in convergents]
    seq = seq_of("sqrt2m1", 1, 30)
    got = [tuple(r.poly.coeff_vector(2)) for r in seq.records]
    assert verdict(5, got == want,
                   f"records at H<=30 are qT-p for the 5 continued "
                   f"fraction convergents of sqrt(2)-1"), (got, want)


def test_a06_fast_approximable_number_detected(seq_of):
    seq = seq_of("liouville2fact", 1, 1000)
    est = estimate_exponents(seq)
    hits = [r for r in seq.records
            if tuple(r.poly.coeff_vector(2)) == (-49, 64)]
    size = hits[0].value.abs() if hits else None
    sized = (size is not None
             and size.lo > Fraction(1, 2**19)
             and size.hi < Fraction(1, 2**17))
    flag = est.w_lower >= 3 - 1e-9 and bool(hits) and sized
    assert verdict(6, flag,
                   f"w_lower={est.w_lower:.6f} >= 3 via the 64T-49 record "
                   f"(|value| ~ 2^-18)"), (est.w_lower, bool(hits), sized)


def test_a07_cube_root_window_targets_degree(seq_of):
    ladder = (200, 400, 700, 1000)
    band = (Fraction(3, 2), Fraction(2))
    pin_coeffs = (1, -2, 1)
    seqs = [seq_of("cbrt2", 2, h) for h in ladder]
    chain = lambda s: [(r.height, tuple(r.poly.coeff_vector(3)))
                       for r in s.records]
    top = chain(seqs[-1])
    nested = all(chain(s) == top[:len(s.records)] for s in seqs)

    # w_lower is a running max over records of height >= 2, so the
    # height-2 record (T-1)^2 pins it at every horizon
    ests = [estimate_exponents(s) for s in seqs]
    pinned = []
    for s, e in zip(seqs, ests):
        ks = {r.k for r in s.records if r.height == 2
              and tuple(r.poly.coeff_vector(3)) == pin_coeffs}
        pin = [row.ratio for row in e.w_rows if row.k in ks]
        pinned.append(len(pin) == 1 and e.w_lower_interval == pin[0])
    lows = [e.w_lower_interval for e in ests]
    pin_ok = (all(pinned)
              and all(a.lo <= b.lo and a.hi <= b.hi
                      for a, b in zip(lows, lows[1:]))
              and all(e.w_lower_interval.hi >= e.what_proxy_interval.lo
                      for e in ests))

    # the degree band applies to the windowed uniform proxy; k0=2 drops
    # the height-1 record T-1, as w_lower's height >= 2 rule does
    proxies = {1: [e.what_proxy_interval for e in ests],
               2: [estimate_exponents(s, k0=2).what_proxy_interval
                   for s in seqs]}
    in_band = all(band[0] <= iv.lo and iv.hi <= band[1]
                  for ivs in proxies.values() for iv in ivs)
    # a running min over a growing set of rows never rises
    falling = all(a.lo >= b.lo and a.hi >= b.hi
                  for ivs in proxies.values() for a, b in zip(ivs, ivs[1:]))

    flag = nested and pin_ok and in_band and falling
    shown = {k0: [f"{float(iv.hi):.4f}" for iv in ivs]
             for k0, ivs in proxies.items()}
    assert verdict(
        7, flag,
        f"cbrt2 n=2 over H={ladder}: chains nest; w_lower pinned at "
        f"{float(lows[-1].lo):.4f} by the height-2 record (T-1)^2; "
        f"what_proxy k0=1 {shown[1]}, k0=2 {shown[2]} in band "
        f"[{float(band[0])}, {float(band[1])}] and non-increasing"), (
        nested, pinned, pin_ok, in_band, falling, shown)


def _blocks(h, n):
    """h cut into three polynomials of n + 1 coefficients each."""
    return tuple(IntegerPolynomial(h[i * (n + 1):(i + 1) * (n + 1)])
                 for i in range(3))


def test_a08_equivalent_span_routes_agree():
    rng = random.Random(50331653)
    exceptions = 0
    disagreements = 0
    for n in (2, 4, 6):
        for _ in range(500):
            h = tuple(rng.randint(-9, 9) for _ in range(3 * n + 3))
            try:
                r = triple_span_check(GluedTriple(n, _blocks(h, n)))
            except Exception:
                exceptions += 1
                continue
            if not (r["phi_nonzero"] == r["span_full"] == r["kernel_trivial"]):
                disagreements += 1

    probe = GluedTriple(4, _blocks(tuple(range(1, 16)), 4))
    want = (
        (1, 0, 6, 0, 11, 0),
        (2, 1, 7, 6, 12, 11),
        (3, 2, 8, 7, 13, 12),
        (4, 3, 9, 8, 14, 13),
        (5, 4, 10, 9, 15, 14),
        (0, 5, 0, 10, 0, 15),
    )
    layout_ok = build_lambda(probe) == want

    flag = exceptions == 0 and disagreements == 0 and layout_ok
    assert verdict(8, flag,
                   f"1500 random triples (n=2,4,6): determinant, rank and "
                   f"kernel routes agree, 0 exceptions; n=4 block layout "
                   f"matches"), (exceptions, disagreements, layout_ok)


def test_a09_span_rank_bounds_hold(seq_of):
    failures = []
    for n, h_max in SPAN_SCALES:
        floor = -(-3 * n // 2) - 1
        for name in STOCK_NAMES:
            seq = seq_of(name, n, h_max)
            for k in range(3, len(seq) + 1):
                for m in range(n, 2 * n):
                    if not pair_span_check(seq, k, m)["bound_generic"]:
                        failures.append(("pair", name, n, k, m))
            est = psi_estimate(seq)
            if est.psi_hat is None or not floor <= est.psi_hat <= 2 * n - 1:
                failures.append(("psi", name, n, est.psi_hat))
            if n == 2:
                witnesses = [k for k in range(2, len(seq))
                             if phi(triple_from_records(seq, k)) != 0]
                if not witnesses:
                    failures.append(("phi", name, n))
    assert verdict(9, not failures,
                   f"pair rank bound, psi_hat range and degree-2 "
                   f"determinant witnesses on 5 numbers x n=2,3,4"), failures


def _prefix_minima(q, m, desc, h_pool):
    """Exhaustive successive minima: sort the whole pool by value and
    take the value at which the prefix rank first reaches each j."""
    pool = []
    for coeffs in product(range(-h_pool, h_pool + 1), repeat=m + 1):
        if next((c for c in coeffs if c), 0) > 0:
            p = IntegerPolynomial(coeffs)
            v = lstar(p, q, m, desc)
            pool.append(((v.lo, v.hi, tuple(p.coeff_vector(m + 1))), p, v))
    pool.sort(key=lambda t: t[0])
    basis = IncrementalBasis(m + 1)
    out = []
    for _, p, v in pool:
        if basis.add(p.coeff_vector(m + 1)):
            out.append((v.lo, v.hi))
            if len(out) == m + 1:
                break
    return len(pool), out


def test_a10_minima_graph_properties(seq_of):
    failures = []
    for name in STOCK_NAMES:
        desc = preset(name)
        for m, h_pool in ((1, 6), (2, 3)):
            g = ss_graph(m, desc, Fraction(0), Fraction(3), 6, h_pool)
            cert = g.certified_samples()
            if not cert:
                failures.append(("certified", name, m))
                continue
            for s in cert:
                keys = [(v.lo, v.hi) for v in s.values]
                if keys != sorted(keys):
                    failures.append(("order", name, m, float(s.q)))
            mk = minkowski_check(g)
            if mk["sup_abs_sum"] > sum_bound_constant(m, desc):
                failures.append(("sum", name, m, mk["sup_abs_sum"]))

        for m, h_pool, qs in (
            (1, 9, (Fraction(1, 2), Fraction(3, 2), Fraction(3))),
            (2, 3, (Fraction(1, 2), Fraction(3, 2))),
        ):
            for q in qs:
                s = successive_minima_at(q, m, desc, h_pool)
                size, want = _prefix_minima(q, m, desc, h_pool)
                assert size <= 200
                if [(v.lo, v.hi) for v in s.values] != want:
                    failures.append(("greedy", name, m, float(q)))

        for m, n, h_max in ((1, 1, 200), (2, 2, 400)):
            pts = crossing_points(seq_of(name, n, h_max), m)
            if not all(pts[i][1].hi < pts[i + 1][1].lo
                       for i in range(len(pts) - 1)):
                failures.append(("crossings", name, m))
    assert verdict(10, not failures,
                   f"certified samples ordered and sum-bounded, greedy = "
                   f"exhaustive on pools <= 200, crossing parameters "
                   f"strictly increase (m=1,2 x 5 numbers)"), failures


def test_a11_caps_respected_and_violations_exit_2(seq_of, capsys,
                                                  monkeypatch):
    datasets = [(name, n, h) for n, h in SPAN_SCALES for name in STOCK_NAMES]
    datasets += [("sqrt2m1", 1, 30), ("liouville2fact", 1, 1000),
                 ("cbrt2", 2, 1000)]
    exceedances = []
    violated_rows = []
    for name, n, h_max in datasets:
        est = estimate_exponents(seq_of(name, n, h_max))
        hull = est.what_proxy_interval
        if n >= 2 and (hull.lo > float(theta_interval(n))
                       or hull.lo > 2 * n - 1):
            exceedances.append((name, n, float(hull.lo)))
        rep = audit(est)
        violated_rows += [(name, n, r.name) for r in rep.rows
                          if r.status == VIOLATED]

    class FakeReport:
        has_violation = True

        def to_text(self):
            return "fabricated violation"

        def to_dict(self):
            return {"rows": []}

    monkeypatch.setattr("polyapprox.cli.audit",
                        lambda est, **kwargs: FakeReport())
    rc = main(["audit", "--preset", "sqrt2m1", "--n", "1", "--hmax", "20",
               "--quiet"])
    err = capsys.readouterr().err
    wired = rc == 2 and "certified invariant violation" in err

    flag = not exceedances and not violated_rows and wired
    assert verdict(11, flag,
                   f"{len(datasets)} datasets: no certified proxy above "
                   f"theta_n or 2n-1, no violated audit row; a certified "
                   f"violation exits with code 2"), (
        exceedances, violated_rows, rc)
