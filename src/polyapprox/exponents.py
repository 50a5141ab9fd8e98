"""Closed-form exponent bounds, finite-sample estimators, and the audit.

The closed forms (theta, sigma, D_n(t), E_n(t) and the root w(n)) are
certified rational intervals, and bounds_table collects them at one n.
The theta, sigma, D and E intervals (2^-96 wide) are far tighter than
double precision; the w(n) bracket is only as tight as its bisection
tolerance (10^-6 by default).  The estimator summarises a best
approximation sequence by the two classical ratio statistics,
-log|P_k(zeta)| / log H_k for w_n and -log|P_k(zeta)| / log H_{k+1} for
the uniform proxy, both in one pass over the chain; they are
finite-horizon figures and every report row carries that caveat.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .bestapprox import BestApproxSequence
from .errors import BracketFailure
from .intervals import (Rational, RationalInterval, _exact, power_interval,
                        quotient_ends)
from .logs import ln_interval, ln_scaled
from .spanconds import span_dims

# Nothing here calls this, but perfbench/spans.py installs its tracing
# wrapper on it in this module's namespace.
from .logs import ln_interval_of  # noqa: F401

DEFAULT_BITS = 96
LOG_BITS = 64


def sqrt_interval(x: Rational) -> RationalInterval:
    """Certified enclosure of sqrt(x) for nonnegative rational x."""
    x = _exact(x, "radicand")
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return RationalInterval.point(Fraction(0))
    scale = 1 << DEFAULT_BITS
    # sqrt(num/den) = sqrt(num*den)/den
    radicand = x.numerator * x.denominator * scale * scale
    root = math.isqrt(radicand)
    lo = Fraction(root, x.denominator * scale)
    hi = Fraction(root + 1, x.denominator * scale)
    return RationalInterval(lo, hi)


def theta_interval(n: int) -> RationalInterval:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (sqrt_interval(n * n - 2 * n + 5) + (3 * (n - 1))) / 2


def sigma_interval(n: int) -> RationalInterval:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (sqrt_interval(2 * n * n - 2 * n + 1) + (2 * n - 1)) / 2


def dbound_interval(n: int, t: Rational) -> RationalInterval:
    if n < 2:
        raise ValueError("n must be >= 2")
    t = _exact(t, "t")
    radicand = (
        4 * t * t + 17 * n * n - 16 * t * n + 8 * t - 18 * n + 5
    )
    return (sqrt_interval(radicand) + (2 * t - n + 1)) / 2


def _ebound_radicand(n: int, t: Fraction) -> Fraction:
    """Discriminant of the quadratic whose roots are (t+1 -+ sqrt(.))/2."""
    return t * t - 4 * t * n + 8 * n * n + 2 * t - 12 * n + 5


def ebound_interval(n: int, t: Rational) -> RationalInterval:
    """Larger root of the defining quadratic; see ebound_roots."""
    return ebound_roots(n, t)[1]


def ebound_roots(n: int, t: Rational) -> tuple:
    """Both quadratic roots (minus, plus), as intervals.

    The consistency identities (value 2n-1 at t = 2n-1, and the n = 2
    special value (3+sqrt(5))/2 at t = 2) hold only for the plus root,
    which is what ebound_interval returns; the minus root is exposed so
    the choice can be inspected.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = _exact(t, "t")
    root = sqrt_interval(_ebound_radicand(n, t))
    return (-root + (t + 1)) / 2, (root + (t + 1)) / 2


def _wsign(n: int, num: int, den: int) -> int:
    """Exact sign of the root equation at w = num/den (den > 0), as the
    sign of the integer G(w) den^(n+1).

    G(w) = (n-1) w (w-n)^(n-1) - (w-1) (w-n)^n - (n-1)^n, positive
    exactly where the original rational-exponent form is positive on
    the open interval (n, 2n-1).
    """
    shift = num - n * den
    value = (
        (n - 1) * num * den * shift ** (n - 1)
        - (num - den) * shift**n
        - (n - 1) ** n * den ** (n + 1)
    )
    return (value > 0) - (value < 0)


def wroot_interval(n: int, tol: Rational = Fraction(1, 10**6)) -> RationalInterval:
    """Bracketed bisection with exact integer sign evaluations.

    The equation also vanishes at w = 2n-1; the bracket is built
    strictly inside (n, 2n-1) so only the interior root is found.  The
    bracket is [lo/den, hi/den] on one dyadic denominator, so each
    bisection step doubles den and tests one integer midpoint.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    tol = _exact(tol, "tol")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, den = 2 * n + 1, 2
    s_lo = _wsign(n, lo, den)
    if s_lo == 0:
        return RationalInterval.point(Fraction(lo, den))
    if s_lo > 0:
        raise BracketFailure(
            f"no sign change from the left endpoint: G({Fraction(lo, den)}) > 0"
        )
    hi = None
    samples = []
    for j in range(0, 64):
        cand = ((2 * n - 1) << j) - 1  # 2n-1 - 2^-j over 2^j
        if cand * den <= lo << j:
            continue
        s = _wsign(n, cand, 1 << j)
        samples.append((cand / (1 << j), s))
        if s == 0:
            return RationalInterval.point(Fraction(cand, 1 << j))
        if s > 0:
            hi = cand
            break
    if hi is None:
        raise BracketFailure(
            f"no positive sample left of 2n-1 for n = {n}; samples: "
            + ", ".join(f"G({c:.6f}) sign {s}" for c, s in samples)
        )
    e = max(j, 1)  # lo is over 2 and hi over 2^j: put both over 2^e
    lo, hi, den = lo << (e - 1), hi << (e - j), 1 << e
    while (hi - lo) * tol.denominator > tol.numerator * den:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        s = _wsign(n, mid, den)
        if s == 0:
            return RationalInterval.point(Fraction(mid, den))
        if s < 0:
            lo = mid
        else:
            hi = mid
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def wroot_below(n: int, w: Rational) -> bool:
    """Exact decision of w(n) < w for rational w in [n, 2n-1)."""
    w = _exact(w, "w")
    return _wsign(n, w.numerator, w.denominator) > 0


class BoundsTable(NamedTuple):
    """The closed-form bounds at one n, as intervals.

    t_rows holds (t, D_n(t), E_n(t)) in ts order, and outside the t of
    ts that lie outside [ceil(3n/2)-1, 2n-1], where the bounds are stated
    (their values are computed anyway).  Below n = 2 there is no w(n) and
    no t bound: w_of_n and maxroot_cap are None, t_rows and outside empty.
    """

    n: int
    theta: RationalInterval
    sigma: RationalInterval
    w_of_n: Optional[RationalInterval]
    maxroot_cap: Optional[RationalInterval]
    t_rows: tuple
    outside: tuple


def bounds_table(n: int, ts: Optional[Sequence[Rational]] = None) -> BoundsTable:
    """All closed-form bounds at one n; ts defaults to the valid t range
    endpoints plus 2n-2.  The cap max(2n-2, w(n)) is decided exactly by
    wroot_below."""
    theta, sigma = theta_interval(n), sigma_interval(n)
    if n < 2:
        return BoundsTable(n, theta, sigma, None, None, (), ())
    dims = span_dims(n)
    if ts is None:
        ts = sorted({dims.start, 2 * n - 2, 2 * n - 1})
    ts = [_exact(t, "t") for t in ts]
    w_n = wroot_interval(n)
    cap = (RationalInterval.point(Fraction(2 * n - 2))
           if wroot_below(n, 2 * n - 2) else w_n)
    return BoundsTable(
        n, theta, sigma, w_n, cap,
        tuple((t, dbound_interval(n, t), ebound_interval(n, t)) for t in ts),
        tuple(t for t in ts if not dims.start <= t <= dims.stop - 1))


def _reduced(ends: tuple) -> RationalInterval:
    """The interval of two (num, den) endpoint pairs."""
    (a, b), (c, d) = ends
    return RationalInterval(Fraction(a, b), Fraction(c, d))


class RatioRow(NamedTuple):
    """-log|P_k(zeta)| / log H for record k: H = height on a w row, and
    H = next_height, the next record's height, on a u row.  next_height is
    None on w rows.  ends holds the endpoints as unreduced (num, den)
    pairs; ratio reduces them when it is read."""

    k: int
    height: int
    next_height: Optional[int]
    ends: tuple

    @property
    def ratio(self) -> RationalInterval:
        return _reduced(self.ends)


class ExponentEstimate(NamedTuple):
    """Finite-horizon exponent statistics for one record sequence.

    w_lower: running max over records (heights >= 2) of
    -log|P_k(zeta)| / log H_k, the classical witness statistic for the
    ordinary exponent.  The headline float is the certified lower
    endpoint (value upper endpoints used, per the conservative rule).
    Being a max over every record from height 2 on, it can be pinned
    for good by an early low-height record (for the cube root of 2 at
    n = 2 the height-2 record (T-1)^2 holds it at 3.8877 at every
    horizon).

    what_proxy: running min over k >= k0 of -log|P_k(zeta)| / log H_{k+1},
    the uniform-exponent proxy; it approaches the uniform exponent from
    above as the horizon grows, so the headline float is the certified
    upper endpoint.  Neither number is a limit claim.

    k0 and window = (k0, K) bound only what_proxy; w_lower always runs
    over the whole chain.
    """

    n: int
    h_max: int
    k0: int
    window: tuple
    w_lower_interval: Optional[RationalInterval]
    what_proxy_interval: Optional[RationalInterval]
    w_rows: tuple
    u_rows: tuple

    @property
    def w_lower(self) -> Optional[float]:
        iv = self.w_lower_interval
        return None if iv is None else float(iv.lo)

    @property
    def what_proxy(self) -> Optional[float]:
        iv = self.what_proxy_interval
        return None if iv is None else float(iv.hi)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "h_max": self.h_max,
            "k0": self.k0,
            "window": list(self.window),
            "w_lower": self.w_lower,
            "what_proxy": self.what_proxy,
            "finite_horizon": True,
        }


def _larger(x: tuple, y: tuple) -> tuple:
    """The larger of two (num, den) pairs with den > 0; x on a tie."""
    return y if y[0] * x[1] > x[0] * y[1] else x


def _smaller(x: tuple, y: tuple) -> tuple:
    """The smaller of two (num, den) pairs with den > 0; x on a tie."""
    return y if y[0] * x[1] < x[0] * y[1] else x


def estimate_exponents(seq: BestApproxSequence, k0: int = 1) -> ExponentEstimate:
    """Both ratio statistics in one pass over the chain: each record's
    log value and each height's log are taken once.  A w row divides the
    record's log value by the log of its own height, a u row by the log
    of the next record's height; heights below 2 (log 0) give no row.

    The logs are ln_scaled triples and every ratio endpoint an unreduced
    (num, den) pair, so the running max and min compare integers; only
    the two statistics are reduced here, and a row when it is read."""
    if not seq.records:
        raise ValueError("estimate_exponents requires a nonempty sequence")
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    records = seq.records
    ln_height = {}
    for h in {rec.height for rec in records if rec.height >= 2}:
        lo, hi, den = ln_scaled(h, 1, LOG_BITS)
        ln_height[h] = ((lo, den), (hi, den))
    w_rows, u_rows = [], []
    w_acc = u_acc = None
    next_heights = [rec.height for rec in records[1:]] + [None]
    for rec, next_height in zip(records, next_heights):
        # -ln of the value: [-ln(value.hi), -ln(value.lo)]
        v = rec.value
        lo, _, lo_den = ln_scaled(v.lo.numerator, v.lo.denominator, LOG_BITS)
        _, hi, hi_den = ln_scaled(v.hi.numerator, v.hi.denominator, LOG_BITS)
        num = ((-hi, hi_den), (-lo, lo_den))
        if rec.height in ln_height:
            ends = quotient_ends(*num, *ln_height[rec.height])
            w_rows.append(RatioRow(rec.k, rec.height, None, ends))
            w_acc = ends if w_acc is None else tuple(map(_larger, w_acc, ends))
        if next_height in ln_height:
            ends = quotient_ends(*num, *ln_height[next_height])
            u_rows.append(RatioRow(rec.k, rec.height, next_height, ends))
            if rec.k >= k0:
                u_acc = (ends if u_acc is None
                         else tuple(map(_smaller, u_acc, ends)))

    return ExponentEstimate(
        n=seq.n,
        h_max=seq.h_max,
        k0=k0,
        window=(k0, len(records)),
        w_lower_interval=None if w_acc is None else _reduced(w_acc),
        what_proxy_interval=None if u_acc is None else _reduced(u_acc),
        w_rows=tuple(w_rows),
        u_rows=tuple(u_rows),
    )


class GrowthRow(NamedTuple):
    k: int
    height: int
    next_height: int
    rho: RationalInterval


def height_growth_report(seq: BestApproxSequence) -> tuple:
    """Consecutive height growth exponents log H_{k+1} / log H_k."""
    rows = []
    records = seq.records
    for i in range(len(records) - 1):
        rec = records[i]
        nxt = records[i + 1]
        if rec.height < 2:
            continue
        num = ln_interval(Fraction(nxt.height), LOG_BITS)
        den = ln_interval(Fraction(rec.height), LOG_BITS)
        rows.append(
            GrowthRow(
                k=rec.k,
                height=rec.height,
                next_height=nxt.height,
                rho=num.div_by_positive(den),
            )
        )
    return tuple(rows)


CONSISTENT = "consistent"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"
NOT_APPLICABLE = "not-applicable"


class AuditRow(NamedTuple):
    name: str
    statement: str
    values: dict
    status: str
    note: str = ""


class AuditReport(NamedTuple):
    n: int
    horizon: dict
    rows: tuple

    @property
    def has_violation(self) -> bool:
        return any(row.status == VIOLATED for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "rows": [r._asdict() for r in self.rows],
        }

    def to_text(self) -> str:
        lines = [f"audit n={self.n} horizon={self.horizon}"]
        for r in self.rows:
            lines.append(f"[{r.status:>14s}] {r.name}: {r.statement}")
            if r.values:
                pairs = ", ".join(f"{k}={v}" for k, v in r.values.items())
                lines.append(f"                 {pairs}")
            if r.note:
                lines.append(f"                 note: {r.note}")
        return "\n".join(lines)


def classify_limit_row(
    observed: Optional[RationalInterval],
    bound: RationalInterval,
    direction: str = "le",
) -> tuple:
    """Status for a row comparing a finite-horizon statistic to the bound
    of a limit theorem.

    A finite statistic can never certify a violation of a statement
    about the limit (the proxy converges from the wrong side for that),
    so the outcomes are consistent, indeterminate, or not-applicable.
    """
    if observed is None:
        return NOT_APPLICABLE, "statistic unavailable (too few records)"
    if direction == "le":
        if observed.hi <= bound.lo:
            return CONSISTENT, ""
        if observed.lo > bound.hi:
            return (
                INDETERMINATE,
                "finite-horizon statistic exceeds the limit bound; "
                "not a certified violation (the proxy approaches the "
                "exponent from above)",
            )
        return INDETERMINATE, "bound and statistic overlap at this precision"
    if direction == "ge":
        if observed.lo >= bound.hi:
            return CONSISTENT, ""
        if observed.hi < bound.lo:
            return (
                INDETERMINATE,
                "finite-horizon statistic falls below the limit bound; "
                "not a certified violation",
            )
        return INDETERMINATE, "bound and statistic overlap at this precision"
    raise ValueError(f"unknown direction {direction!r}")


def classify_exact_row(lhs: RationalInterval, rhs: RationalInterval) -> tuple:
    """Status for a row whose content is the exact, finitely checkable
    strict inequality lhs < rhs between certified intervals.  A certified
    failure here is a genuine violation (an implementation bug)."""
    if lhs.hi < rhs.lo:
        return CONSISTENT, ""
    if lhs.lo >= rhs.hi:
        return VIOLATED, "certified contradiction of an exact inequality"
    return INDETERMINATE, "insufficient precision to decide"


def _fmt(x) -> str:
    return "n/a" if x is None else f"{float(x):.6f}"


# The statement of every audit row, in the order the rows are emitted.
_STATEMENTS = {
    "theta-floor": "theta_n > 2n-2 (exact)",
    "sigma-ceiling": "sigma_n < (1+1/sqrt(2)) n (exact)",
    "exponent-chain": "w_n >= what_n >= n",
    "degree-monotone": "w_{n-1} <= w_n (nested search spaces)",
    "algebraic-target": "w_n = what_n = min(d-1, n) for algebraic targets",
    "quadratic-sharp-cap": "what_2 <= (3+sqrt(5))/2",
    "radical-cap": "what_n <= n - 1/2 + sqrt(n^2-2n+5/4)",
    "cubic-cap": "what_3 <= 3+sqrt(2)",
    "theta-cap": "what_n <= theta_n (unconditional)",
    "classical-cap": "what_n <= 2n-1 (unconditional)",
    "maxroot-cap": "what_n <= max(2n-2, w(n))",
    "pair-minimum-cap": "min(w_{n1}, what_{n2}) <= n1+n2-1 at n1=n2=n",
    "even-span-cap": "what_n <= 2n-2 under the full-span condition (even n >= 4)",
    "excess-ratio-floor": (
        "w_n/what_n >= 2(what_n-n+1)/n under the full-span condition"
        " when what_n > 3n/2-1"
    ),
    "steep-ratio-floor": "w_n/what_n >= what_n-2n+3 when what_n > 2n-2",
    "power-gap-floor": "(w_n/what_n)^n >= w_n - what_n + 1",
    "ratio-transfer-cap": "what_n <= n + (n-1) what_n/w_n under w_n > w_{n-1}",
    "sigma-cap": (
        "what_n <= sigma_n under the full-span and w_n > w_{n-1} conditions"
    ),
    "psi-range": "psi_hat within [ceil(3n/2)-1, 2n-1]",
    "d-bound-window": "what_n <= D_n(psi_tilde) at the window estimate",
    "e-bound-window": "what_n <= E_n(psi_hat) at the window estimate",
}


def audit(
    est: ExponentEstimate,
    span=None,
    est_prev: Optional[ExponentEstimate] = None,
    algebraic_degree: Optional[int] = None,
) -> AuditReport:
    """One row per inequality the data can be held against.

    est_prev: estimate for degree bound n-1 on the same target, used to
    gate the rows conditioned on w_n > w_{n-1}.  span: span-condition
    scan output (psi_estimate result) for the witness-gated rows.
    algebraic_degree: minimal polynomial degree when the target is
    algebraic, for the rows that require transcendence or fixed targets.
    """
    n = est.n
    w = est.w_lower_interval
    what = est.what_proxy_interval
    wp = est_prev.w_lower_interval if est_prev is not None else None
    fin = "finite-horizon statistics"
    rows = []

    def row(name, values, status, note=""):
        rows.append(AuditRow(name, _STATEMENTS[name], values, status, note))

    def limit(name, values, observed, bound, direction="le", met=""):
        status, note = classify_limit_row(observed, bound, direction)
        row(name, values, status, note or met)

    def point(x):
        return RationalInterval.point(Fraction(x))

    # integrity rows: exact closed-form facts; a failure here is a bug
    table = bounds_table(n, ())
    th, sg = table.theta, table.sigma
    row("theta-floor", {"theta_n": _fmt(th), "2n-2": str(2 * n - 2)},
        *classify_exact_row(point(2 * n - 2), th))
    ceiling = (sqrt_interval(2) / 2 + 1) * n
    row("sigma-ceiling", {"sigma_n": _fmt(sg), "(1+1/sqrt2)n": _fmt(ceiling)},
        *classify_exact_row(sg, ceiling))

    # chain w_n >= what_n >= n; degenerate for algebraic targets of
    # degree <= n where both exponents collapse to d-1
    alg_small = algebraic_degree is not None and algebraic_degree <= n
    chain = {"w_lower": _fmt(w), "what_proxy": _fmt(what), "n": str(n)}
    if alg_small:
        row("exponent-chain", {}, NOT_APPLICABLE,
            f"algebraic target of degree {algebraic_degree} <= n;"
            " exponents equal min(d-1, n) instead")
    elif w is not None and what is not None and w.hi >= what.lo:
        artifact = (
            "the uniform proxy sits below n at this horizon, a finite-scale"
            " artifact (it approaches the exponent from above only in the"
            " limit)"
        )
        row("exponent-chain", chain, CONSISTENT, artifact if what.hi < n else "")
    else:
        row("exponent-chain", chain, INDETERMINATE,
            f"order not visible in {fin}; not a certified violation"
            " (the w statistic is only a lower bound)")

    # monotonicity in the degree bound, via the nested search spaces
    monotone = {"w_lower(n-1)": _fmt(wp), "w_lower(n)": _fmt(w)}
    if est_prev is None:
        row("degree-monotone", {}, NOT_APPLICABLE, "no estimate for n-1 supplied")
    elif w is None or wp is None:
        row("degree-monotone", monotone, NOT_APPLICABLE, "statistic unavailable")
    elif wp.lo <= w.hi:
        row("degree-monotone", monotone, CONSISTENT)
    else:
        row("degree-monotone", monotone, VIOLATED,
            "w statistic decreased when the degree bound grew; the search"
            " spaces nest, so this is an implementation bug")

    # known limit for algebraic targets, shown for orientation
    if algebraic_degree is not None:
        target = min(algebraic_degree - 1, n)
        row("algebraic-target",
            {"target": str(target), "w_lower": _fmt(w), "what_proxy": _fmt(what)},
            INDETERMINATE, f"target value shown for orientation; {fin}")

    # the unconditional upper-bound family for what_n
    caps = []
    if n == 2:
        caps.append(("quadratic-sharp-cap", (sqrt_interval(5) + 3) / 2))
    if n >= 2:
        caps.append(("radical-cap", sqrt_interval(Fraction(4 * n * n - 8 * n + 5, 4))
                     + Fraction(2 * n - 1, 2)))
    if n == 3:
        caps.append(("cubic-cap", sqrt_interval(2) + 3))
    caps += [("theta-cap", th), ("classical-cap", point(2 * n - 1))]
    if n >= 2:
        caps.append(("maxroot-cap", table.maxroot_cap))
    for name, bound in caps:
        if alg_small:
            row(name, {}, NOT_APPLICABLE, "bound concerns transcendental"
                f" targets; algebraic degree {algebraic_degree} <= n")
            continue
        status, note = classify_limit_row(what, bound, "le")
        if n == 1 and note:  # only the theta and classical caps apply
            note += (
                "; degenerate at n=1: the bound equals the universal value 1"
                " of the uniform exponent, so the finite proxy necessarily"
                " sits above it"
            )
        row(name, {"what_proxy": _fmt(what), "bound": _fmt(bound)}, status, note)

    # pair bound min(w_{n1}, what_{n2}) <= n1+n2-1, taken at n1=n2=n
    if not alg_small and w is not None and what is not None:
        observed = w.min_with(what)
        limit("pair-minimum-cap", {"min": _fmt(observed), "2n-1": str(2 * n - 1)},
              observed, point(2 * n - 1))

    # span-condition gate: full span at the minimal dimension, seen
    # with window multiplicity (the empirical stand-in for a condition
    # required at infinitely many indices)
    dims = span_dims(n)
    psi_hat = getattr(span, "psi_hat", None)
    span_witnessed = n % 2 == 0 and psi_hat == dims.start
    if n % 2 == 1:
        span_note = "the full-span construction needs even n"
    elif span is None:
        span_note = "no span scan supplied"
    elif not span_witnessed:
        span_note = "full-span witnesses absent at the minimal dimension"
    else:
        span_note = ""

    # cap from the full-span condition, even n >= 4
    if n % 2 == 0 and n >= 4:
        if span_witnessed:
            limit("even-span-cap", {"what_proxy": _fmt(what), "2n-2": str(2 * n - 2)},
                  what, point(2 * n - 2), met="span gate met empirically")
        else:
            row("even-span-cap", {}, NOT_APPLICABLE, span_note)

    # ratio floor under the full-span condition plus a large proxy
    if (span_witnessed and what is not None and w is not None
            and what.lo > Fraction(3 * n, 2) - 1):
        lhs = w.div_by_positive(what)
        rhs = (what - (n - 1)) * Fraction(2, n)
        limit("excess-ratio-floor", {"lhs": _fmt(lhs), "rhs": _fmt(rhs)},
              lhs, rhs, "ge", f"gates met empirically; {fin}")
    else:
        row("excess-ratio-floor",
            {"what_proxy": _fmt(what), "3n/2-1": _fmt(float(1.5 * n - 1))},
            NOT_APPLICABLE,
            span_note or "gate what_n > 3n/2-1 not met by the proxy")

    # steeper ratio floor active only above the 2n-2 line
    if n >= 2 and what is not None and w is not None and what.lo > 2 * n - 2:
        lhs = w.div_by_positive(what)
        rhs = what - (2 * n - 3)
        limit("steep-ratio-floor", {"lhs": _fmt(lhs), "rhs": _fmt(rhs)},
              lhs, rhs, "ge", f"gate met empirically; {fin}")
    else:
        row("steep-ratio-floor", {"what_proxy": _fmt(what), "2n-2": str(2 * n - 2)},
            NOT_APPLICABLE, "gate what_n > 2n-2 not met by the proxy")

    # implicit power inequality, with its stated excluded case
    if w is not None and what is not None and not alg_small:
        if (w.lo <= n <= w.hi and what.lo <= n <= what.hi
                and (w - what).contains_zero()):
            row("power-gap-floor", {"w_lower": _fmt(w), "what_proxy": _fmt(what)},
                CONSISTENT, "equality branch w_n = what_n = n")
        else:
            lhs = power_interval(w.div_by_positive(what), n)
            rhs = w - what + 1
            limit("power-gap-floor", {"lhs": _fmt(lhs), "rhs": _fmt(rhs)},
                  lhs, rhs, "ge")

    # rows gated on strict growth of w in the degree bound; they need
    # the degree-(n-1) estimate on the same target
    growth = w is not None and wp is not None and w.lo > wp.hi
    growth_note = (
        "gate w_n > w_{n-1} not certifiable"
        if est_prev is not None
        else "no estimate for n-1 supplied"
    )
    if growth and what is not None:
        rhs = what.div_by_positive(w) * (n - 1) + n
        limit("ratio-transfer-cap", {"lhs": _fmt(what), "rhs": _fmt(rhs)},
              what, rhs, met="gate w_n > w_{n-1} met empirically")
    else:
        row("ratio-transfer-cap", {}, NOT_APPLICABLE,
            growth_note + "; the bound is not assumed without its condition")

    # sigma cap needs both the span and the growth condition
    if span_witnessed and growth:
        limit("sigma-cap", {"what_proxy": _fmt(what), "sigma_n": _fmt(sg)},
              what, sg, met="gates met empirically")
    else:
        row("sigma-cap", {}, NOT_APPLICABLE, span_note or growth_note)

    # span-derived rows
    if span is not None:
        psi_tilde = getattr(span, "psi_tilde_hat", None)
        window = {"psi_hat": str(psi_hat), "range": f"[{dims.start}, {dims.stop - 1}]"}
        if psi_hat is None:
            row("psi-range", window, NOT_APPLICABLE,
                "no m reached the threshold in the window")
        elif dims.start <= psi_hat < dims.stop:
            row("psi-range", window, CONSISTENT)
        else:
            row("psi-range", window, VIOLATED,
                "window statistic left its provable range: a bug")
        if psi_tilde is not None and n >= 2:
            bound = dbound_interval(n, psi_tilde)
            limit("d-bound-window", {"what_proxy": _fmt(what), "D_n": _fmt(bound)},
                  what, bound, met="psi_tilde is a finite-window estimate")
        if psi_hat is not None and n >= 2:
            bound = ebound_interval(n, psi_hat)
            limit("e-bound-window", {"what_proxy": _fmt(what), "E_n": _fmt(bound)},
                  what, bound, met="psi_hat is a finite-window estimate")

    horizon = {"H_max": est.h_max, "k0": est.k0, "window": list(est.window)}
    return AuditReport(n=n, horizon=horizon, rows=tuple(rows))
