"""Parametric geometry over a truncated polynomial pool.

For a degree bound m and parameter q >= 0, each nonzero integer
polynomial P gets the piecewise linear value

    L*_P(q) = max(ln H(P) - q/m,  ln|P(zeta)| + q),

and the j-th minimum function takes the j-th value of a greedy
linearly-independent selection over the pool of all polynomials of
degree <= m and height <= H_pool.  A sample is certified when even the
last selected value lies strictly below ln(H_pool + 1) - q/m, since any
polynomial outside the pool is at least that large.

Every pool member gets its certified |P(zeta)|, in a fixed order, so
the descriptor is refined exactly as by a full scan.  Members that agree
above the constant term share the rest of their Horner loop, which
IntegerPolynomial.eval_scaled keeps per bracket.  A member stays in
integers throughout: its value is a (lo, hi, den) triple, and its log,
its L* total and its sort key are unreduced _Ratio pairs compared by
cross-multiplication.
Fractions are built only for the m+1 selected values of a sample.
Within a height, members take their logs in increasing order of a
series-free bound (the binade of |P(zeta)|), and the tentative
selection is updated as they go.  A member whose lower
bound of ln|P(zeta)| + q already exceeds the last selected value is
dropped without its full log enclosure: such a member sorts after the
last pick and can never be selected (see successive_minima_at).

The sum-of-minima bound follows from the second convex-body theorem
applied to the region {max |x_i| <= e^(q/m), |x . (1, z, ..., z^m)| <=
e^(-q)}.  Its volume V satisfies

    2^(m+1) e^(-q_excess) / (1 + g) <= V <= 2^(m+1) (1 + g),

with g = |z| + ... + |z|^m, because slicing the cube along the slab
direction shrinks or stretches lengths by at most the factor 1 + g,
while the minima product lies in [V^(-1) 2^(m+1) / (m+1)!, V^(-1)
2^(m+1)].  Taking logarithms, every certified sample obeys

    |sum_j L*_j(q)| <= C(m) := max(m ln(1+g) + ln 2, ln (m+1)!) + ln(1+g).

The constant is derived once per descriptor and reported next to the
measured supremum.  It and the statistics of minkowski_check are summed
and compared as _Ratio pairs, and each is rounded once, by an integer
true division: the double float() gives for the same Fraction.
"""

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .bestapprox import BestApproxSequence
from .errors import BudgetExceeded, DependentInput, NoCertifiedSamples
from .exactlinalg import IncrementalBasis
from .intervals import Rational, RationalInterval, _Ratio, _exact, _reduced
from .logs import ln_coarse, ln_interval, ln_interval_of, ln_scaled
from .numbers import (DEFAULT_CAP, NumberDescriptor, certified_abs,
                      certified_abs_scaled)
from .polynomials import IntegerPolynomial, lowest_positive, shell_coeffs

# Nothing here calls this, but perfbench/spans.py installs its tracing
# wrapper on it in this module's namespace.
from .numbers import is_zero_at  # noqa: F401

DEFAULT_VALUE_BITS = 64
POOL_LIMIT = 2_000_000
# Precision of the cheap lower bound that lets successive_minima_at skip
# the full log enclosure of a member that can no longer be selected.
PRUNE_BITS = 8


def lstar(
    poly: IntegerPolynomial,
    q: Rational,
    m: int,
    desc: NumberDescriptor,
    bits: int = DEFAULT_VALUE_BITS,
    cap: int = DEFAULT_CAP,
) -> RationalInterval:
    """Certified enclosure of L*_P(q).

    A polynomial that vanishes exactly at the target has only the
    height branch.
    """
    if poly.is_zero():
        raise ValueError("L* of the zero polynomial is undefined")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = _exact(q, "q")
    if q < 0:
        raise ValueError("q must be >= 0")
    height_branch = ln_interval(poly.height, bits) - q / m
    value = certified_abs(poly, desc, bits, cap)
    if value is None:
        return height_branch
    value_branch = ln_interval_of(value, bits) + q
    return height_branch.max_with(value_branch)


class SSGraphSample(NamedTuple):
    """Greedy successive-minima values at one parameter q."""

    q: Fraction
    values: tuple
    witnesses: tuple
    certified: bool


def successive_minima_at(
    q: Rational,
    m: int,
    desc: NumberDescriptor,
    h_pool: int,
    bits: int = DEFAULT_VALUE_BITS,
    cap: int = DEFAULT_CAP,
    logs: Optional[dict] = None,
) -> SSGraphSample:
    """Greedy linearly-independent selection of m+1 pool members by
    certified L* value.

    Heights are scanned in increasing order; the scan stops once the
    height branch alone exceeds the current (m+1)-th selected value,
    since taller polynomials can no longer improve any minimum.  The
    candidates stay in one list across heights, each keyed once on
    append; the list is sorted only when the selection is recomputed.
    Height 1 holds the unit tuples T^0..T^m, and no member is skipped
    while no selection exists, so a selection exists from height 1 on.
    More than POOL_LIMIT members raise BudgetExceeded.

    Every pool member stays in integers.  certified_abs_scaled gives its
    enclosure v = [lo/den, hi/den] as the triple (lo, hi, den); its log,
    its total max(ln H - q/m, ln v + q) and its key are unreduced _Ratio
    pairs, compared by cross-multiplication, so no gcd runs.  Fractions
    and RationalIntervals are built only for the m+1 selected values.

    Evaluation shares Horner prefixes: eval_scaled keeps the state
    before the constant term of each coefficient tail on the bracket
    object it last evaluated, so a member whose tail was met on that
    bracket, at this grid point or an earlier one, costs one lookup and
    its constant term.

    logs maps a triple (lo, hi, den) to the _Ratio endpoints of the log
    enclosure [a/a_den, b/b_den], the lo endpoint of
    ln_scaled(lo, den, bits) and the hi endpoint of ln_scaled(hi, den,
    bits): the endpoints of ln_interval_of([lo/den, hi/den], bits).  A
    height h is the triple (h, h, 1).  ss_graph passes one dict to all of
    its grid points.  It is keyed on the enclosure, not the polynomial: the
    enclosure of a polynomial's value can narrow between grid points.  The
    keys are not reduced; ln_scaled depends on the value alone, so two
    triples of one value map to the same logs.

    Skipping members that can no longer be selected.  certified_abs_scaled
    runs for every member of a height, in pool order, before any log is
    taken, on the bracket a full scan would pass it, so the descriptor's
    refinement history and every enclosure are those of a full scan.  The
    members are then taken in buckets of equal coarse = ln_coarse(lo, den)
    = [e ln2, (e+1) ln2], e = floor(log2 v.lo), in increasing e.  Exact
    zeros (value None) come first, with their height-branch totals; they
    are never skipped.  Before each bucket, the new keys join the
    candidates, and the greedy selection is recomputed if one of them
    sorts before the last pick (or no selection exists yet).  With a
    selection whose (m+1)-th total is lam, write t = lam.lo + 2**-bits - q;
    every test is a cross-multiplication:

    - coarse.lo > t: this bucket and every later one are skipped (no
      log, no key, no append); coarse.lo grows with e, and t only falls.
    - coarse.hi <= t: no member of the bucket can be skipped by the test
      below, so each goes straight to its full log.
    - otherwise a member gets the lo endpoint lower of ln_scaled(lo, den,
      PRUNE_BITS), and is skipped when lower > t.

    coarse.lo <= lower (see ln_coarse), so both skips rest on lower > t.
    This changes no selection:

    - ln_scaled(lo, den, bits) has lo endpoint >= ln(v.lo) - 2**-bits >=
      lower - 2**-bits, so the member's total would have lo > lam.lo.  The
      key prefix floor(lo 2**bits) is monotone in lo and ties fall to lo,
      so the member sorts strictly after the current last pick.
    - Greedy selection on a linear matroid under a strict total order:
      as the candidates grow, within a height or across heights, the j-th
      pick can only move earlier.  A member after the current last pick
      is therefore never selected; greedy has all m+1 picks before it
      reaches that member.  For the same reason new keys that all sort
      after the last pick leave the selection as it is.
    - Hence the selection at the end of each height is greedy over all
      kept candidates, and the values, witnesses, certified flag and the
      height-break test are those of the full scan.  The bucket order
      only sets how early the selection tightens.
    """
    q = _exact(q, "q")
    if q < 0:
        raise ValueError("q must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if h_pool < 1:
        raise ValueError("h_pool must be >= 1")
    if logs is None:
        logs = {}
    q_num, q_den = q.numerator, q.denominator

    dim = m + 1
    candidates = []
    selection = None
    work = 0

    for h in range(1, h_pool + 1):
        h_lo, h_hi = _height_branch(logs, h, q_num, q_den * m, bits)
        if selection is not None and selection[-1][0][2] < h_lo:
            break
        batch, members = [], []
        for coeffs in shell_coeffs(m + 1, h):
            work += 1
            if work > POOL_LIMIT:
                raise BudgetExceeded(
                    f"pool enumeration exceeded {POOL_LIMIT} candidates"
                )
            poly = IntegerPolynomial(lowest_positive(coeffs))
            scaled = certified_abs_scaled(poly, desc, bits, cap)
            if scaled is None:
                batch.append((_key(h_lo, h_hi, poly, bits), poly))
            else:
                members.append((ln_coarse(scaled[0], scaled[2]), scaled, poly))
        members.sort(key=itemgetter(0))
        for (c_lo, c_hi, c_den), bucket in groupby(members, itemgetter(0)):
            selection = _extend(candidates, batch, selection, dim)
            batch = []
            prune = False
            if selection is not None:
                # lam.lo + 2**-bits - q over one denominator
                lam_lo = selection[-1][0][1]
                skip_num = (((lam_lo.n << bits) + lam_lo.d) * q_den
                            - ((q_num * lam_lo.d) << bits))
                skip_den = (lam_lo.d * q_den) << bits
                if c_lo * skip_den > skip_num * c_den:
                    break  # this bucket and the later ones: never selected
                prune = c_hi * skip_den > skip_num * c_den
            for _, scaled, poly in bucket:
                if prune:
                    lower, _, lower_den = ln_scaled(
                        scaled[0], scaled[2], PRUNE_BITS)
                    if lower * skip_den > skip_num * lower_den:
                        continue  # sorts after the last pick: never selected
                ln_lo, ln_hi = _logs_of(logs, scaled, bits)
                lo, hi = _plus(ln_lo, q_num, q_den), _plus(ln_hi, q_num, q_den)
                if lo < h_lo:
                    lo = h_lo
                if hi < h_hi:
                    hi = h_hi
                batch.append((_key(lo, hi, poly, bits), poly))
        selection = _extend(candidates, batch, selection, dim)

    values = tuple(_reduced((lo, hi)) for (_, lo, hi, _, _), _ in selection)
    witnesses = tuple(p for _, p in selection)
    outside, _ = _height_branch(logs, h_pool + 1, q_num, q_den * m, bits)
    certified = selection[-1][0][2] < outside
    return SSGraphSample(
        q=q, values=values, witnesses=witnesses, certified=certified
    )


def _logs_of(logs: dict, scaled: tuple, bits: int) -> tuple:
    """logs[(lo, hi, den)], the log endpoints a/a_den and b/b_den of the
    enclosure [lo/den, hi/den] as _Ratio; a point takes one ln_scaled."""
    out = logs.get(scaled)
    if out is None:
        lo, hi, den = scaled
        a, b, a_den = ln_scaled(lo, den, bits)
        b_den = a_den
        if hi != lo:
            _, b, b_den = ln_scaled(hi, den, bits)
        out = logs[scaled] = (_Ratio(a, a_den), _Ratio(b, b_den))
    return out


def _plus(end: _Ratio, num: int, den: int) -> _Ratio:
    """end + num/den, over end.d * den."""
    return _Ratio(end.n * den + num * end.d, end.d * den)


def _height_branch(logs: dict, h: int, q_num: int, qm_den: int,
                   bits: int) -> tuple:
    """ln h - q/m as a (lo, hi) pair of _Ratio, with q/m = q_num/qm_den."""
    ln_lo, ln_hi = _logs_of(logs, (h, h, 1), bits)
    return _plus(ln_lo, -q_num, qm_den), _plus(ln_hi, -q_num, qm_den)


def _key(lo: "_Ratio", hi: "_Ratio", poly: IntegerPolynomial,
         bits: int) -> tuple:
    """The unique order key (floor(lo 2^bits), lo, hi, nonzero count,
    coeffs) of a member with total [lo, hi]; the integer prefix is
    monotone in lo and settles most comparisons before lo and hi are
    cross-multiplied."""
    return ((lo.n << bits) // lo.d, lo, hi,
            sum(1 for c in poly.coeffs if c), poly.coeffs)


def _extend(candidates: list, batch: list, selection: Optional[list],
            dim: int) -> Optional[list]:
    """Append the (key, poly) batch to candidates and return the greedy
    selection over all of them: the first dim candidates, in key order,
    that extend the span.  Greedy runs as before up to the first new key,
    so the picks before it stay (all of them, if it sorts after the last
    pick), and the walk resumes at that key."""
    if not batch:
        return selection
    candidates += batch
    first = min(key for key, _ in batch)
    if selection is not None:
        if not first < selection[-1][0]:
            return selection
    elif len(candidates) < dim:
        return None
    candidates.sort(key=itemgetter(0))
    basis = IncrementalBasis(dim)
    picked = []
    for item in selection or ():
        if not item[0] < first:
            break
        basis.add(item[1].coeff_vector(dim))
        picked.append(item)
    start = bisect_left(candidates, first, key=itemgetter(0)) if picked else 0
    for item in candidates[start:]:
        if basis.add(item[1].coeff_vector(dim)):
            picked.append(item)
            if len(picked) == dim:
                return picked
    return None


class SSGraph(NamedTuple):
    m: int
    grid: tuple
    samples: tuple

    def certified_samples(self) -> tuple:
        return tuple(s for s in self.samples if s.certified)


def ss_graph(
    m: int,
    desc: NumberDescriptor,
    q_min: Rational,
    q_max: Rational,
    steps: int,
    h_pool: int,
    bits: int = DEFAULT_VALUE_BITS,
    cap: int = DEFAULT_CAP,
) -> SSGraph:
    """Successive minima L*_1..L*_(m+1) at the steps + 1 evenly spaced
    parameters q_min..q_max, each from successive_minima_at over the pool
    of height h_pool.  The grid points share one log cache, keyed on the
    (lo, hi, den) enclosure, so sharing it changes no sample."""
    q_min, q_max = _exact(q_min, "q_min"), _exact(q_max, "q_max")
    if not q_min < q_max:
        raise ValueError("q_min must be smaller than q_max")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = tuple(
        q_min + (q_max - q_min) * i / steps for i in range(steps + 1)
    )
    logs: dict = {}
    samples = tuple(
        successive_minima_at(q, m, desc, h_pool, bits, cap, logs)
        for q in grid
    )
    return SSGraph(
        m=m,
        grid=grid,
        samples=samples,
    )


def sum_bound_constant(m: int, desc: NumberDescriptor, bits: int = 64) -> float:
    """The derived constant C(m) of the module docstring: the upper end of
    its enclosure, from the hi endpoints of the three logs alone, with
    1 + g <= 1 + t(1 + t(... (1 + t))) for |z| <= t on desc.refine(bits)."""
    z = desc.refine(bits)
    t = max(abs(z.lo), abs(z.hi))
    num = den = 1
    for _ in range(m):
        num, den = num * t.numerator + den * t.denominator, den * t.denominator
    _, g, g_den = ln_scaled(num, den, bits)
    _, ln2, ln2_den = ln_scaled(2, 1, bits)
    _, fact, fact_den = ln_scaled(math.factorial(m + 1), 1, bits)
    base = max(_plus(_Ratio(m * g, g_den), ln2, ln2_den),
               _Ratio(fact, fact_den))
    total = _plus(_Ratio(g, g_den), base.n, base.d)
    return total.n / total.d


def minkowski_check(graph: SSGraph) -> dict:
    """Sum-of-minima statistics over the certified samples.

    sup_abs_sum: the largest |L*_1 + ... + L*_{m+1}|.  min_residual:
    the least lower end, over samples and j <= m, of the slack of the
    pairwise comparison L*_{m+1} + (j/(m+1-j)) L*_j, whose infimum is
    bounded below by a constant.  certified_count: the samples read.
    """
    certified = graph.certified_samples()
    if not certified:
        raise NoCertifiedSamples("no certified samples in the graph")
    m = graph.m
    sup_abs_sum = min_residual = None
    for sample in certified:
        lo, hi = (_total(v.lo for v in sample.values),
                  _total(v.hi for v in sample.values))
        top = max(hi, _Ratio(-lo.n, lo.d))  # |[lo, hi]|.hi, as lo <= hi
        sup_abs_sum = top if sup_abs_sum is None else max(sup_abs_sum, top)
        last = sample.values[-1].lo
        for j in range(1, m + 1):
            v = sample.values[j - 1].lo
            slack = _plus(
                _Ratio(j * v.numerator, (m + 1 - j) * v.denominator),
                last.numerator, last.denominator)
            min_residual = (slack if min_residual is None
                            else min(min_residual, slack))
    return {
        "sup_abs_sum": sup_abs_sum.n / sup_abs_sum.d,
        "min_residual": min_residual.n / min_residual.d,
        "certified_count": len(certified),
    }


def _total(xs) -> _Ratio:
    """The sum of the Fractions xs, over the product of their denominators."""
    n, d = 0, 1
    for x in xs:
        n, d = n * x.denominator + x.numerator * d, d * x.denominator
    return _Ratio(n, d)


def crossing_points(
    seq: BestApproxSequence, m: int, bits: int = DEFAULT_VALUE_BITS
) -> list:
    """Parameters where consecutive record functions L*_{P_(k-1)} and
    L*_{P_k} cross: q_k = m (ln H_k - ln|P_(k-1)(zeta)|) / (m+1)."""
    if len(seq) < 2:
        raise ValueError("need at least two records")
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for k in range(2, len(seq) + 1):
        h_k = seq.record(k).height
        prev_value = seq.record(k - 1).value
        q = (
            (ln_interval(h_k, bits) - ln_interval_of(prev_value, bits))
            * Fraction(m, m + 1)
        )
        out.append((k, q))
    return out


def transfer_formulas(
    ln_h: RationalInterval, ln_worst: RationalInterval, m: int
) -> dict:
    """Breakpoint and right-hand side from the two log quantities.

    Exposed separately so the closed forms can be checked on synthetic
    inputs (e.g. ln H = 1, ln worst = -1, m = 1 gives q~ = 1, rhs = 0).
    """
    if ln_h.lo <= 0:
        raise ValueError("needs ln H > 0, i.e. height at least 2")
    q_tilde = (ln_h - ln_worst) * Fraction(m, m + 1)
    w = -ln_worst.div_by_positive(ln_h)
    one_plus_w = w + 1
    if one_plus_w.lo <= 0:
        raise ValueError("degenerate exponent")
    rhs = q_tilde * (RationalInterval.point(Fraction(m)) - w).div_by_positive(
        one_plus_w * m
    )
    return {"q_tilde": q_tilde, "w": w, "rhs": rhs}


def transfer_point(
    polys: Sequence[IntegerPolynomial],
    m: int,
    desc: NumberDescriptor,
    bits: int = DEFAULT_VALUE_BITS,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Evaluate the transfer inequality at its breakpoint.

    Given j <= m+1 linearly independent polynomials with common height
    bound H and worst value max_i |P_i(zeta)| = H^(-w), the breakpoint
    q~ = (m/(m+1)) (ln H - ln max_i |P_i(zeta)|) makes the j-th minimum
    of the family at most q~ (m-w) / (m (1+w)); both sides are returned
    as certified intervals.
    """
    if not polys:
        raise ValueError("empty family")
    j = len(polys)
    if j > m + 1:
        raise ValueError("family larger than m+1")
    basis = IncrementalBasis(m + 1)
    for p in polys:
        if p.degree > m:
            raise ValueError("family member exceeds degree bound")
        if not basis.add(p.coeff_vector(m + 1)):
            raise DependentInput("family is not linearly independent")

    h = max(p.height for p in polys)
    worst: Optional[RationalInterval] = None
    for p in polys:
        value = certified_abs(p, desc, bits, cap)
        if value is None:
            raise ValueError(
                "a family member vanishes at the target; w is undefined"
            )
        worst = value if worst is None else worst.max_with(value)

    ln_h = ln_interval(h, bits)
    ln_worst = ln_interval_of(worst, bits)
    formulas = transfer_formulas(ln_h, ln_worst, m)
    q_tilde = formulas["q_tilde"]

    q_eval = q_tilde.mid if q_tilde.mid >= 0 else Fraction(0)
    lhs: Optional[RationalInterval] = None
    for p in polys:
        val = lstar(p, q_eval, m, desc, bits, cap)
        lhs = val if lhs is None else lhs.max_with(val)
    rhs = formulas["rhs"]
    return {
        "q_tilde": q_tilde,
        "w": formulas["w"],
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs.lo <= rhs.hi,
    }


def exponent_identity_residuals(
    graph: SSGraph, est, tail_from: Optional[Rational] = None
) -> dict:
    """Residuals of the two product identities tying the first minimum
    function to the exponents.

    psi_low / psi_high are the windowed extremes of L*_1(q)/q over
    certified samples with q >= tail_from; the defining quantities are
    limits in q, so only the upper part of the grid is used (default:
    from the midpoint of the sampled range).  The products
    (w+1)(1/m + psi_low) and (what+1)(1/m + psi_high) both equal
    (m+1)/m in the limit; the residuals against the finite-horizon
    statistics are reported with their window.
    """
    if tail_from is None:
        tail_from = (graph.grid[0] + graph.grid[-1]) / 2
    tail_from = _exact(tail_from, "tail_from")
    certified = [
        s for s in graph.certified_samples() if s.q > 0 and s.q >= tail_from
    ]
    if not certified:
        raise NoCertifiedSamples(
            f"no certified samples with q >= {tail_from}"
        )
    m = graph.m
    psi_low: Optional[RationalInterval] = None
    psi_high: Optional[RationalInterval] = None
    for s in certified:
        ratio = s.values[0] / s.q
        psi_low = ratio if psi_low is None else psi_low.min_with(ratio)
        psi_high = ratio if psi_high is None else psi_high.max_with(ratio)

    target = Fraction(m + 1, m)
    result = {
        "m": m,
        "target": float(target),
        "psi_low": float(psi_low),
        "psi_high": float(psi_high),
        "finite_window": True,
        "tail_from": float(tail_from),
        "q_count": len(certified),
    }
    if est.w_lower is not None:
        low_product = (psi_low + Fraction(1, m)) * (
            est.w_lower_interval + 1
        )
        result["residual_low"] = float(low_product - target)
    if est.what_proxy is not None:
        high_product = (psi_high + Fraction(1, m)) * (
            est.what_proxy_interval + 1
        )
        result["residual_high"] = float(high_product - target)
    return result
