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
the descriptor is refined exactly as by a full scan.  Once a tentative
selection exists, a member whose cheap lower bound of ln|P(zeta)| + q
already exceeds the last selected value is dropped without its full log
enclosure: such a member sorts after the last pick and can never be
selected (see successive_minima_at).

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
measured supremum.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence, Union

from .bestapprox import BestApproxSequence
from .errors import BudgetExceeded, DependentInput, NoCertifiedSamples
from .exactlinalg import IncrementalBasis
from .intervals import RationalInterval
from .logs import ln_interval, ln_interval_of, ln_lower
from .numbers import DEFAULT_CAP, NumberDescriptor, certified_abs
from .polynomials import IntegerPolynomial, lowest_positive, shell_coeffs

# Nothing here calls this, but perfbench/spans.py installs its tracing
# wrapper on it in this module's namespace.
from .numbers import is_zero_at  # noqa: F401

DEFAULT_VALUE_BITS = 64
DEFAULT_POOL_BUDGET = 2_000_000
# Precision of the cheap lower bound that lets successive_minima_at skip
# the full log enclosure of a member that can no longer be selected.
PRUNE_BITS = 8

Rational = Union[int, Fraction]


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
    q = Fraction(q)
    if q < 0:
        raise ValueError("q must be >= 0")
    height_branch = ln_interval(poly.height, bits) - q / m
    value = certified_abs(poly, desc, bits, cap)
    if value is None:
        return height_branch
    value_branch = ln_interval_of(value, bits) + q
    return height_branch.max_with(value_branch)


@dataclass(frozen=True)
class SSGraphSample:
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
    budget: int = DEFAULT_POOL_BUDGET,
    logs: Optional[dict] = None,
) -> SSGraphSample:
    """Greedy linearly-independent selection of m+1 pool members by
    certified L* value.

    Heights are scanned in increasing order; the scan stops once the
    height branch alone exceeds the current (m+1)-th selected value,
    since taller polynomials can no longer improve any minimum.  The
    candidates stay sorted across heights, each keyed once on append.

    logs maps each enclosure to ln_interval_of(enclosure, bits), heights
    h as the point h; ss_graph passes one dict to all of its grid points.
    It is keyed on the enclosure, not the polynomial: the enclosure of a
    polynomial's value can narrow between grid points.

    Skipping members that can no longer be selected.  certified_abs runs
    for every member, in pool order, so the descriptor's refinement
    history and every enclosure are those of a full scan.  Once a
    tentative selection exists, with (m+1)-th selected total lam, a member
    with value v gets lower = ln_lower(v.lo, PRUNE_BITS) first, and is
    skipped (no ln_interval_of, no key, no append) when
    lower + q > lam.lo + 2**-bits.  This changes no selection:

    - ln_interval_of(v, bits).lo >= ln(v.lo) - 2**-bits >= lower - 2**-bits,
      so the member's total would have lo > lam.lo.  The key prefix
      floor(lo 2**bits) is monotone in lo and ties fall to lo, so the
      member sorts strictly after the current last pick.
    - Greedy selection on a linear matroid under a strict total order:
      as the pool grows height by height, the j-th pick can only move
      earlier.  A member after the current last pick is therefore never
      selected; greedy has all m+1 picks before it reaches that member.
    - Hence the selection, values, witnesses, certified flag and the
      height-break test are those of the full scan.  Exact zeros (value
      None) keep their height-branch total and are never skipped.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("q must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if h_pool < 1:
        raise ValueError("h_pool must be >= 1")
    if logs is None:
        logs = {}

    def ln_of(iv: RationalInterval) -> RationalInterval:
        out = logs.get(iv)
        if out is None:
            out = logs[iv] = ln_interval_of(iv, bits)
        return out

    dim = m + 1
    candidates = []
    selection = None
    skip_above = None
    work = 0

    for h in range(1, h_pool + 1):
        height_branch = ln_of(RationalInterval.point(h)) - q / m
        if selection is not None:
            if height_branch.lo > selection[-1][0].hi:
                break
            skip_above = selection[-1][0].lo + Fraction(1, 1 << bits) - q
        for coeffs in shell_coeffs(m + 1, h):
            work += 1
            if work > budget:
                raise BudgetExceeded(
                    f"pool enumeration exceeded {budget} candidates"
                )
            poly = IntegerPolynomial(lowest_positive(coeffs))
            value = certified_abs(poly, desc, bits, cap)
            if value is None:
                total = height_branch
            elif (skip_above is not None
                  and ln_lower(value.lo, PRUNE_BITS) > skip_above):
                continue  # sorts after the last pick: never selected
            else:
                total = height_branch.max_with(ln_of(value) + q)
            lo = total.lo
            key = ((lo.numerator << bits) // lo.denominator, lo, total.hi,
                   sum(1 for c in poly.coeffs if c), poly.lex_key())
            candidates.append((key, total, poly))
        candidates.sort(key=itemgetter(0))
        if len(candidates) >= dim:
            selection = _greedy_select(candidates, dim)

    if selection is None:
        raise BudgetExceeded(
            f"pool of height {h_pool} spans fewer than {dim} dimensions"
        )
    values = tuple(v for v, _ in selection)
    witnesses = tuple(p for _, p in selection)
    outside = ln_of(RationalInterval.point(h_pool + 1)) - q / m
    certified = values[-1].hi < outside.lo
    return SSGraphSample(
        q=q, values=values, witnesses=witnesses, certified=certified
    )


def _greedy_select(candidates: list, dim: int) -> Optional[list]:
    """Pick the first dim members that extend the span, in the order of
    the unique keys (floor(lo 2^bits), lo, hi, nonzero count, coeffs);
    the integer prefix is monotone in lo and short-cuts Fraction work."""
    basis = IncrementalBasis(dim)
    picked = []
    for _, value, poly in candidates:
        if basis.add(poly.coeff_vector(dim)):
            picked.append((value, poly))
            if len(picked) == dim:
                return picked
    return None


@dataclass(frozen=True)
class SSGraph:
    m: int
    descriptor: dict
    h_pool: int
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
    budget: int = DEFAULT_POOL_BUDGET,
) -> SSGraph:
    """Successive minima L*_1..L*_(m+1) at the steps + 1 evenly spaced
    parameters q_min..q_max, each from successive_minima_at over the pool
    of height h_pool.  The grid points share one log cache, keyed on the
    enclosure, so sharing it changes no sample."""
    q_min, q_max = Fraction(q_min), Fraction(q_max)
    if not q_min < q_max:
        raise ValueError("q_min must be smaller than q_max")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = tuple(
        q_min + (q_max - q_min) * i / steps for i in range(steps + 1)
    )
    logs: dict = {}
    samples = tuple(
        successive_minima_at(q, m, desc, h_pool, bits, cap, budget, logs)
        for q in grid
    )
    return SSGraph(
        m=m,
        descriptor=desc.to_dict(),
        h_pool=h_pool,
        grid=grid,
        samples=samples,
    )


def sum_bound_constant(m: int, desc: NumberDescriptor, bits: int = 64) -> float:
    """The derived constant C(m) of the module docstring."""
    z = desc.refine(bits).abs()
    g = RationalInterval.point(Fraction(0))
    power = RationalInterval.point(Fraction(1))
    for _ in range(m):
        power = power * z
        g = g + power
    ln_one_plus_g = ln_interval_of(g + 1, bits)
    ln2 = ln_interval(2, bits)
    fact = math.factorial(m + 1)
    ln_fact = ln_interval(fact, bits)
    first = ln_one_plus_g * m + ln2
    base_hi = max(first.hi, ln_fact.hi)
    return float(base_hi + ln_one_plus_g.hi)


def minkowski_check(graph: SSGraph) -> dict:
    """Sum-of-minima statistics over the certified samples.

    residuals: per sample and per j <= m, the slack of the pairwise
    comparison L*_{m+1} + (j/(m+1-j)) L*_j, whose infimum is bounded
    below by a constant; the empirical minimum is reported.
    """
    certified = graph.certified_samples()
    if not certified:
        raise NoCertifiedSamples("no certified samples in the graph")
    m = graph.m
    sup_abs_sum = None
    residuals = []
    min_residual = None
    for sample in certified:
        total = sample.values[0]
        for v in sample.values[1:]:
            total = total + v
        abs_hull = total.abs()
        if sup_abs_sum is None or abs_hull.hi > sup_abs_sum:
            sup_abs_sum = abs_hull.hi
        last = sample.values[-1]
        row = []
        for j in range(1, m + 1):
            slack = last + sample.values[j - 1] * Fraction(j, m + 1 - j)
            row.append(float(slack.mid))
            if min_residual is None or slack.lo < min_residual:
                min_residual = slack.lo
        residuals.append((float(sample.q), tuple(row)))
    return {
        "sup_abs_sum": float(sup_abs_sum),
        "min_residual": float(min_residual),
        "residuals": tuple(residuals),
        "certified_count": len(certified),
    }


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
    tail_from = Fraction(tail_from)
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
        "psi_low": float(psi_low.mid),
        "psi_high": float(psi_high.mid),
        "finite_window": True,
        "tail_from": float(tail_from),
        "q_count": len(certified),
    }
    if est.w_lower is not None:
        low_product = (psi_low + Fraction(1, m)) * (
            est.w_lower_interval + 1
        )
        result["residual_low"] = float((low_product - target).mid)
    if est.what_proxy is not None:
        high_product = (psi_high + Fraction(1, m)) * (
            est.what_proxy_interval + 1
        )
        result["residual_high"] = float((high_product - target).mid)
    return result
