"""Best approximation polynomial sequences.

For a target number zeta and a degree bound n, the records are the integer
polynomials P (nonzero, deg <= n) that strictly improve the minimum of
|P(zeta)| as the height budget grows: P_k has the smallest certified
|P(zeta)| among all polynomials of height <= H(P_k), heights strictly
increase, and values strictly decrease.  Polynomials with P(zeta) = 0
exactly are excluded from the minimisation.

Four independent searches live here:

* :func:`best_approx_sequence` -- the production engine.  A single
  shell-ascending pass with scaled integer bounds, nearest-constant
  candidates and future buckets.  It splits each coefficient prefix
  into a head and a tail, walks only the tails, and finds the heads
  worth visiting by bisection in their sorted orbit mod 1: a prefix can
  only beat the incumbent if its value lies within the incumbent's
  bound of an integer, which confines the head's residue to a short
  window.  The head is c1 (orbit c1*zeta mod 1) for n <= 3 and the pair
  (c1, c2) (orbit c1*zeta + c2*zeta^2 mod 1, (2*h_max + 1)^2 entries)
  for n >= 4, a meet-in-the-middle split after Schroeppel and Shamir.
  The pair visits some prefixes at an earlier shell than c1 alone
  would, against a looser incumbent; the extra candidates this buckets
  are dropped by the first filter of the offer that receives them, so
  the adjudicated candidates, and every output, are those of the
  one-coordinate walk.  Ambiguous comparisons escalate to exact
  rational arithmetic.
* :func:`oracle_best_approx` -- an unpruned box scan that shares only the
  exact adjudication layer.  Slow, used to validate the engine.
* :func:`micro_reference_records` -- a per-shell exhaustive minimisation
  by exact comparisons alone, the second reference for tiny inputs.
* :func:`n1_convergent_records` -- for n = 1 and 0 < zeta < 1 the records
  are continued fraction convergents; this derives them directly.

The module holds the chain and nothing computed from it: the ratio
statistics read off a chain live in :mod:`polyapprox.exponents`.
"""

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import BudgetExceeded, IndexOutOfRange, PrecisionExhausted
from .intervals import RationalInterval
from .numbers import (
    DEFAULT_CAP,
    Comparison,
    NumberDescriptor,
    certified_abs,
    compare_abs,
    is_zero_at,
)
from .polynomials import IntegerPolynomial, shell_coeffs

# Nothing here calls these, but perfbench/spans.py installs its tracing
# wrappers on them in this module's namespace.
from .logs import ln_interval, ln_interval_of  # noqa: F401
from .numbers import eval_at  # noqa: F401

DEFAULT_VALUE_BITS = 128
DEFAULT_PREFIX_BUDGET = 30_000_000
DEFAULT_ORACLE_BUDGET = 300_000_000

_SCALE_BITS = 128
_POWER_SLACK = 32


@dataclass(frozen=True)
class BestApproxRecord:
    """One entry of a best approximation sequence.

    value is a certified enclosure of |P_k(zeta)|, strictly positive,
    with absolute width <= 2**-value_bits and relative width <= 2**-64.
    At the cap, a record carries the enclosure the cap allows, which may
    miss those targets (see numbers.certified_abs).
    """

    k: int
    poly: IntegerPolynomial
    height: int
    value: RationalInterval


@dataclass(frozen=True)
class BestApproxSequence:
    descriptor: dict
    n: int
    h_max: int
    records: tuple
    warnings: tuple
    ties: tuple
    cap: int
    value_bits: int

    def record(self, k: int) -> BestApproxRecord:
        """1-based access mirroring the subscript convention."""
        if not 1 <= k <= len(self.records):
            raise IndexOutOfRange(f"record index {k} outside 1..{len(self.records)}")
        return self.records[k - 1]

    def __len__(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "n": self.n,
            "h_max": self.h_max,
            "cap": self.cap,
            "value_bits": self.value_bits,
            "warnings": list(self.warnings),
            "ties": list(self.ties),
            "records": [
                {
                    "k": r.k,
                    "coeffs": list(r.poly.coeffs),
                    "height": r.height,
                    "value_lo": str(r.value.lo),
                    "value_hi": str(r.value.hi),
                }
                for r in self.records
            ],
        }

    @staticmethod
    def from_dict(
        data: dict, n: Optional[int] = None, h_max: Optional[int] = None
    ) -> "BestApproxSequence":
        """Rebuild a chain from to_dict() output.  ValueError unless k runs
        1..K, heights strictly increase and match the polynomials, values
        are positive and strictly decrease, and n, h_max (if given) match."""
        records = tuple(
            BestApproxRecord(
                k=row["k"],
                poly=IntegerPolynomial(row["coeffs"]),
                height=row["height"],
                value=RationalInterval(
                    Fraction(row["value_lo"]), Fraction(row["value_hi"])
                ),
            )
            for row in data["records"]
        )
        for name, want in (("n", n), ("h_max", h_max)):
            if want is not None and data[name] != want:
                raise ValueError(f"chain has {name}={data[name]}, not {want}")
        prev = None
        for k, rec in enumerate(records, start=1):
            if rec.k != k or rec.poly.height != rec.height or rec.value.lo <= 0:
                raise ValueError(f"record {k} is malformed")
            if prev is not None and not (
                prev.height < rec.height and rec.value.hi < prev.value.lo
            ):
                raise ValueError(f"record {k} does not improve on record {k - 1}")
            prev = rec
        return BestApproxSequence(
            descriptor=data["descriptor"],
            n=data["n"],
            h_max=data["h_max"],
            records=records,
            warnings=tuple(data.get("warnings", ())),
            ties=tuple(data.get("ties", ())),
            cap=data["cap"],
            value_bits=data["value_bits"],
        )


def _floor_scaled(x: Fraction, unit: int) -> int:
    return (x.numerator * unit) // x.denominator


def _ceil_scaled(x: Fraction, unit: int) -> int:
    return -((-x.numerator * unit) // x.denominator)


def _power_bounds(desc: NumberDescriptor, n: int, scale_bits: int):
    """Integer bounds unit*zeta^i for i = 0..n, sound on both sides."""
    unit = 1 << scale_bits
    iv = desc.refine(scale_bits + _POWER_SLACK)
    lo_list = [unit]
    hi_list = [unit]
    power = RationalInterval.point(Fraction(1))
    for _ in range(n):
        power = power * iv
        lo_list.append(_floor_scaled(power.lo, unit))
        hi_list.append(_ceil_scaled(power.hi, unit))
    return unit, lo_list, hi_list


def _sum_bounds(coeffs: tuple, start: int, p_lo: list, p_hi: list):
    """Integer bounds on the sum of c * unit*zeta^i, i counted from start."""
    lo = hi = 0
    for i, c in enumerate(coeffs, start=start):
        if c > 0:
            lo += c * p_lo[i]
            hi += c * p_hi[i]
        elif c < 0:
            lo += c * p_hi[i]
            hi += c * p_lo[i]
    return lo, hi


class _Chain:
    """Exact record chain shared by the engine and the oracle.

    Consumes per-shell candidate lists (coarse scaled bounds plus the
    coefficient tuple) in ascending shell order and maintains the
    incumbent record with certified exact comparisons.
    """

    def __init__(self, desc: NumberDescriptor, unit: int, cap: int, value_bits: int):
        self.desc = desc
        self.unit = unit
        self.cap = cap
        self.value_bits = value_bits
        self.records = []
        self.warnings = []
        self.ties = []
        self.inc_poly: Optional[IntegerPolynomial] = None
        self.inc_hi_scaled: Optional[int] = None
        self.inc_lo_scaled: Optional[int] = None

    def _certified_value(self, poly: IntegerPolynomial) -> Optional[RationalInterval]:
        try:
            return certified_abs(poly, self.desc, 64, self.cap,
                                 abs_bits=self.value_bits)
        except PrecisionExhausted:
            self.warnings.append(
                f"NearZero: |{poly}| not separated from 0 at cap {self.cap}; skipped"
            )
            return None

    def _compare(self, a: IntegerPolynomial, b: IntegerPolynomial):
        try:
            return compare_abs(a, b, self.desc, cap=self.cap)
        except PrecisionExhausted:
            return None

    def _record(self, h: int, poly: IntegerPolynomial, value: RationalInterval):
        poly = poly.canonical()
        assert poly.height == h
        self.records.append(
            BestApproxRecord(
                k=len(self.records) + 1, poly=poly, height=h, value=value
            )
        )
        self.inc_poly = poly
        self.inc_lo_scaled = _floor_scaled(value.lo, self.unit)
        self.inc_hi_scaled = _ceil_scaled(value.hi, self.unit)

    def offer(self, h: int, cands: list) -> None:
        """cands: list of (vlo, vhi, coeffs) with coeffs constant-first."""
        if not cands:
            return
        if self.inc_hi_scaled is not None:
            cands = [c for c in cands if c[0] < self.inc_hi_scaled]
        # exact zeros are outside the minimisation and must go before the
        # coarse minimum is chosen, or they mask every real candidate
        seen = set()
        kept = []
        for c in cands:
            if c[2] in seen:
                continue
            seen.add(c[2])
            if c[0] > 0 or not is_zero_at(IntegerPolynomial(c[2]), self.desc):
                kept.append(c)
        cands = kept
        if not cands:
            return
        cands.sort(key=lambda c: (c[1], c[0], c[2]))
        min_vhi = cands[0][1]
        contenders = [c for c in cands if c[0] <= min_vhi]

        if len(contenders) == 1 and contenders[0][0] > 0:
            vlo, vhi, coeffs = contenders[0]
            if self.inc_lo_scaled is None or vhi < self.inc_lo_scaled:
                poly = IntegerPolynomial(coeffs)
                value = self._certified_value(poly)
                if value is not None:
                    self._record(h, poly, value)
                return
            # coarse bounds overlap the incumbent; fall through

        polys = [IntegerPolynomial(c[2]) for c in contenders]

        best = polys[0]
        tied = []
        for poly in polys[1:]:
            outcome = self._compare(poly, best)
            if outcome is Comparison.LESS:
                best = poly
                tied = []
            elif outcome is Comparison.EQUAL:
                tied.append(poly)
                if poly.canonical().lex_key() < best.canonical().lex_key():
                    tied.append(best)
                    best = poly
            elif outcome is None:
                self.warnings.append(
                    f"NearTie: |{poly}| vs |{best}| indistinguishable at cap"
                    f" {self.cap}; lexicographically smaller kept"
                )
                if poly.canonical().lex_key() < best.canonical().lex_key():
                    best = poly

        if self.inc_poly is not None:
            outcome = self._compare(best, self.inc_poly)
            if outcome is None:
                self.warnings.append(
                    f"NearTie: |{best}| vs incumbent |{self.inc_poly}|"
                    f" indistinguishable at cap {self.cap}; no record"
                )
                return
            if outcome is not Comparison.LESS:
                return
        value = self._certified_value(best)
        if value is not None:
            self._record(h, best, value)
            if tied:
                kept = str(best)
                self.ties.extend(
                    f"Tie at height {h}: |{kept}| = |{other}|; kept {kept}"
                    for other in tied if other is not best
                )


def _orbit(width: int, h_max: int, unit: int, p_lo: list, p_hi: list):
    """The heads (c1..c_width), |c_i| <= h_max, sorted by their lo part
    mod unit, then by head: the keys, the rows (head, height, lo part, hi
    part) whose parts bound the sum of c_i * unit*zeta^i, and the spread,
    a bound on every row's hi part - lo part."""

    def coordinate(i):
        lo_i, hi_i = p_lo[i], p_hi[i]
        return ([((c,), -c, c * hi_i, c * lo_i) for c in range(-h_max, 0)]
                + [((c,), c, c * lo_i, c * hi_i) for c in range(h_max + 1)])

    rows = coordinate(1)
    for i in range(2, width + 1):
        step = coordinate(i)
        rows = [(head + c, max(height, a), lo + c_lo, hi + c_hi)
                for head, height, lo, hi in rows
                for c, a, c_lo, c_hi in step]
    # rows are in ascending head order, which the stable sort keeps
    keys = [row[2] % unit for row in rows]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    spread = h_max * sum(p_hi[i] - p_lo[i] for i in range(1, width + 1))
    return [keys[j] for j in order], [rows[j] for j in order], spread


def _orbit_window(keys: list, rows: list, unit: int, end: int,
                  length: int) -> list:
    """The rows whose orbit key lies in [end - length, end] modulo unit."""
    if length + 1 >= unit:
        return rows
    end %= unit
    start = end - length
    if start >= 0:
        return rows[bisect_left(keys, start):bisect_right(keys, end)]
    return rows[:bisect_right(keys, end)] + rows[bisect_left(keys, start + unit):]


def best_approx_sequence(
    desc: NumberDescriptor,
    n: int,
    h_max: int,
    cap: int = DEFAULT_CAP,
    value_bits: int = DEFAULT_VALUE_BITS,
    budget: int = DEFAULT_PREFIX_BUDGET,
) -> BestApproxSequence:
    """Compute the certified record chain up to height h_max.

    Pruned single pass: shells are visited in increasing height order and
    every candidate that could still beat the running incumbent is either
    adjudicated now (its shell) or parked in a future bucket (its constant
    term dominates the height).  Soundness of the pruning rests on the
    incumbent value only ever shrinking.

    Prefixes (c1, ..., cn) are not enumerated.  A prefix splits into a
    head (c1..cw) and a tail; only the tails are walked, at the shell of
    their height, and the heads that can still beat the incumbent are
    read off the orbit, the sorted residues of c1*zeta + ... + cw*zeta^w
    mod 1 over |c_i| <= h_max, by bisection.  Each tail is looked up
    twice: before the shell's offer for heads up to the tail's height,
    and after it, against the new incumbent, for higher heads, whose
    candidates wait in the buckets.

    The head width w is 1 for n <= 3 and 2 for n >= 4; a wider orbit
    costs more than it saves at n = 3, where most of a pair orbit falls
    in the early shells' loose windows.  At w = 2 the tails are
    (c3..cn) != 0; the prefixes (c1, c2, 0, ..., 0) are walked as at
    w = 1, with the tail (c2, 0, ..., 0).

    Soundness of w = 2: a prefix (c1, c2, t) with |c2| <= max|t| is
    visited when it was at w = 1.  One with |c2| > max|t| was visited at
    shell |c2| and bucketed at some shell s >= |c2|.  At w = 2 it is
    visited earlier, at shell max|t| after that shell's offer, against
    an incumbent no smaller, so visit buckets a superset of the w = 1
    candidates, each in the same bucket.  An extra candidate has vlo at
    least the incumbent of its w = 1 visit (or at least unit, if only
    the w = 2 visit had no incumbent), hence at least the incumbent when
    shell s is offered, and the first filter of that offer drops it
    before any zero test or comparison.  The candidates that reach
    adjudication are the same, and so is every output.
    """
    if n < 1:
        raise ValueError("degree bound must be >= 1")
    if h_max < 1:
        raise ValueError("height bound must be >= 1")
    box = (2 * h_max + 1) ** n
    if box > budget:
        raise BudgetExceeded(
            f"prefix box of size {box} exceeds budget {budget}"
        )

    unit, p_lo, p_hi = _power_bounds(desc, n, _SCALE_BITS)
    chain = _Chain(desc, unit, cap, value_bits)
    bucket: dict = {}
    width = 1 if n <= 3 else 2
    zero_tail = (0,) * (n - 1)
    orbits = [_orbit(w, h_max, unit, p_lo, p_hi)
              for w in range(1, min(width, n - 1) + 1)]

    def visit(prefix, s_lo, s_hi, p, inc_hi):
        """Candidates of one prefix of height p: the constants nearest the
        minimiser -S/unit, clamped to |c0| <= h_max, into their buckets.

        Every other constant has vlo >= unit.  Once shell 1 has recorded,
        the incumbent is at most the constant 1, so such a candidate can
        never win or tie.  If shell 1 records nothing, a height-1
        polynomial vanishes at zeta unseen by the zero test, and h*minpoly
        is the coarse minimum of every shell h: the chain stays empty.
        Before the first record the nearest constant may be an exact zero,
        so the next one out on each side is tried too."""
        # value of prefix + c0 is |S + c0*unit|, S in [s_lo, s_hi]; [lo, hi]
        # bounds S + c0*unit and steps by unit with c0
        widen = 1 if inc_hi is None else 0
        first = min(max((-s_hi) // unit - widen, -h_max), h_max)
        last = min(max(-(s_lo // unit) + widen, -h_max), h_max)
        lo, hi = s_lo + first * unit, s_hi + first * unit
        for c0 in range(first, last + 1):
            if lo > 0:
                vlo, vhi = lo, hi
            elif hi < 0:
                vlo, vhi = -hi, -lo
            else:
                vlo, vhi = 0, max(-lo, hi)
            lo += unit
            hi += unit
            if inc_hi is not None and vlo >= inc_hi:
                continue
            shell = p if -p <= c0 <= p else abs(c0)
            bucket.setdefault(shell, []).append((vlo, vhi, (c0,) + prefix))

    def lookup(walks, h, inc_hi, beyond):
        """Visit each (head, tail) that can still beat inc_hi, for the
        (orbit, tails) walks of shell h: the heads of height <= h, or
        those of height > h if beyond.

        Every candidate of a prefix has vlo at least the distance from
        [s_lo, s_hi] to unit*Z, so a useful prefix has that distance below
        inc_hi.  As s_lo is the orbit key of the head plus r_lo (mod unit)
        and s_hi - s_lo is at most spread + r_hi - r_lo, its key then lies
        in the window of length spread + r_hi - r_lo + 2*inc_hi that ends
        at inc_hi - r_lo."""
        for (keys, rows, spread), tails in walks:
            for tail, r_lo, r_hi in tails:
                if inc_hi is None:
                    hits = rows
                else:
                    hits = _orbit_window(
                        keys, rows, unit, inc_hi - r_lo,
                        spread + r_hi - r_lo + 2 * inc_hi,
                    )
                for head, height, lo, hi in hits:
                    if (height > h) != beyond:
                        continue
                    visit(head + tail, lo + r_lo, hi + r_hi, max(height, h),
                          inc_hi)

    def tails(start, shell):
        """The tails (c_start..cn) of one shell, with their bounds."""
        return [(tail, *_sum_bounds(tail, start, p_lo, p_hi))
                for tail in shell]

    for h in range(1, h_max + 1):
        inc_hi = chain.inc_hi_scaled
        visit((h,) + zero_tail, h * p_lo[1], h * p_hi[1], h, inc_hi)
        if n == 1:
            walks = []
        elif width == 1:
            walks = [(orbits[0], tails(2, shell_coeffs(n - 1, h)))]
        else:
            walks = [(orbits[0], tails(2, [(h,) + zero_tail[1:]])),
                     (orbits[1], tails(3, shell_coeffs(n - 2, h)))]
        lookup(walks, h, inc_hi, False)

        cands = bucket.pop(h, [])
        if h == 1:
            cands.append((unit, unit, (1,)))
        chain.offer(h, cands)
        lookup(walks, h, chain.inc_hi_scaled, True)

    return BestApproxSequence(
        descriptor=desc.to_dict(),
        n=n,
        h_max=h_max,
        records=tuple(chain.records),
        warnings=tuple(chain.warnings),
        ties=tuple(chain.ties),
        cap=cap,
        value_bits=value_bits,
    )


def oracle_best_approx(
    desc: NumberDescriptor,
    n: int,
    h_max: int,
    cap: int = DEFAULT_CAP,
    value_bits: int = DEFAULT_VALUE_BITS,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> BestApproxSequence:
    """Unpruned reference search over the full coefficient box.

    Shares the exact adjudication layer with the engine but none of the
    pruning: every canonical polynomial is scored coarsely, per-shell
    near-minimal candidates are kept, and the chain is rebuilt afterwards.
    The kept set (coarse lower bound at most the shell's final minimum
    upper bound) does not depend on the order of enumeration.
    """
    if n < 1:
        raise ValueError("degree bound must be >= 1")
    if h_max < 1:
        raise ValueError("height bound must be >= 1")
    box = (2 * h_max + 1) ** (n + 1)
    if box > budget:
        raise BudgetExceeded(f"full box of size {box} exceeds budget {budget}")

    unit, p_lo, p_hi = _power_bounds(desc, n, _SCALE_BITS)
    best_vhi = [None] * (h_max + 1)
    shell_cands: list = [[] for _ in range(h_max + 1)]
    c0_scaled = [c0 * unit for c0 in range(-h_max, h_max + 1)]

    def consider(shell: int, vlo: int, vhi: int, coeffs: tuple) -> None:
        """Keep a candidate; callers skip those above best_vhi[shell]."""
        if vlo == 0 and is_zero_at(IntegerPolynomial(coeffs), desc):
            return
        cands = shell_cands[shell]
        cands.append((vlo, vhi, coeffs))
        top = best_vhi[shell]
        if top is None or vhi < top:
            best_vhi[shell] = top = vhi
        if len(cands) > 512:
            shell_cands[shell] = [c for c in cands if c[0] <= top]

    for c0 in range(1, h_max + 1):
        consider(c0, c0 * unit, c0 * unit, (c0,))

    for h_p in range(1, h_max + 1):
        for prefix in shell_coeffs(n, h_p):
            s_lo, s_hi = _sum_bounds(prefix, 1, p_lo, p_hi)
            for idx, c0u in enumerate(c0_scaled):
                c0 = idx - h_max
                lo = s_lo + c0u
                hi = s_hi + c0u
                if lo > 0:
                    vlo, vhi = lo, hi
                elif hi < 0:
                    vlo, vhi = -hi, -lo
                else:
                    vlo, vhi = 0, max(-lo, hi)
                shell = h_p if -h_p <= c0 <= h_p else (c0 if c0 > 0 else -c0)
                top = best_vhi[shell]
                if top is not None and vlo > top:
                    continue
                consider(shell, vlo, vhi, (c0,) + prefix)

    chain = _Chain(desc, unit, cap, value_bits)
    for h in range(1, h_max + 1):
        chain.offer(h, [c for c in shell_cands[h] if c[0] <= best_vhi[h]])

    return BestApproxSequence(
        descriptor=desc.to_dict(),
        n=n,
        h_max=h_max,
        records=tuple(chain.records),
        warnings=tuple(chain.warnings),
        ties=tuple(chain.ties),
        cap=cap,
        value_bits=value_bits,
    )


def micro_reference_records(
    desc: NumberDescriptor, n: int, h_max: int, cap: int = DEFAULT_CAP
) -> list:
    """Tiny-input reference: exhaustive per-shell minimisation using only
    the exact comparison primitives.  Exponential; keep h_max small."""
    inc: Optional[IntegerPolynomial] = None
    records = []
    for h in range(1, h_max + 1):
        best = None
        for coeffs in product(range(-h, h + 1), repeat=n + 1):
            if max(abs(c) for c in coeffs) != h:
                continue
            poly = IntegerPolynomial(coeffs)
            if poly.is_zero():
                continue
            poly = poly.canonical()
            if is_zero_at(poly, desc):
                continue
            if best is None:
                best = poly
                continue
            outcome = compare_abs(poly, best, desc, cap=cap)
            if outcome is Comparison.LESS:
                best = poly
            elif outcome is Comparison.EQUAL:
                if poly.lex_key() < best.lex_key():
                    best = poly
        if best is None:
            continue
        if inc is not None:
            outcome = compare_abs(best, inc, desc, cap=cap)
            if outcome is not Comparison.LESS:
                continue
        inc = best
        records.append((h, best))
    return records


def _certified_floor(iv: RationalInterval) -> Optional[int]:
    lo_floor = iv.lo.numerator // iv.lo.denominator
    hi_floor = iv.hi.numerator // iv.hi.denominator
    if lo_floor == hi_floor:
        return lo_floor
    return None


def continued_fraction_quotients(
    desc: NumberDescriptor, count: int, cap: int = DEFAULT_CAP
) -> list:
    """First partial quotients of the target, each floor certified."""
    bits = 64
    while True:
        iv = desc.refine(bits)
        quotients = []
        x = iv
        ok = True
        for _ in range(count):
            a = _certified_floor(x)
            if a is None:
                ok = False
                break
            quotients.append(a)
            frac = x - Fraction(a)
            if not frac.strictly_positive():
                ok = False
                break
            x = RationalInterval(1 / frac.hi, 1 / frac.lo)
        if ok:
            return quotients
        if bits >= cap:
            raise PrecisionExhausted(
                "could not certify continued fraction quotients", cap=cap
            )
        bits *= 2


def n1_convergent_records(
    desc: NumberDescriptor, h_max: int, cap: int = DEFAULT_CAP
) -> list:
    """Degree-1 record polynomials q*T - p from convergents p/q.

    Valid for targets in (0, 1): there the height of q*T - p is q, so the
    classical best approximation theory gives the records directly.  The
    zeroth convergent participates only when the first quotient exceeds 1.
    """
    quotients = continued_fraction_quotients(desc, 2, cap=cap)
    if quotients[0] != 0:
        raise ValueError("convergent cross-check requires a target in (0, 1)")
    polys = []
    h_prev, k_prev = 1, 0
    h_cur, k_cur = quotients[0], 1
    if quotients[1] >= 2:
        polys.append(IntegerPolynomial((-h_cur, k_cur)).canonical())
    idx = 1
    known = quotients
    while True:
        if idx >= len(known):
            known = continued_fraction_quotients(desc, len(known) * 2, cap=cap)
        a = known[idx]
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
        if max(k_cur, abs(h_cur)) > h_max:
            break
        polys.append(IntegerPolynomial((-h_cur, k_cur)).canonical())
        idx += 1
    return polys
