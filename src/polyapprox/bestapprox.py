"""Best approximation polynomial sequences.

For a target number zeta and a degree bound n, the records are the integer
polynomials P (nonzero, deg <= n) that strictly improve the minimum of
|P(zeta)| as the height budget grows: P_k has the smallest certified
|P(zeta)| among all polynomials of height <= H(P_k), heights strictly
increase, and values strictly decrease.  Polynomials with P(zeta) = 0
exactly are excluded from the minimisation.

Three independent searches live here:

* :func:`best_approx_sequence` -- the production engine.  A single
  shell-ascending pass with scaled integer bounds, nearest-constant
  candidates and future buckets.  It walks the tails (c2..cn) of the
  coefficient prefixes and finds the c1 worth visiting by bisection in
  the sorted orbit c1*zeta mod 1, |c1| <= h_max: a prefix can only beat
  the incumbent if its value lies within the incumbent's bound of an
  integer, which confines c1*zeta mod 1 to a short window.  Ambiguous
  comparisons escalate to exact rational arithmetic.
* :func:`oracle_best_approx` -- an unpruned box scan that shares only the
  exact adjudication layer.  Slow, used to validate the engine.
* :func:`n1_convergent_records` -- for n = 1 and 0 < zeta < 1 the records
  are continued fraction convergents; this derives them directly.
"""

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import BudgetExceeded, IndexOutOfRange, PrecisionExhausted
from .intervals import RationalInterval
from .logs import ln_interval, ln_interval_of
from .numbers import Comparison, NumberDescriptor, compare_abs, eval_at, is_zero_at
from .polynomials import IntegerPolynomial, shell_coeffs

DEFAULT_CAP = 4096
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


def _abs_bounds(lo: int, hi: int):
    if lo > 0:
        return lo, hi
    if hi < 0:
        return -hi, -lo
    return 0, max(-lo, hi)


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
        bits = self.value_bits
        abs_tol = Fraction(1, 1 << self.value_bits)
        while True:
            iv = eval_at(poly, self.desc, bits).abs()
            if iv.lo > 0:
                if iv.width <= abs_tol and iv.width * (1 << 64) <= iv.lo:
                    return iv
            elif bits >= self.cap:
                self.warnings.append(
                    f"NearZero: |{poly}| not separated from 0 at cap {self.cap}; skipped"
                )
                return None
            if bits >= self.cap and iv.lo > 0:
                raise PrecisionExhausted(
                    f"could not certify value of {poly} to width target",
                    cap=self.cap,
                )
            bits *= 2

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
            for other in tied:
                if other is not best:
                    self.ties.append(
                        f"Tie at height {h}: |{best}| = |{other}|; kept {best}"
                    )


def _orbit_window(keys: list, c1s: list, unit: int, end: int,
                  length: int) -> list:
    """The c1 whose orbit key lies in [end - length, end] modulo unit."""
    if length + 1 >= unit:
        return c1s
    end %= unit
    start = end - length
    if start >= 0:
        return c1s[bisect_left(keys, start):bisect_right(keys, end)]
    return c1s[:bisect_right(keys, end)] + c1s[bisect_left(keys, start + unit):]


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

    Prefixes (c1, ..., cn) are not enumerated.  Only the tails (c2..cn)
    are walked, at the shell where each first appears; the c1 that can
    still beat the incumbent are read off the sorted residues of c1*zeta
    mod 1 (|c1| <= h_max) by bisection.  Each tail is looked up twice:
    before the shell's offer for |c1| up to the tail's height, and after
    it, against the new incumbent, for larger |c1|, whose candidates wait
    in the buckets.
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
    lo1, hi1 = p_lo[1], p_hi[1]
    zero_tail = (0,) * (n - 1)
    if n >= 2:
        orbit = sorted(
            ((c1 * lo1 if c1 >= 0 else c1 * hi1) % unit, c1)
            for c1 in range(-h_max, h_max + 1)
        )
        keys = [key for key, _ in orbit]
        c1s = [c1 for _, c1 in orbit]
        spread = h_max * (hi1 - lo1)

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
        # value of prefix + c0 is |S + c0*unit|
        widen = 1 if inc_hi is None else 0
        first = min(max((-s_hi) // unit - widen, -h_max), h_max)
        last = min(max(-(s_lo // unit) + widen, -h_max), h_max)
        for c0 in range(first, last + 1):
            vlo, vhi = _abs_bounds(s_lo + c0 * unit, s_hi + c0 * unit)
            if inc_hi is not None and vlo >= inc_hi:
                continue
            shell = p if -p <= c0 <= p else abs(c0)
            bucket.setdefault(shell, []).append((vlo, vhi, (c0,) + prefix))

    def lookup(tails, h, inc_hi, beyond):
        """Visit each (c1, tail) that can still beat inc_hi, for the tails
        of shell h: those with |c1| <= h, or with |c1| > h if beyond.

        Every candidate of a prefix has vlo at least the distance from
        [s_lo, s_hi] to unit*Z, so a useful prefix has that distance below
        inc_hi.  As s_lo is the orbit key of c1 plus r_lo (mod unit) and
        s_hi - s_lo is at most spread + r_hi - r_lo, its key then lies in
        the window of length spread + r_hi - r_lo + 2*inc_hi that ends at
        inc_hi - r_lo."""
        for tail, r_lo, r_hi in tails:
            if inc_hi is None:
                hits = c1s
            else:
                hits = _orbit_window(
                    keys, c1s, unit, inc_hi - r_lo,
                    spread + r_hi - r_lo + 2 * inc_hi,
                )
            for c1 in hits:
                if (abs(c1) > h) != beyond:
                    continue
                if c1 >= 0:
                    s_lo, s_hi = c1 * lo1 + r_lo, c1 * hi1 + r_hi
                else:
                    s_lo, s_hi = c1 * hi1 + r_lo, c1 * lo1 + r_hi
                visit((c1,) + tail, s_lo, s_hi, max(abs(c1), h), inc_hi)

    for h in range(1, h_max + 1):
        inc_hi = chain.inc_hi_scaled
        visit((h,) + zero_tail, h * lo1, h * hi1, h, inc_hi)
        tails = []
        for tail in shell_coeffs(n - 1, h):
            r_lo = 0
            r_hi = 0
            for i, c in enumerate(tail, start=2):
                if c > 0:
                    r_lo += c * p_lo[i]
                    r_hi += c * p_hi[i]
                elif c < 0:
                    r_lo += c * p_hi[i]
                    r_hi += c * p_lo[i]
            tails.append((tail, r_lo, r_hi))
        lookup(tails, h, inc_hi, False)

        cands = bucket.pop(h, [])
        if h == 1:
            cands.append((unit, unit, (1,)))
        chain.offer(h, cands)
        lookup(tails, h, chain.inc_hi_scaled, True)

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
            s_lo = 0
            s_hi = 0
            for i, c in enumerate(prefix, start=1):
                if c > 0:
                    s_lo += c * p_lo[i]
                    s_hi += c * p_hi[i]
                elif c < 0:
                    s_lo += c * p_hi[i]
                    s_hi += c * p_lo[i]
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


@dataclass(frozen=True)
class RatioRow:
    k: int
    height: int
    next_height: int
    ratio: RationalInterval

    @property
    def midpoint(self) -> float:
        return float(self.ratio.mid)


@dataclass(frozen=True)
class UniformRatioReport:
    """Finite-window uniform approximation ratios.

    Row k holds -log|P_k(zeta)| / log H_{k+1}: how well the record P_k
    still does when the budget has grown to the next record's height.
    The running minimum from k0 onward is a finite-horizon proxy for the
    uniform exponent; it is labelled as such and is not a limit claim.
    """

    rows: tuple
    k0: int
    running_min: Optional[RationalInterval]
    label: str = "finite-window proxy"


def uniform_ratio_report(
    seq: BestApproxSequence, k0: int = 1, log_bits: int = 64
) -> UniformRatioReport:
    rows = []
    running = None
    records = seq.records
    for i in range(len(records) - 1):
        rec = records[i]
        nxt = records[i + 1]
        if nxt.height < 2:
            continue
        num = -ln_interval_of(rec.value, log_bits)
        den = ln_interval(Fraction(nxt.height), log_bits)
        ratio = num.div_by_positive(den)
        rows.append(
            RatioRow(k=rec.k, height=rec.height, next_height=nxt.height, ratio=ratio)
        )
        if rec.k >= k0:
            running = ratio if running is None else running.min_with(ratio)
    return UniformRatioReport(rows=tuple(rows), k0=k0, running_min=running)


@dataclass(frozen=True)
class GrowthRow:
    k: int
    height: int
    next_height: int
    rho: RationalInterval

    @property
    def midpoint(self) -> float:
        return float(self.rho.mid)


def height_growth_report(seq: BestApproxSequence, log_bits: int = 64) -> tuple:
    """Consecutive height growth exponents log H_{k+1} / log H_k."""
    rows = []
    records = seq.records
    for i in range(len(records) - 1):
        rec = records[i]
        nxt = records[i + 1]
        if rec.height < 2:
            continue
        num = ln_interval(Fraction(nxt.height), log_bits)
        den = ln_interval(Fraction(rec.height), log_bits)
        rows.append(
            GrowthRow(
                k=rec.k,
                height=rec.height,
                next_height=nxt.height,
                rho=num.div_by_positive(den),
            )
        )
    return tuple(rows)
