"""Best approximation polynomial sequences.

For a target number zeta and a degree bound n, the records are the integer
polynomials P (nonzero, deg <= n) that strictly improve the minimum of
|P(zeta)| as the height budget grows: P_k has the smallest certified
|P(zeta)| among all polynomials of height <= H(P_k), heights strictly
increase, and values strictly decrease.  Polynomials with P(zeta) = 0
exactly are excluded from the minimisation.

The engine, :func:`best_approx_sequence`, is a single shell-ascending
pass with scaled integer bounds, nearest-constant candidates and future
buckets.  It splits each coefficient prefix into a head and a tail,
walks only the tails, and finds the heads worth visiting by bisection
in their sorted orbit mod 1: a prefix can only beat the incumbent if
its value lies within the incumbent's bound of an integer, which
confines the head's residue to a short window.  The head is c1 (orbit
c1*zeta mod 1) for n <= 3 and the pair (c1, c2) (orbit c1*zeta +
c2*zeta^2 mod 1, (2*h_max + 1)^2 entries) for n >= 4, a
meet-in-the-middle split after Schroeppel and Shamir.  The pair visits
some prefixes at an earlier shell than c1 alone would, against a looser
incumbent; the extra candidates this buckets are dropped by the first
filter of the offer that receives them, so the adjudicated candidates,
and every output, are those of the one-coordinate walk.  With a minimal
polynomial m, each candidate the chain must decide is reduced modulo m
once (polynomials.residue): residue 0 is an exact zero, and two
candidates whose residues agree up to sign tie exactly, as m divides
their difference or sum; only pairs of different residue classes reach
compare_abs.  Ambiguous comparisons escalate to exact rational
arithmetic.

The module holds the engine and the chain (_check_search, _Chain), and
nothing computed from the chain: the ratio statistics read off a chain
live in :mod:`polyapprox.exponents`.  The reference searches the engine
is tested against share _check_search and _Chain and live beside the
tests, in tests/references.py.
"""

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from math import inf
from typing import NamedTuple, Optional

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
from .polynomials import (IntegerPolynomial, lowest_positive, residue,
                          shell_coeffs)

# Nothing here calls these, but perfbench/spans.py installs its tracing
# wrappers on them in this module's namespace.
from .logs import ln_interval, ln_interval_of  # noqa: F401
from .numbers import eval_at  # noqa: F401

DEFAULT_VALUE_BITS = 128
ORBIT_ROW_LIMIT = 2_000_000
TAIL_LIMIT = 30_000_000

_SCALE_BITS = 128
_POWER_SLACK = 32


class BestApproxRecord(NamedTuple):
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


class BestApproxSequence:
    __slots__ = ("descriptor", "n", "h_max", "records", "warnings", "ties",
                 "cap", "value_bits")

    def __init__(self, descriptor: dict, n: int, h_max: int, records: tuple,
                 warnings: tuple, ties: tuple, cap: int, value_bits: int):
        self.descriptor, self.n, self.h_max = descriptor, n, h_max
        self.records, self.warnings, self.ties = records, warnings, ties
        self.cap, self.value_bits = cap, value_bits

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

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


def _check_search(n: int, h_max: int, cap: int) -> None:
    """The input checks of a record search, run before any refinement."""
    if n < 1:
        raise ValueError("degree bound must be >= 1")
    if h_max < 1:
        raise ValueError("height bound must be >= 1")
    if cap < 1:
        raise ValueError(f"precision cap must be >= 1, got {cap}")


class _Chain:
    """Exact record chain shared by the engine and the oracle.

    Builds the power bounds unit*zeta^i that every candidate is scored
    with (p_lo, p_hi), consumes per-shell candidate lists (coarse scaled
    bounds plus the coefficient tuple) in ascending shell order, and
    maintains the incumbent record with certified exact comparisons.
    """

    def __init__(self, desc: NumberDescriptor, n: int, h_max: int, cap: int,
                 value_bits: int):
        self.desc = desc
        self.n = n
        self.length = n + 1
        self.h_max = h_max
        self.unit, self.p_lo, self.p_hi = _power_bounds(desc, n, _SCALE_BITS)
        self.cap = cap
        self.value_bits = value_bits
        self.records = []
        self.warnings = []
        self.ties = []
        self.inc_poly: Optional[IntegerPolynomial] = None
        self.inc_class: Optional[tuple] = None
        self.inc_hi_scaled: Optional[int] = None
        self.inc_lo_scaled: Optional[int] = None

    def sequence(self) -> BestApproxSequence:
        return BestApproxSequence(
            descriptor=self.desc.to_dict(), n=self.n, h_max=self.h_max,
            records=tuple(self.records), warnings=tuple(self.warnings),
            ties=tuple(self.ties), cap=self.cap, value_bits=self.value_bits)

    def _certified_value(self, poly: IntegerPolynomial) -> Optional[RationalInterval]:
        try:
            return certified_abs(poly, self.desc, 64, self.cap,
                                 abs_bits=self.value_bits)
        except PrecisionExhausted:
            self.warnings.append(
                f"NearZero: |{poly}| not separated from 0 at cap {self.cap}; skipped"
            )
            return None

    def _is_zero(self, coeffs: tuple) -> bool:
        """Exact zero test of a tuple: residue 0 modulo the minpoly, else
        is_zero_at."""
        m = self.desc.minpoly
        if m is not None and not any(residue(m.coeffs, coeffs, self.length)):
            return True
        return is_zero_at(IntegerPolynomial(coeffs), self.desc)

    def _class(self, coeffs: tuple) -> Optional[tuple]:
        """The residue class of a tuple: lowest_positive of its residue
        modulo the minpoly at the chain's length; None with no minpoly."""
        m = self.desc.minpoly
        if m is None:
            return None
        return lowest_positive(residue(m.coeffs, coeffs, self.length))

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
        self.inc_class = self._class(poly.coeffs)
        self.inc_lo_scaled = _floor_scaled(value.lo, self.unit)
        self.inc_hi_scaled = _ceil_scaled(value.hi, self.unit)

    def offer(self, h: int, cands: list) -> None:
        """cands: list of (vlo, vhi, coeffs) with coeffs constant-first.

        With a minpoly m, the tuples are reduced modulo m at the chain's
        length L = n + 1 (polynomials.residue; a shorter tuple, such as the
        constant (1,), is padded with zeros), so every residue is
        lc(m)**K * (c mod m) at one K.  A candidate with coarse vlo = 0 and
        residue 0 is an exact zero and goes without is_zero_at; one with a
        nonzero residue still goes to is_zero_at, whose gcd + Sturm step
        finds a zero through a proper factor of a reducible m.

        Residue classes decide ties.  If R_P = +-R_Q, m divides P -+ Q and
        m(zeta) = 0, so |P(zeta)| = |Q(zeta)| for every m, reducible
        included.  A contender in the current best's class (lowest_positive
        of its residue) is EQUAL to it, and a best in the incumbent's class
        ties the incumbent and makes no record, without compare_abs; when
        every contender is in that class, the offer ends there.  Pairs
        of different classes still go to compare_abs, the only step that
        can find a tie through a proper factor of m, warn of a near tie, or
        refine.  It sees the same cross-class pairs in the same order as
        when every pair went to it, and on a same-class pair it answered
        EQUAL from its zero tests, which never refine, so the refinement
        history and every output are unchanged.
        """
        if self.inc_hi_scaled is not None:
            cands = [c for c in cands if c[0] < self.inc_hi_scaled]
        # exact zeros are outside the minimisation and must go before the
        # coarse minimum is chosen, or they mask every real candidate
        cands = [c for c in cands if c[0] > 0 or not self._is_zero(c[2])]
        if not cands:
            return
        min_vhi = min([c[1] for c in cands])
        contenders = [c for c in cands if c[0] <= min_vhi]
        contenders.sort(key=lambda c: (c[1], c[0], c[2]))

        if len(contenders) == 1 and contenders[0][0] > 0:
            vlo, vhi, coeffs = contenders[0]
            if self.inc_lo_scaled is None or vhi < self.inc_lo_scaled:
                poly = IntegerPolynomial(coeffs)
                value = self._certified_value(poly)
                if value is not None:
                    self._record(h, poly, value)
                return
            # coarse bounds overlap the incumbent; fall through

        classes = [self._class(c[2]) for c in contenders]
        if (self.inc_class is not None
                and classes.count(self.inc_class) == len(classes)):
            return  # every contender, so the best, ties the incumbent
        polys = [IntegerPolynomial(c[2]) for c in contenders]
        keys = [poly.canonical().coeffs for poly in polys]

        best, best_key, best_class = polys[0], keys[0], classes[0]
        tied = []
        for poly, key, cls in zip(polys[1:], keys[1:], classes[1:]):
            if cls is not None and cls == best_class:
                outcome = Comparison.EQUAL
            else:
                outcome = self._compare(poly, best)
            if outcome is Comparison.LESS:
                best, best_key, best_class = poly, key, cls
                tied = []
            elif outcome is Comparison.EQUAL:
                tied.append(poly)
                if key < best_key:
                    tied.append(best)
                    best, best_key, best_class = poly, key, cls
            elif outcome is None:
                self.warnings.append(
                    f"NearTie: |{poly}| vs |{best}| indistinguishable at cap"
                    f" {self.cap}; lexicographically smaller kept"
                )
                if key < best_key:
                    best, best_key, best_class = poly, key, cls

        if self.inc_poly is not None:
            if best_class is not None and best_class == self.inc_class:
                return  # an exact tie with the incumbent: no record
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
    before the shell's offer for heads up to the tail's height, and again
    after it, against the new incumbent, for higher heads, whose
    candidates wait in the buckets.  The second lookup is made only for
    the tails whose first window held a higher head: the incumbent only
    shrinks, so the window after the offer, [-inc' - spread - r_hi,
    inc' - r_lo] with inc' <= inc, lies inside the one before it, and a
    tail not listed has no higher head there to add.

    The prefix (h, 0, ..., 0) is visited at shell h only when its key
    passes the same window test: a multiple of unit can lie within
    inc = chain.inc_hi_scaled of its scaled value [z_lo, z_hi] =
    h*[p_lo[1], p_hi[1]] only if (inc - z_lo) mod unit <= (z_hi - z_lo)
    + 2*inc, and always before the first record.  At n = 1 it is the
    only prefix, so this test alone decides every shell.  A shell is
    offered only when its bucket holds a candidate, or at shell 1, which
    also offers the constant 1.

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

    Two limits on (n, h_max) alone run after the input checks and before
    any refinement; either raises BudgetExceeded.  ORBIT_ROW_LIMIT bounds
    the memory: the orbit rows built, the sum of (2*h_max + 1)**w over
    w = 1..min(width, n - 1), at about 330-520 bytes a row.  TAIL_LIMIT
    bounds the time: the tails walked, h_max + ((2*h_max + 1)**(n - width)
    - 1) / 2; a run near it can take minutes.
    """
    _check_search(n, h_max, cap)
    width = 1 if n <= 3 else 2
    widths = range(1, min(width, n - 1) + 1)
    side = 2 * h_max + 1
    built = sum(side ** w for w in widths)
    if built > ORBIT_ROW_LIMIT:
        raise BudgetExceeded(f"{built} orbit rows exceed {ORBIT_ROW_LIMIT}")
    walked = h_max + (side ** (n - width) - 1) // 2
    if walked > TAIL_LIMIT:
        raise BudgetExceeded(f"{walked} tails exceed {TAIL_LIMIT}")

    chain = _Chain(desc, n, h_max, cap, value_bits)
    unit, p_lo, p_hi = chain.unit, chain.p_lo, chain.p_hi
    bucket = defaultdict(list)
    zero_tail = (0,) * (n - 1)
    orbits = [_orbit(w, h_max, unit, p_lo, p_hi) for w in widths]

    def visit(walks, h, inc_hi, beyond):
        """Bucket the candidates of each prefix head + tail that can still
        beat inc_hi, for the (orbit, tails) walks of shell h: the heads of
        height <= h, or those of height > h if beyond.  An orbit is
        (keys, rows, spread); its rows are (head, height, lo part, hi part).
        Returns the walks cut to the tails whose window held a row of the
        other side, walks left empty dropped: before the offer, the tails
        that have a head of height > h for the pass after it.

        Every candidate of a prefix has vlo at least the distance from
        [s_lo, s_hi] to unit*Z, so a useful prefix has that distance below
        inc_hi.  As s_lo is the orbit key of the head plus r_lo (mod unit)
        and s_hi - s_lo is at most spread + r_hi - r_lo, its key then lies
        in the window of length spread + r_hi - r_lo + 2*inc_hi that ends
        at inc_hi - r_lo.  With no incumbent, or no keys (a batch of rows
        taken whole), every row is a hit.

        A prefix of height p tries the constants nearest the minimiser
        -S/unit, clamped to |c0| <= h_max.  Every other constant has
        vlo >= unit.  Once shell 1 has recorded, the incumbent is at most
        the constant 1, so such a candidate can never win or tie.  If
        shell 1 records nothing, a height-1 polynomial vanishes at zeta
        unseen by the zero test, and h*minpoly is the coarse minimum of
        every shell h: the chain stays empty.  Before the first record the
        nearest constant may be an exact zero, so the next one out on each
        side is tried too (widen = 1, with no limit on vlo)."""
        widen, limit = (1, inf) if inc_hi is None else (0, inc_hi)
        later = []
        for orbit, tails in walks:
            keys, rows, spread = orbit
            listed = []
            for tail_bounds in tails:
                tail, r_lo, r_hi = tail_bounds
                if inc_hi is None or keys is None:
                    hits = rows
                else:
                    hits = _orbit_window(keys, rows, unit, inc_hi - r_lo,
                                         spread + r_hi - r_lo + 2 * inc_hi)
                skip = False
                for head, height, part_lo, part_hi in hits:
                    if (height > h) != beyond:
                        skip = True
                        continue
                    p = height if beyond else h
                    # value of prefix + c0 is |S + c0*unit|, S in [s_lo,
                    # s_hi]; [lo, hi] bounds S + c0*unit, stepping by unit;
                    # first and last are clamped to [-h_max, h_max]
                    s_lo, s_hi = part_lo + r_lo, part_hi + r_hi
                    first = (-s_hi) // unit - widen
                    first = (-h_max if first < -h_max
                             else h_max if first > h_max else first)
                    last = -(s_lo // unit) + widen
                    last = (-h_max if last < -h_max
                            else h_max if last > h_max else last)
                    lo, hi = s_lo + first * unit, s_hi + first * unit
                    prefix = head + tail
                    for c0 in range(first, last + 1):
                        if lo > 0:
                            vlo, vhi = lo, hi
                        elif hi < 0:
                            vlo, vhi = -hi, -lo
                        else:
                            vlo, vhi = 0, -lo if -lo > hi else hi
                        lo += unit
                        hi += unit
                        if vlo >= limit:
                            continue
                        shell = p if -p <= c0 <= p else abs(c0)
                        bucket[shell].append((vlo, vhi, (c0,) + prefix))
                if skip:
                    listed.append(tail_bounds)
            if listed:
                later.append((orbit, listed))
        return later

    def tails(start, shell):
        """The tails (c_start..cn) of one shell, with their bounds."""
        return [(tail, *_sum_bounds(tail, start, p_lo, p_hi))
                for tail in shell]

    for h in range(1, h_max + 1):
        if n == 1:
            walks = []
        elif width == 1:
            walks = [(orbits[0], tails(2, shell_coeffs(n - 1, h)))]
        else:
            walks = [(orbits[0], tails(2, [(h,) + zero_tail[1:]])),
                     (orbits[1], tails(3, shell_coeffs(n - 2, h)))]
        # the prefix (h, 0, ..., 0), a one-row batch with the zero tail,
        # when its key passes the window test of visit
        inc = chain.inc_hi_scaled
        z_lo, z_hi = h * p_lo[1], h * p_hi[1]
        if inc is None or (inc - z_lo) % unit <= z_hi - z_lo + 2 * inc:
            zero = ((None, [((h,), h, z_lo, z_hi)], 0), [(zero_tail, 0, 0)])
            walks = [zero, *walks]
        later = visit(walks, h, inc, False) if walks else []

        if h == 1:
            bucket[1].append((unit, unit, (1,)))
        if h in bucket:
            chain.offer(h, bucket.pop(h))
        if later:
            visit(later, h, chain.inc_hi_scaled, True)

    return chain.sequence()
