"""Real number descriptors with certified interval refinement.

Three kinds are supported:

- algebraic: squarefree integer minimal polynomial plus a rational isolating
  interval containing exactly one root (verified by a Sturm count at
  construction). Refinement bisects on integers: refine(p) steps from the
  current depth straight to the first depth whose bracket is narrow
  enough, taking each midpoint's sign from the homogenised minimal
  polynomial, and builds one interval at the end.
- cf: a continued fraction given by an explicit prefix and an optional rule
  producing the remaining partial quotients (eventually periodic, or the
  fixed point of a morphism over a finite alphabet mapped to quotients).
  Refinement brackets the value between consecutive convergents.
- liouville: sum of base**(-e_k) for a strictly increasing exponent rule
  (k!, or c**k). Refinement sums a prefix and bounds the tail by a geometric
  series: tail <= 2 * base**(-e_{K+1}).

desc.refine(p) always returns an interval of width <= 2**-p, and successive
calls return nested intervals because each descriptor only ever narrows its
cached bracket. It decides the width test from one integer per bracket, the
largest p the bracket is fine enough for, computed when the bracket changes.

Certified evaluation runs on integers: IntegerPolynomial.eval_scaled gives
P on a bracket as (lo, hi, den) over the common denominator den = d**deg.
certified_abs_scaled, the one certified evaluation loop, accepts or
escalates on that triple, and certified_abs builds its RationalInterval
once. is_zero_at reads the sign of a triple, and compare_abs compares two
triples by cross-multiplication, on brackets from min(16, cap) bits,
doubling, up to the cap itself.

Zero tests for nonzero polynomials are exact for algebraic
numbers and for finite and periodic cf, whose exact irreducible `minpoly`
(degree 1 or 2) is computed at construction; so is a word rule whose
quotients are eventually constant (a -> ab, b -> b, or all letters equal),
read as the periodic cf it is. is_zero_at reduces P modulo the minpoly m
by one cached integer table per m and coefficient count
(polynomials.reduction_table): its remainder R is a few integer products
on P's coefficients, equal to the pseudo-remainder of P by m, and the
gcd + Sturm step runs only when R's enclosure on the current bracket
contains 0. compare_abs reads P = +-Q off the coefficient tuples of
P - Q and P + Q, and tests those two for zeros first, each through
is_zero_at. Liouville series and the other word rules
have no `minpoly` and rest on a nonvanishing assumption, which holds for
the shipped presets; a vanishing it misses surfaces as a NearZero warning.
It fails for a word rule whose fixed point is eventually periodic with two
or more letter values: a -> ab, b -> ab with prefix [0], a = 2, b = 1 is
(sqrt(3) - 1)/2, a quadratic irrational that the zero test does not see.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from math import factorial, inf
from operator import mul

from .errors import InvalidDescriptor, PrecisionExhausted
from .intervals import RationalInterval
from .polynomials import (IntegerPolynomial, poly_gcd, reduction_table,
                          sturm_root_count)

DEFAULT_CAP = 4096


class NumberDescriptor:
    kind = "abstract"
    minpoly = None

    def __init__(self, label: str | None = None):
        self.label = label or self.kind
        # (bracket, its width bits): refine reads the bits of the current
        # bracket and recomputes them only when the bracket object changes
        self._fine = (None, -1)

    def _current(self) -> RationalInterval:
        raise NotImplementedError

    def _improve(self, p: int) -> bool:
        """Narrow the cached bracket, by one step or straight to width
        2**-p; return False when no progress is possible."""
        raise NotImplementedError

    def refine(self, p: int) -> RationalInterval:
        """Certified interval of width <= 2**-p containing the value.  The
        width test reads one integer per bracket, _width_bits: width <=
        2**-p exactly when p <= _width_bits."""
        iv = self._current()
        while p > self._width_bits(iv):
            if not self._improve(p):
                raise PrecisionExhausted(
                    f"{self.label}: cannot refine below width {iv.width}",
                    cap=p,
                )
            iv = self._current()
        return iv

    def _width_bits(self, iv: RationalInterval):
        """The largest p with width(iv) <= 2**-p: -1 if the width exceeds
        1, inf for a point bracket."""
        bracket, bits = self._fine
        if bracket is not iv:
            w = iv.hi - iv.lo
            num, den = w.numerator, w.denominator
            if num == 0:
                bits = inf
            elif num > den:
                bits = -1
            else:
                bits = den.bit_length() - num.bit_length()
                if num << bits > den:
                    bits -= 1
            self._fine = (iv, bits)
        return bits

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class AlgebraicNumber(NumberDescriptor):
    kind = "algebraic"

    def __init__(self, minpoly, interval, label=None):
        super().__init__(label)
        self.minpoly = (
            minpoly
            if isinstance(minpoly, IntegerPolynomial)
            else IntegerPolynomial(minpoly)
        )
        lo, hi = (Fraction(x) for x in interval)
        if self.minpoly.degree < 1:
            raise InvalidDescriptor("minimal polynomial must have degree >= 1")
        if poly_gcd(self.minpoly, self.minpoly.derivative()).degree != 0:
            raise InvalidDescriptor("minimal polynomial must be squarefree")
        if lo >= hi:
            raise InvalidDescriptor("isolating interval must have positive width")
        s_lo = self.minpoly.eval_fraction(lo)
        s_hi = self.minpoly.eval_fraction(hi)
        if s_lo == 0 or s_hi == 0:
            raise InvalidDescriptor("isolating interval endpoints must not be roots")
        if (s_lo > 0) == (s_hi > 0):
            raise InvalidDescriptor("minimal polynomial must change sign on the interval")
        if sturm_root_count(self.minpoly, lo, hi) != 1:
            raise InvalidDescriptor("isolating interval must contain exactly one root")
        self._init_interval = (lo, hi)
        self._bracket = RationalInterval(lo, hi)
        self._sign_lo = 1 if s_lo > 0 else -1
        # the bracket at bisection depth k and index j is [x(j), x(j+1)],
        # x(i) = (lo_num * 2**k + i * span) / (den * 2**k)
        self._den = lo.denominator * hi.denominator
        self._lo_num = lo.numerator * hi.denominator
        self._span = hi.numerator * lo.denominator - self._lo_num
        self._depth = self._index = 0

    def _current(self):
        return self._bracket

    def _improve(self, p):
        """Bisect to the first depth k with span / (den * 2**k) <= 2**-p,
        the sign of each midpoint N / D taken from the homogenised minimal
        polynomial sum c_i N**i D**(deg - i), which has the sign of P(N/D)
        as D > 0.  An exact root at a midpoint ends at that point."""
        if self._bracket.is_point():
            return False
        need = -(-(self._span << p) // self._den)
        depth, j = self._depth, self._index
        coeffs = self.minpoly.coeffs[-2::-1]
        while (1 << depth) < need:
            depth += 1
            den = self._den << depth
            num = (self._lo_num << depth) + (2 * j + 1) * self._span
            acc, scale = self.minpoly.coeffs[-1], 1
            for c in coeffs:
                scale *= den
                acc = acc * num + c * scale
            if acc == 0:
                self._bracket = RationalInterval.point(Fraction(num, den))
                return True
            # same sign as the left endpoint: the root lies to the right
            j = 2 * j + ((acc > 0) == (self._sign_lo > 0))
        self._depth, self._index = depth, j
        den = self._den << depth
        num = (self._lo_num << depth) + j * self._span
        self._bracket = RationalInterval(Fraction(num, den),
                                         Fraction(num + self._span, den))
        return True

    def to_dict(self):
        lo, hi = self._init_interval
        return {
            "kind": "algebraic",
            "minpoly": list(self.minpoly.coeffs),
            "interval": [str(lo), str(hi)],
            "label": self.label,
        }


class PeriodicRule:
    def __init__(self, period):
        self.period = tuple(int(a) for a in period)
        if not self.period or any(a < 1 for a in self.period):
            raise InvalidDescriptor("periodic rule needs positive quotients")

    def term(self, cache, index):
        return self.period[index % len(self.period)]

    def periodic_tail(self):
        return (), self.period

    def to_dict(self):
        return {"type": "periodic", "period": list(self.period)}


class WordRule:
    """Quotients read off the fixed point of a morphism over a finite alphabet."""

    def __init__(self, morphism, start, letters):
        self.morphism = {str(k): str(v) for k, v in morphism.items()}
        self.start = str(start)
        self.letters = {str(k): int(v) for k, v in letters.items()}
        if self.start not in self.morphism:
            raise InvalidDescriptor("start letter missing from morphism")
        start_image = self.morphism[self.start]
        if len(start_image) < 2 or start_image[0] != self.start:
            # a -> a w with w nonempty, or the word never grows
            raise InvalidDescriptor("morphism must be prolongable on the start letter")
        alphabet = set(self.morphism)
        for image in self.morphism.values():
            if not image or not set(image) <= alphabet:
                raise InvalidDescriptor("morphism images must stay inside the alphabet")
        if set(self.letters) != alphabet:
            raise InvalidDescriptor("letter values must cover the alphabet")
        if any(v < 1 for v in self.letters.values()):
            raise InvalidDescriptor("quotient values must be positive")

    def term(self, cache, index):
        word = cache.get("word", self.start)
        while index >= len(word):
            word = "".join(self.morphism[ch] for ch in word)
        cache["word"] = word
        return self.letters[word[index]]

    def periodic_tail(self):
        """((value of a,), (v,)) if all letters reachable from w, for the
        start image a -> a w, have one value v (quotients a, v, v, ...)."""
        seen, todo = set(), list(self.morphism[self.start][1:])
        while todo:
            ch = todo.pop()
            if ch not in seen:
                seen.add(ch)
                todo.extend(self.morphism[ch])
        values = {self.letters[ch] for ch in seen}
        if len(values) != 1:
            return None
        return (self.letters[self.start],), tuple(values)

    def to_dict(self):
        return {
            "type": "word",
            "morphism": dict(self.morphism),
            "start": self.start,
            "letters": dict(self.letters),
        }


class ContinuedFraction(NumberDescriptor):
    kind = "cf"

    def __init__(self, prefix, rule=None, label=None):
        super().__init__(label)
        self.prefix = tuple(int(a) for a in prefix)
        if not self.prefix:
            raise InvalidDescriptor("continued fraction needs at least one term")
        if any(a < 1 for a in self.prefix[1:]):
            raise InvalidDescriptor("partial quotients after the first must be positive")
        self.rule = rule
        self._rule_cache: dict = {}
        # Convergent state: h/k pairs for indices j-1 and j.
        self._h_prev, self._k_prev = 1, 0
        self._h, self._k = self.prefix[0], 1
        self._count = 1
        self._iv = self._bracket_from_state()
        self.minpoly = self._exact_minpoly()

    def _exact_minpoly(self):
        """Irreducible polynomial of the value; None for a rule with no
        `periodic_tail`.  A finite cf is its last convergent h/k.  Else the
        value is the fixed point x = (a x + b)/(c x + d) of [[a, b], [c, d]]
        = M P M^-1, M and P the quotient matrices before and of the period."""
        if self.rule is None:
            h, _, k, _ = _quotient_matrix(self.prefix)
            return IntegerPolynomial((-h, k))
        tail = self.rule.periodic_tail()
        if tail is None:
            return None
        head, period = tail
        h, h0, k, k0 = _quotient_matrix(self.prefix + head)
        p, p0, q, q0 = _quotient_matrix(period)
        # M P adj(M), as adj(M) = [[k0, -h0], [-k, h]] is +-M^-1
        a, b = h * p + h0 * q, h * p0 + h0 * q0
        c, d = k * p + k0 * q, k * p0 + k0 * q0
        a, b, c, d = a * k0 - b * k, b * h - a * h0, c * k0 - d * k, d * h - c * h0
        return IntegerPolynomial((-b, d - a, c)).primitive().canonical()

    def _term(self, index):
        if index < len(self.prefix):
            return self.prefix[index]
        if self.rule is None:
            return None
        return self.rule.term(self._rule_cache, index - len(self.prefix))

    def _exhausted(self):
        return self.rule is None and self._count >= len(self.prefix)

    def _bracket_from_state(self):
        c_now = Fraction(self._h, self._k)
        if self._exhausted():
            return RationalInterval.point(c_now)
        if self._k_prev == 0:
            # Only a_0 known: the tail adds between 0* and 1 (quotients >= 1).
            return RationalInterval(c_now, c_now + 1)
        c_prev = Fraction(self._h_prev, self._k_prev)
        return RationalInterval(min(c_prev, c_now), max(c_prev, c_now))

    def _current(self):
        return self._iv

    def _improve(self, p):
        a = self._term(self._count)
        if a is None:
            return False
        if a < 1:
            raise InvalidDescriptor("rule produced a non-positive quotient")
        self._h_prev, self._h = self._h, a * self._h + self._h_prev
        self._k_prev, self._k = self._k, a * self._k + self._k_prev
        self._count += 1
        self._iv = self._bracket_from_state()
        return True

    def to_dict(self):
        d = {"kind": "cf", "prefix": list(self.prefix), "label": self.label}
        if self.rule is not None:
            d["rule"] = self.rule.to_dict()
        return d


def _quotient_matrix(quotients):
    """[[h, h'], [k, k']], the product of the [[a, 1], [1, 0]], flattened."""
    h, h0, k, k0 = 1, 0, 0, 1
    for a in quotients:
        h, h0 = a * h + h0, h
        k, k0 = a * k + k0, k
    return h, h0, k, k0


class LiouvilleSeries(NumberDescriptor):
    kind = "liouville"

    def __init__(self, base, exponents="factorial", label=None):
        super().__init__(label)
        self.base = int(base)
        if self.base < 2:
            raise InvalidDescriptor("series base must be at least 2")
        if exponents == "factorial":
            self._exp = factorial
        elif isinstance(exponents, tuple) and exponents and exponents[0] == "power":
            c = int(exponents[1])
            if c < 2:
                raise InvalidDescriptor("power rule base must be at least 2")
            self._exp = lambda k: c**k
        else:
            raise InvalidDescriptor(f"unknown exponent rule {exponents!r}")
        self.exponents = exponents
        self._terms = 1
        self._sum = Fraction(1, self.base ** self._exp(1))
        self._iv = self._bracket_from_state()

    def _bracket_from_state(self):
        tail = 2 * Fraction(1, self.base ** self._exp(self._terms + 1))
        return RationalInterval(self._sum, self._sum + tail)

    def _current(self):
        return self._iv

    def _improve(self, p):
        self._terms += 1
        self._sum += Fraction(1, self.base ** self._exp(self._terms))
        self._iv = self._bracket_from_state()
        return True

    def to_dict(self):
        if self.exponents == "factorial":
            rule = "factorial"
        else:
            rule = {"type": "power", "base": self.exponents[1]}
        return {"kind": "liouville", "base": self.base, "exponents": rule, "label": self.label}


# -- serialization ---------------------------------------------------------


def descriptor_from_dict(d: dict) -> NumberDescriptor:
    """Descriptor from its JSON form; InvalidDescriptor for any malformed one."""
    if not isinstance(d, dict):
        raise InvalidDescriptor(f"descriptor must be a JSON object, not {d!r}")
    try:
        return _build_descriptor(d)
    except (TypeError, AttributeError) as exc:  # a field of the wrong JSON type
        raise InvalidDescriptor(f"{d.get('kind')!r} descriptor: {exc}") from exc
    except KeyError as exc:
        raise InvalidDescriptor(
            f"{d.get('kind')!r} descriptor: missing field {exc.args[0]!r}") from exc


def _integers(d: dict, key: str, shape: type = int):
    """d[key], checked to be a JSON integer (shape int), or a list (list) or
    an object (dict) of them: a float or a bool is rejected, not truncated."""
    value = d[key]
    if shape is int:
        items = [value]
    elif isinstance(value, shape):
        items = value.values() if shape is dict else value
    else:
        items = [None]
    if any(type(v) is not int for v in items):
        raise InvalidDescriptor(
            f"field {key!r} must be {_SHAPES[shape]}, not {value!r}")
    return value


_SHAPES = {int: "an integer", list: "a list of integers",
           dict: "an object with integer values"}


def _build_descriptor(d: dict) -> NumberDescriptor:
    kind = d.get("kind")
    label = d.get("label")
    if kind in ("algebraic",):
        return AlgebraicNumber(_integers(d, "minpoly", list), d["interval"],
                               label=label)
    if kind in ("cf", "continued-fraction"):
        rule_spec = d.get("rule")
        rule = None
        if rule_spec is not None:
            if not isinstance(rule_spec, dict):
                raise InvalidDescriptor(f"cf rule {rule_spec!r} is not a JSON object")
            rtype = rule_spec.get("type")
            if rtype == "periodic":
                rule = PeriodicRule(_integers(rule_spec, "period", list))
            elif rtype == "word":
                rule = WordRule(rule_spec["morphism"], rule_spec["start"],
                                _integers(rule_spec, "letters", dict))
            elif rtype != "finite":
                raise InvalidDescriptor(f"unknown cf rule type {rtype!r}")
        return ContinuedFraction(_integers(d, "prefix", list), rule, label=label)
    if kind in ("liouville", "liouville-series"):
        exp = d.get("exponents", "factorial")
        if isinstance(exp, dict):
            if exp.get("type") != "power":
                raise InvalidDescriptor(f"unknown exponent rule {exp!r}")
            exp = ("power", _integers(exp, "base"))
        elif exp == "pow2":
            exp = ("power", 2)
        elif exp == "pow4":
            exp = ("power", 4)
        return LiouvilleSeries(_integers(d, "base"), exp, label=label)
    raise InvalidDescriptor(f"unknown descriptor kind {kind!r}")


# -- operations --------------------------------------------------------------


def eval_at(
    poly: IntegerPolynomial, desc: NumberDescriptor, p: int
) -> RationalInterval:
    """Enclosure of P(value) with width <= 2**-p, by interval Horner."""
    if poly.degree <= 0:
        return RationalInterval.point(poly.coeffs[0] if poly.coeffs else 0)
    seed = desc.refine(4)
    slope = poly.derivative_bound(seed)
    pz = p + max(1, slope.numerator.bit_length() - slope.denominator.bit_length() + 2)
    tol = Fraction(1, 2**p)
    while True:
        result = poly.eval_interval(desc.refine(pz))
        if result.width <= tol:
            return result
        pz *= 2


class Comparison(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"


def is_zero_at(poly: IntegerPolynomial, desc: NumberDescriptor) -> bool:
    """Exact test of P(value) == 0 for nonzero P on the current bracket,
    which is never refined (printed enclosures depend on its history):
    1. a point bracket (the descriptor's cached width bits are inf) is the
       value: evaluate P there;
    2. R = sum c_i * row_i over the cached reduction table of m = minpoly
       (`reduction_table`, one per m and coefficient count) is
       lc(m)**k * P at the value, the pseudo-remainder of P by m, so
       R = 0 means zero;
    3. R's enclosure on the bracket excludes 0: nonzero;
    4. else gcd(P, m) has a root in the bracket.  Only a squarefree but
       reducible m (an `algebraic` one may be) needs step 4 to be exact."""
    if poly.is_zero():
        raise ValueError("zero polynomial not allowed here")
    m = desc.minpoly
    if m is None:
        return False  # the documented nonvanishing assumption
    iv = desc._current()
    if desc._width_bits(iv) == inf:
        return poly.eval_fraction(iv.lo) == 0
    c = poly.coeffs
    r = [sum(map(mul, c, col)) for col in reduction_table(m.coeffs, len(c))]
    if not any(r):
        return True
    lo, hi, _ = IntegerPolynomial(r).eval_scaled(iv)
    if lo > 0 or hi < 0:
        return False
    g = poly_gcd(poly, m)
    return g.degree >= 1 and sturm_root_count(g, iv.lo, iv.hi) >= 1


def certified_abs_scaled(poly: IntegerPolynomial, desc: NumberDescriptor,
                         rel_bits: int, cap: int = DEFAULT_CAP,
                         abs_bits: int = 0) -> tuple[int, int, int] | None:
    """The one certified evaluation loop: the first enclosure (lo, hi, den)
    of |P(value)|, as poly.eval_abs_scaled(desc.refine(p)) gives it, for p
    doubling from max(rel_bits, abs_bits, 1) up to cap, with lo > 0,
    width <= lo * 2**-rel_bits and width <= 2**-abs_bits.  Over the common
    denominator den > 0 that test is (hi - lo) << rel_bits <= lo and
    (hi - lo) << abs_bits <= den.  At the cap: the cap's enclosure if it
    excludes 0 (it may miss the width targets), None if P(value) is exactly
    0, and PrecisionExhausted otherwise."""
    if rel_bits < 0 or abs_bits < 0:
        raise ValueError(
            f"certified_abs needs bits >= 0, got {rel_bits} and {abs_bits}")
    p = max(rel_bits, abs_bits, 1)
    while True:
        lo, hi, den = poly.eval_abs_scaled(desc.refine(p))
        if lo > 0 and (hi - lo) << rel_bits <= lo and (hi - lo) << abs_bits <= den:
            return lo, hi, den
        if p >= cap:
            if lo > 0:
                return lo, hi, den
            if is_zero_at(poly, desc):
                return None
            raise PrecisionExhausted(f"|{poly}| not separated from zero", cap=cap)
        p = min(2 * p, cap)


def certified_abs(poly: IntegerPolynomial, desc: NumberDescriptor, rel_bits: int,
                  cap: int = DEFAULT_CAP, abs_bits: int = 0) -> RationalInterval | None:
    """certified_abs_scaled as a RationalInterval, or None for an exact
    zero: the certified evaluator of the record engine, lstar and
    transfer_point."""
    scaled = certified_abs_scaled(poly, desc, rel_bits, cap, abs_bits)
    if scaled is None:
        return None
    lo, hi, den = scaled
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def compare_abs(
    poly_p: IntegerPolynomial,
    poly_q: IntegerPolynomial,
    desc: NumberDescriptor,
    cap: int = DEFAULT_CAP,
) -> Comparison:
    """Certified comparison of |P(value)| and |Q(value)|.  With a minpoly,
    the exact tests run first, in this order:
    1. (P - Q)(value) = 0 or (P + Q)(value) = 0: EQUAL;
    2. P(value) = 0: LESS;
    3. Q(value) = 0: GREATER;
    then brackets from desc.refine(p), p = min(16, cap) doubling, the last
    step clipped to the cap, which is always tried.  The two enclosures
    share the bracket and are compared over their denominators as integers.
    The order of 1-3 does not change any outcome.  If P and Q both vanish,
    so does P - Q: EQUAL.  If exactly one vanishes, (P +- Q)(value) is +- the
    other's value, not 0, so 1 fails and 2 or 3 decides.  If neither
    vanishes, only 1 can decide.  P - Q and P + Q are built once each, from
    the coefficient tuples; they are nonzero polynomials, as P = +-Q (one
    of them empty) returned EQUAL above, and is_zero_at never refines desc, so
    the refinement history, and every enclosure after it, is unchanged."""
    if poly_p.is_zero() or poly_q.is_zero():
        raise ValueError("compare_abs requires nonzero polynomials")
    if cap < 1:
        raise ValueError(f"compare_abs requires cap >= 1, got {cap}")
    pairs = list(zip_longest(poly_p.coeffs, poly_q.coeffs, fillvalue=0))
    diff = [a - b for a, b in pairs]
    total = [a + b for a, b in pairs]
    if not any(diff) or not any(total):
        return Comparison.EQUAL
    if desc.minpoly is not None:
        if (is_zero_at(IntegerPolynomial(diff), desc)
                or is_zero_at(IntegerPolynomial(total), desc)):
            return Comparison.EQUAL
        if is_zero_at(poly_p, desc):
            return Comparison.LESS
        if is_zero_at(poly_q, desc):
            return Comparison.GREATER
    p = min(16, cap)
    while True:
        x = desc.refine(p)
        a_lo, a_hi, a_den = poly_p.eval_abs_scaled(x)
        b_lo, b_hi, b_den = poly_q.eval_abs_scaled(x)
        if a_hi * b_den < b_lo * a_den:
            return Comparison.LESS
        if b_hi * a_den < a_lo * b_den:
            return Comparison.GREATER
        if p >= cap:
            break
        p = min(2 * p, cap)
    raise PrecisionExhausted(
        f"|{poly_p}| and |{poly_q}| indistinguishable at cap", cap=cap)
