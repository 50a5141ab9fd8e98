"""Real number descriptors with certified interval refinement.

Three kinds are supported:

- algebraic: squarefree integer minimal polynomial plus a rational isolating
  interval containing exactly one root (verified by a Sturm count at
  construction). Refinement bisects with exact sign evaluation.
- cf: a continued fraction given by an explicit prefix and an optional rule
  producing the remaining partial quotients (eventually periodic, or the
  fixed point of a morphism over a finite alphabet mapped to quotients).
  Refinement brackets the value between consecutive convergents.
- liouville: sum of base**(-e_k) for a strictly increasing exponent rule
  (k!, or c**k). Refinement sums a prefix and bounds the tail by a geometric
  series: tail <= 2 * base**(-e_{K+1}).

desc.refine(p) always returns an interval of width <= 2**-p, and successive
calls return nested intervals because each descriptor only ever narrows its
cached bracket. Zero tests for nonzero polynomials are exact for algebraic
numbers and for finite and periodic cf, whose exact irreducible `minpoly`
(degree 1 or 2) is computed at construction. Liouville series and cf word
rules have no `minpoly` and rest on a nonvanishing assumption, which holds
for the shipped presets; a vanishing it misses surfaces as a NearZero warning.
It fails for a word rule whose quotients are eventually periodic (a -> ab,
b -> b, or all letters equal): the value is a quadratic irrational that the
zero test does not see, e.g. prefix [-2] with a = 2, b = 1 is -phi.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import factorial

from .errors import InvalidDescriptor, PrecisionExhausted
from .intervals import RationalInterval
from .polynomials import IntegerPolynomial, poly_gcd, sturm_root_count

DEFAULT_CAP = 4096


class NumberDescriptor:
    kind = "abstract"
    minpoly = None

    def __init__(self, label: str | None = None):
        self.label = label or self.kind

    def _current(self) -> RationalInterval:
        raise NotImplementedError

    def _improve(self) -> bool:
        """Narrow the cached bracket; return False when no progress is possible."""
        raise NotImplementedError

    def refine(self, p: int) -> RationalInterval:
        """Certified interval of width <= 2**-p containing the value."""
        tol = Fraction(1, 2**p)
        while self._current().width > tol:
            if not self._improve():
                raise PrecisionExhausted(
                    f"{self.label}: cannot refine below width {self._current().width}",
                    cap=p,
                )
        return self._current()

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

    def _current(self):
        return self._bracket

    def _improve(self):
        iv = self._bracket
        if iv.is_point():
            return False
        mid = iv.mid
        s_mid = self.minpoly.eval_fraction(mid)
        if s_mid == 0:
            self._bracket = RationalInterval.point(mid)
            return True
        if (s_mid > 0) == (self._sign_lo > 0):
            # Same sign as the left endpoint: the root lies to the right.
            self._bracket = RationalInterval(mid, iv.hi)
        else:
            self._bracket = RationalInterval(iv.lo, mid)
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
        if not self.morphism[self.start].startswith(self.start):
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
        """Irreducible polynomial of the value; None for word rules.  A
        finite cf is its last convergent h/k.  A periodic cf is the fixed
        point x = (a x + b)/(c x + d) of [[a, b], [c, d]] = M P M^-1, with
        M and P the quotient matrices of the prefix and of the period."""
        h, h0, k, k0 = _quotient_matrix(self.prefix)
        if self.rule is None:
            return IntegerPolynomial((-h, k))
        if not isinstance(self.rule, PeriodicRule):
            return None
        p, p0, q, q0 = _quotient_matrix(self.rule.period)
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

    def _improve(self):
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

    def _improve(self):
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


def _build_descriptor(d: dict) -> NumberDescriptor:
    kind = d.get("kind")
    label = d.get("label")
    if kind in ("algebraic",):
        return AlgebraicNumber(d["minpoly"], d["interval"], label=label)
    if kind in ("cf", "continued-fraction"):
        rule_spec = d.get("rule")
        rule = None
        if rule_spec is not None:
            if not isinstance(rule_spec, dict):
                raise InvalidDescriptor(f"cf rule {rule_spec!r} is not a JSON object")
            rtype = rule_spec.get("type")
            if rtype == "periodic":
                rule = PeriodicRule(rule_spec["period"])
            elif rtype == "word":
                rule = WordRule(
                    rule_spec["morphism"], rule_spec["start"], rule_spec["letters"]
                )
            elif rtype != "finite":
                raise InvalidDescriptor(f"unknown cf rule type {rtype!r}")
        return ContinuedFraction(d["prefix"], rule, label=label)
    if kind in ("liouville", "liouville-series"):
        exp = d.get("exponents", "factorial")
        if isinstance(exp, dict):
            if exp.get("type") != "power":
                raise InvalidDescriptor(f"unknown exponent rule {exp!r}")
            exp = ("power", exp["base"])
        elif exp == "pow2":
            exp = ("power", 2)
        elif exp == "pow4":
            exp = ("power", 4)
        return LiouvilleSeries(d["base"], exp, label=label)
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
    """Exact test of P(value) == 0 for nonzero P."""
    if poly.is_zero():
        raise ValueError("zero polynomial not allowed here")
    if desc.minpoly is None:
        return False  # the documented nonvanishing assumption
    iv = desc._current()
    if iv.is_point():
        return poly.eval_fraction(iv.lo) == 0
    g = poly_gcd(poly, desc.minpoly)
    if g.degree == desc.minpoly.degree:
        return True  # minpoly | P: the whole test for a cf (irreducible minpoly)
    return g.degree >= 1 and sturm_root_count(g, iv.lo, iv.hi) >= 1


def certified_abs(poly: IntegerPolynomial, desc: NumberDescriptor, rel_bits: int,
                  cap: int = DEFAULT_CAP, abs_bits: int = 0) -> RationalInterval | None:
    """The one certified evaluator: the first enclosure of |P(value)| on
    desc.refine(p), p doubling from max(rel_bits, abs_bits) up to cap, with
    lo > 0, width <= lo * 2**-rel_bits and width <= 2**-abs_bits.  At the cap:
    the cap's enclosure if it excludes 0 (it may miss the width targets), None
    if P(value) is exactly 0, and PrecisionExhausted otherwise."""
    p = max(rel_bits, abs_bits)
    while True:
        iv = poly.eval_abs_interval(desc.refine(p))
        tol = min(iv.lo / (1 << rel_bits), Fraction(1, 1 << abs_bits))
        if iv.lo > 0 and iv.width <= tol:
            return iv
        if p >= cap:
            if iv.lo > 0:
                return iv
            if is_zero_at(poly, desc):
                return None
            raise PrecisionExhausted(f"|{poly}| not separated from zero", cap=cap)
        p = min(2 * p, cap)


def compare_abs(
    poly_p: IntegerPolynomial,
    poly_q: IntegerPolynomial,
    desc: NumberDescriptor,
    cap: int = DEFAULT_CAP,
) -> Comparison:
    """Certified comparison of |P(value)| and |Q(value)|."""
    if poly_p.is_zero() or poly_q.is_zero():
        raise ValueError("compare_abs requires nonzero polynomials")
    if poly_p == poly_q or poly_p == -poly_q:
        return Comparison.EQUAL
    if desc.minpoly is not None:
        zp = is_zero_at(poly_p, desc)
        zq = is_zero_at(poly_q, desc)
        if zp and zq:
            return Comparison.EQUAL
        if zp:
            return Comparison.LESS
        if zq:
            return Comparison.GREATER
        # P - Q and P + Q are nonzero: P = +-Q returned above
        if is_zero_at(poly_p - poly_q, desc) or is_zero_at(poly_p + poly_q, desc):
            return Comparison.EQUAL
    p = 16
    while p <= cap:
        x = desc.refine(p)
        a = poly_p.eval_abs_interval(x)
        b = poly_q.eval_abs_interval(x)
        if a.strictly_below(b):
            return Comparison.LESS
        if b.strictly_below(a):
            return Comparison.GREATER
        p *= 2
    raise PrecisionExhausted(
        f"|{poly_p}| and |{poly_q}| indistinguishable at cap", cap=cap)
