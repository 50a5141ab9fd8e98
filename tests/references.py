"""Reference searches that the record engine is checked against.

No command runs these; the tests read them.

* :func:`oracle_best_approx` -- an unpruned box scan that shares only the
  exact adjudication layer (``_check_search`` and ``_Chain``) with the
  engine.  Slow, used to validate it.
* :func:`micro_reference_records` -- a per-shell exhaustive minimisation
  by exact comparisons alone, the second reference for tiny inputs.
* :func:`n1_convergent_records` -- for n = 1 and 0 < zeta < 1 the records
  are continued fraction convergents; this derives them directly.
"""

from fractions import Fraction
from itertools import product
from typing import Optional

from polyapprox.bestapprox import (
    DEFAULT_VALUE_BITS,
    BestApproxSequence,
    _Chain,
    _check_search,
    _sum_bounds,
)
from polyapprox.errors import BudgetExceeded, PrecisionExhausted
from polyapprox.intervals import RationalInterval
from polyapprox.numbers import (
    DEFAULT_CAP,
    Comparison,
    NumberDescriptor,
    compare_abs,
    is_zero_at,
)
from polyapprox.polynomials import IntegerPolynomial, shell_coeffs

ORACLE_BOX_LIMIT = 300_000_000


def oracle_best_approx(
    desc: NumberDescriptor,
    n: int,
    h_max: int,
    cap: int = DEFAULT_CAP,
) -> BestApproxSequence:
    """Unpruned reference search over the full coefficient box.

    Shares the exact adjudication layer with the engine but none of the
    pruning: every canonical polynomial is scored coarsely, per-shell
    near-minimal candidates are kept, and the chain is rebuilt afterwards.
    The kept set (coarse lower bound at most the shell's final minimum
    upper bound) does not depend on the order of enumeration.
    """
    _check_search(n, h_max, cap)
    box = (2 * h_max + 1) ** (n + 1)
    if box > ORACLE_BOX_LIMIT:
        raise BudgetExceeded(f"full box of {box} exceeds {ORACLE_BOX_LIMIT}")

    chain = _Chain(desc, n, h_max, cap, DEFAULT_VALUE_BITS)
    unit, p_lo, p_hi = chain.unit, chain.p_lo, chain.p_hi
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

    for h in range(1, h_max + 1):
        chain.offer(h, [c for c in shell_cands[h] if c[0] <= best_vhi[h]])

    return chain.sequence()


def micro_reference_records(desc: NumberDescriptor, n: int, h_max: int) -> list:
    """Tiny-input reference: exhaustive per-shell minimisation using only
    the exact comparison primitives.  Exponential; keep h_max small."""
    inc: Optional[IntegerPolynomial] = None
    records = []
    for h in range(1, h_max + 1):
        # the constant h lies in shell h and is never zero
        best = IntegerPolynomial((h,))
        for coeffs in product(range(-h, h + 1), repeat=n + 1):
            if max(abs(c) for c in coeffs) != h:
                continue
            poly = IntegerPolynomial(coeffs).canonical()
            if is_zero_at(poly, desc):
                continue
            outcome = compare_abs(poly, best, desc)
            if outcome is Comparison.LESS:
                best = poly
            elif outcome is Comparison.EQUAL:
                if poly.coeffs < best.coeffs:
                    best = poly
        if inc is not None:
            outcome = compare_abs(best, inc, desc)
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
    """First partial quotients of the target, each floor certified, from
    brackets at min(64, cap) bits doubling, the last step clipped to cap."""
    bits = min(64, cap)
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
                "could not certify continued fraction quotients"
            )
        bits = min(2 * bits, cap)


def n1_convergent_records(desc: NumberDescriptor, h_max: int) -> list:
    """Degree-1 record polynomials q*T - p from convergents p/q.

    Valid for targets in (0, 1): there the height of q*T - p is q, so the
    classical best approximation theory gives the records directly.  The
    zeroth convergent participates only when the first quotient exceeds 1.
    """
    quotients = continued_fraction_quotients(desc, 2)
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
            known = continued_fraction_quotients(desc, len(known) * 2)
        a = known[idx]
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
        if max(k_cur, abs(h_cur)) > h_max:
            break
        polys.append(IntegerPolynomial((-h_cur, k_cur)).canonical())
        idx += 1
    return polys
