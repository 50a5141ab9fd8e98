"""Cell lists for the four benchmark workloads.

A cell is one ``polyapprox`` command line.  Seed 0 gives the committed
cell list, which names the stock presets and whose outputs have recorded
digests (``digests.json``).  Any other seed draws targets from the same
families at the same degree and height bands and passes them to the CLI
as ``--number`` JSON files; those cells are checked by invariants
instead of digests.

Each family is a short list of members (``FAMILIES``).  A seed deals the
members of a role's family to that role's cells in random order, every
member once before any member repeats.  A pass thus spreads over the
family, and its cost varies little from seed to seed.

Every cell must succeed, so the families stay inside what the CLI
accepts: algebraic targets are irreducible with an isolating interval on
which the minimal polynomial is monotone, and ``minima`` never pools a
polynomial that vanishes at its target.
"""

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("chains", "ties", "minima", "analysis")

# (role, n, H).  A role is a stock preset name; at non-zero seeds it
# stands for the preset's family.
_CHAINS = (
    [("liouville2fact", 1, 2500)]  # degree 1 at large H: quadratic in H
    + [(role, 1, 600) for role in ("liouville3pow2", "fibwordcf")]
    + [(role, n, h)
       for n, h in ((2, 150), (3, 25), (4, 8))
       for role in ("liouville2fact", "liouville3pow2", "fibwordcf")]
    + [("cbrt2", 2, 200)]
)
# Algebraic targets of degree below n: multiples of the minimal
# polynomial are exact zeros and give exactly tied values.  The quadratic
# family has 6 members whose costs differ up to 2x, so each sqrt2m1 cell
# runs twice: a pass deals every member exactly twice.
_TIES = tuple(
    (role, n, h)
    for role, cells, copies in (
        ("sqrt2m1", ((3, 18), (3, 15), (4, 8), (4, 7), (5, 4), (5, 3)), 2),
        ("cbrt2", ((4, 10), (4, 9), (5, 5), (5, 4)), 1))
    for n, h in cells
    for _ in range(copies)
)
# (role, member, m, hpool, qmin, qmax): one grid step per cell.  No pool
# member vanishes at a target of degree above m.  The Liouville base
# moves a window's cost up to 2x, so each Liouville window runs once per
# base (member 0 and 1) at non-zero seeds; member None is dealt.
_MINIMA = tuple(
    (role, member, m, hpool, q * width, (q + 1) * width)
    for role, members, m, hpool, width in (
        ("cbrt2", (None,), 2, 3, Fraction(1)),
        ("fibwordcf", (None,), 2, 3, Fraction(1)),
        ("liouville2fact", (0, 1), 3, 2, Fraction(2, 3)))
    for q in range(3)
    for member in members
)
_SHIFTS = (0, Fraction(1, 16), Fraction(1, 8))
# Chains read back from the cache by the analysis commands.
_ANALYSIS = (
    ("cbrt2", 2, 200),
    ("sqrt2m1", 2, 200),
    ("liouville2fact", 3, 30),
    ("liouville3pow2", 2, 200),
    ("fibwordcf", 3, 30),
)


def plan(workload: str, seed: int, workdir: str) -> dict:
    """Cells of one workload run.

    Returns ``{"setup": [...], "cells": [...]}``.  Each cell is a dict
    with the CLI ``argv`` and the ``kind`` of output check: ``chain``
    (a best-approx record chain with height bound ``hmax``), ``graph``
    (an ss-graph with ``steps + 1`` rows) or ``output`` (non-empty).
    Descriptor files for non-zero seeds are written into ``workdir``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    targets = _Targets(seed, workdir)
    if workload == "chains":
        return {"setup": [], "cells": [_chain_cell(targets.flag(r), n, h)
                                       for r, n, h in _CHAINS]}
    if workload == "ties":
        return {"setup": [], "cells": [_chain_cell(targets.flag(r), n, h)
                                       for r, n, h in _TIES]}
    if workload == "minima":
        # Cost climbs steeply with q, so each role's windows are shifted
        # by a dealt, not drawn, amount: the mean shift is the same.
        shifts = {role: _deal(random.Random(f"{seed}:q:{role}"), _SHIFTS)
                  for role in {t[0] for t in _MINIMA}}
        return {"setup": [], "cells": [
            _graph_cell(targets.flag(role, member), next(shifts[role]) if seed else 0, *rest)
            for role, member, *rest in _MINIMA]}
    return _analysis_plan(targets)


def _chain_cell(flag, n, h):
    argv = ["best-approx", *flag, "--n", str(n), "--hmax", str(h)]
    return {"argv": argv, "kind": "chain", "hmax": h}


def _graph_cell(flag, shift, m, hpool, qmin, qmax):
    argv = ["ss-graph", *flag, "--m", str(m), "--qmin", str(qmin + shift),
            "--qmax", str(qmax + shift), "--hpool", str(hpool), "--steps", "1"]
    return {"argv": argv, "kind": "graph", "steps": 1}


def _analysis_plan(targets):
    setup = []
    cells = []
    for role, n, h in _ANALYSIS:
        number = targets.flag(role)
        # --with-prev reads the chain at n - 1 as well, so both are cached.
        setup.append(_chain_cell(number, n, h))
        setup.append(_chain_cell(number, n - 1, h))
        commands = [["span-scan"], ["exponents"],
                    ["audit", "--with-span", "--with-prev"]]
        if n % 2 == 0:
            commands.insert(1, ["lambda-det"])
        for cmd in commands:
            argv = [cmd[0], *number, "--n", str(n), "--hmax", str(h), *cmd[1:]]
            cells.append({"argv": argv, "kind": "output"})
    # Not target-dependent: the same at every seed.
    cells.append({"argv": ["bounds", "--n", "2..10"], "kind": "output"})
    cells.append({"argv": ["gelfond", "--n", "2", "--hmax", "3", "--samples", "0"],
                  "kind": "output"})
    return {"setup": setup, "cells": cells}


class _Targets:
    """CLI number flags: the stock preset at seed 0, otherwise the next
    member dealt from the role's family, written to a descriptor file."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.decks = {}

    def flag(self, role: str, member=None) -> list:
        """Flags for the given family member, or for the next one dealt."""
        if not self.seed:
            return ["--preset", role]
        if member is None:
            deck = self.decks.setdefault(
                role, _deal(random.Random(f"{self.seed}:{role}"), range(len(FAMILIES[role]))))
            member = next(deck)
        path = os.path.join(self.workdir, f"number-{role}-{member}.json")
        if not os.path.exists(path):
            desc = dict(FAMILIES[role][member], label=f"{role}-{member}")
            with open(path, "w") as fh:
                json.dump(desc, fh, sort_keys=True)
        return ["--number", path]


def _deal(rng, items):
    """Endless stream of items: each round is every item once, shuffled."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


# -- target families ------------------------------------------------------


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _divisors(k):
    k = abs(k)
    return [d for d in range(1, k + 1) if k % d == 0]


def _has_rational_root(coeffs):
    """Rational root test; for degree <= 3 no rational root means
    irreducible over Q (and therefore squarefree)."""
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            for x in (Fraction(p, q), Fraction(-p, q)):
                if _eval(coeffs, x) == 0:
                    return True
    return False


def _monotone_on(coeffs, lo, hi):
    """True when the derivative has no root in [lo, hi]."""
    d = _derivative(coeffs)
    a, b = _eval(d, lo), _eval(d, hi)
    if a == 0 or b == 0 or (a > 0) != (b > 0):
        return False
    if len(d) == 3:  # quadratic derivative: check its vertex as well
        v = Fraction(-d[1], 2 * d[2])
        if lo < v < hi and (_eval(d, v) > 0) != (a > 0):
            return False
    return True


def _isolating_interval(coeffs, lo16, hi16):
    """First grid cell [i/16, (i+1)/16] inside [lo16/16, hi16/16] holding
    a sign change on which the polynomial is monotone (hence exactly one
    root)."""
    for i in range(lo16, hi16):
        lo, hi = Fraction(i, 16), Fraction(i + 1, 16)
        if (_eval(coeffs, lo) > 0) != (_eval(coeffs, hi) > 0) and _monotone_on(coeffs, lo, hi):
            return lo, hi
    return None


def _algebraic(degree, lo16, hi16):
    """Irreducible polynomials of the given degree with coefficients in
    [-2, 2], leading coefficient 1 or 2, and a root in [lo16/16, hi16/16].
    Roots near the preset's keep the scale of every enumerated value, and
    so the cost of a cell, close to the preset's."""
    members = []
    for low in itertools.product(range(-2, 3), repeat=degree):
        for lead in (1, 2):
            coeffs = [*low, lead]
            if coeffs[0] == 0 or _has_rational_root(coeffs):
                continue
            interval = _isolating_interval(coeffs, lo16, hi16)
            if interval is not None:
                members.append({"kind": "algebraic", "minpoly": coeffs,
                                "interval": [str(x) for x in interval]})
    return members


FAMILIES = {
    "sqrt2m1": _algebraic(2, 4, 12),  # root 0.414
    "cbrt2": _algebraic(3, 16, 24),  # root 1.26
    "liouville2fact": [{"kind": "liouville", "base": b, "exponents": "factorial"}
                       for b in (2, 3)],
    "liouville3pow2": [{"kind": "liouville", "base": b,
                        "exponents": {"type": "power", "base": 2}} for b in (2, 3)],
    # Continued fractions along the Fibonacci word (a -> ab, b -> a).
    "fibwordcf": [{"kind": "cf", "prefix": [0],
                   "rule": {"type": "word", "morphism": {"a": "ab", "b": "a"},
                            "start": "a", "letters": {"a": a, "b": b}}}
                  for a, b in itertools.permutations((1, 2, 3), 2)],
}
