"""Stock number presets used by tests, the CLI, and the acceptance suite.

Each preset is provably irrational, and none satisfies an algebraic relation
of a degree we enumerate except through its declared minimal polynomial:

- sqrt2m1, cbrt2: algebraic with exact vanishing handled symbolically.
- liouville2fact, liouville3pow2: lacunary series, transcendental.
- fibwordcf: the continued fraction whose partial quotients follow the
  Fibonacci word over {1, 2}; Sturmian continued fractions are transcendental,
  which justifies the nonvanishing assumption of cf word rules.
"""
from __future__ import annotations

from .numbers import (
    AlgebraicNumber,
    ContinuedFraction,
    LiouvilleSeries,
    NumberDescriptor,
    WordRule,
)


def _sqrt2m1():
    return AlgebraicNumber([-1, 2, 1], ("0", "1"), label="sqrt2m1")


def _cbrt2():
    return AlgebraicNumber([-2, 0, 0, 1], ("1", "2"), label="cbrt2")


def _liouville2fact():
    return LiouvilleSeries(2, "factorial", label="liouville2fact")


def _liouville3pow2():
    return LiouvilleSeries(3, ("power", 2), label="liouville3pow2")


def _fibwordcf():
    rule = WordRule({"a": "ab", "b": "a"}, "a", {"a": 1, "b": 2})
    return ContinuedFraction([0], rule, label="fibwordcf")


_FACTORIES = {
    "sqrt2m1": _sqrt2m1,
    "cbrt2": _cbrt2,
    "liouville2fact": _liouville2fact,
    "liouville3pow2": _liouville3pow2,
    "fibwordcf": _fibwordcf,
}

STOCK_NAMES = tuple(_FACTORIES)


def preset(name: str) -> NumberDescriptor:
    """Fresh descriptor instance for a stock number."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(STOCK_NAMES)}")
    return factory()
