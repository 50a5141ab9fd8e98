"""Stock number presets used by tests, the CLI, and the acceptance suite.

Each preset is provably irrational, and none satisfies an algebraic relation
of a degree we enumerate except through its declared minimal polynomial:

- sqrt2m1, cbrt2: algebraic with exact vanishing handled symbolically.
- liouville2fact, liouville3pow2: lacunary series, transcendental.
- fibwordcf: the continued fraction whose partial quotients follow the
  Fibonacci word over {1, 2}; Sturmian continued fractions are transcendental,
  which justifies the nonvanishing assumption of cf word rules.

Each is a JSON descriptor, loaded as a `--number` file is.
"""
from __future__ import annotations

from .numbers import NumberDescriptor, descriptor_from_dict

_SPECS = {
    "sqrt2m1": {"kind": "algebraic", "minpoly": [-1, 2, 1],
                "interval": ["0", "1"]},
    "cbrt2": {"kind": "algebraic", "minpoly": [-2, 0, 0, 1],
              "interval": ["1", "2"]},
    "liouville2fact": {"kind": "liouville", "base": 2,
                       "exponents": "factorial"},
    "liouville3pow2": {"kind": "liouville", "base": 3,
                       "exponents": {"type": "power", "base": 2}},
    "fibwordcf": {"kind": "cf", "prefix": [0],
                  "rule": {"type": "word", "morphism": {"a": "ab", "b": "a"},
                           "start": "a", "letters": {"a": 1, "b": 2}}},
}

STOCK_NAMES = tuple(_SPECS)


def preset(name: str) -> NumberDescriptor:
    """Fresh descriptor instance for a stock number."""
    try:
        spec = _SPECS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(STOCK_NAMES)}")
    return descriptor_from_dict({**spec, "label": name})
