"""Span tracing installed from outside the package.

The package imports library functions by name (``from .numbers import
compare_abs``), so a wrapper only sees the calls made through the
namespace it is installed in.  ``HOOKS`` lists every (module, attribute)
call site the benchmark wraps, with the span name and the layer (module)
the span is charged to.  ``intervals`` and the ``IntegerPolynomial``
methods are leaf arithmetic called millions of times and are not wrapped:
their time counts in the caller's self time.

Spans are kept in memory as ``[name, layer, parent, start, end, extra]``
rows; the per-layer metrics are computed from them after the pass.
"""

import functools
import importlib
from time import perf_counter

LAYERS = ("cli", "bestapprox", "numbers", "logs", "polynomials",
          "exactlinalg", "spanconds", "pgn", "exponents")

# (module, attribute, span name, layer).  Attribute "Class.method" wraps a
# method on the class itself, which every call site sees.
HOOKS = (
    ("cli", "best_approx_sequence", "best_approx_sequence", "bestapprox"),
    ("bestapprox", "BestApproxSequence.from_dict", "cache_load", "cli"),
    ("bestapprox", "compare_abs", "compare_abs", "numbers"),
    ("bestapprox", "eval_at", "eval_at", "numbers"),
    ("bestapprox", "is_zero_at", "is_zero_at", "numbers"),
    ("numbers", "eval_at", "eval_at", "numbers"),
    ("numbers", "is_zero_at", "is_zero_at", "numbers"),
    ("pgn", "is_zero_at", "is_zero_at", "numbers"),
    ("numbers", "NumberDescriptor.refine", "refine", "numbers"),
    ("bestapprox", "ln_interval", "ln_interval", "logs"),
    ("bestapprox", "ln_interval_of", "ln_interval_of", "logs"),
    ("pgn", "ln_interval", "ln_interval", "logs"),
    ("pgn", "ln_interval_of", "ln_interval_of", "logs"),
    ("exponents", "ln_interval", "ln_interval", "logs"),
    ("exponents", "ln_interval_of", "ln_interval_of", "logs"),
    ("numbers", "poly_gcd", "poly_gcd", "polynomials"),
    ("numbers", "sturm_root_count", "sturm_root_count", "polynomials"),
    ("cli", "poly_gcd", "poly_gcd", "polynomials"),
    ("spanconds", "poly_gcd", "poly_gcd", "polynomials"),
    ("cli", "gelfond_scan", "gelfond_scan", "polynomials"),
    ("spanconds", "rank_of_rows", "rank_of_rows", "exactlinalg"),
    ("spanconds", "det_bareiss", "det_bareiss", "exactlinalg"),
    ("spanconds", "kernel_basis", "kernel_basis", "exactlinalg"),
    ("polynomials", "rank_of_rows", "rank_of_rows", "exactlinalg"),
    ("exactlinalg", "IncrementalBasis.add", "basis_add", "exactlinalg"),
    ("cli", "span_rank", "span_rank", "spanconds"),
    ("spanconds", "span_rank", "span_rank", "spanconds"),
    ("cli", "phi", "phi", "spanconds"),
    ("cli", "psi_estimate", "psi_estimate", "spanconds"),
    ("cli", "triple_from_records", "triple_from_records", "spanconds"),
    ("cli", "triple_span_check", "triple_span_check", "spanconds"),
    ("cli", "ss_graph", "ss_graph", "pgn"),
    ("pgn", "successive_minima_at", "successive_minima_at", "pgn"),
    ("cli", "minkowski_check", "minkowski_check", "pgn"),
    ("cli", "sum_bound_constant", "sum_bound_constant", "pgn"),
    ("cli", "estimate_exponents", "estimate_exponents", "exponents"),
    ("cli", "audit", "audit", "exponents"),
    ("cli", "bounds_table", "bounds_table", "exponents"),
)


_EXTRA_NAMES = frozenset(("best_approx_sequence", "refine", "successive_minima_at"))


def _extra(name, args, result):
    """Counts a span carries beyond its timing."""
    if name == "best_approx_sequence":
        return (len(result.records), len(result.warnings))
    if name == "refine":
        return args[1]
    if name == "successive_minima_at":
        return int(result.certified)
    return None


class Recorder:
    """Collects spans from the installed wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span and return its result."""
        spans, stack = self.spans, self._stack
        row = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, None]
        stack.append(len(spans))
        spans.append(row)
        row[3] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            row[4] = perf_counter()
            stack.pop()
        if name in _EXTRA_NAMES:
            row[5] = _extra(name, args, result)
        return result

    def wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)
        return wrapper

    def install(self):
        for module_name, attr, name, layer in HOOKS:
            owner = importlib.import_module(f"polyapprox.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(original.__func__, name, layer))
            else:
                wrapped = self.wrap(original, name, layer)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Per span: its duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, row in enumerate(spans):
        if row[2] >= 0:
            children[row[2]].append(i)
    result = []
    for i, (_, _, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda j: spans[j][3]):
            lo = max(spans[c][3], reach)
            hi = min(spans[c][4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(spans, scale=1.0):
    """Per-layer metrics of one traced pass; times are multiplied by scale."""
    selfs = self_times(spans)
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for row, own in zip(spans, selfs):
        metrics[f"{row[1]}.self_s"] += own * scale

    def ancestors(i):
        parent = spans[i][2]
        while parent >= 0:
            yield spans[parent]
            parent = spans[parent][2]

    def named(name):
        return [i for i, row in enumerate(spans) if row[0] == name]

    def calls_and_s(name):
        idx = named(name)
        return len(idx), sum(spans[i][4] - spans[i][3] for i in idx) * scale

    # Entries into a layer: spans of the layer with no ancestor in it.
    for layer in ("exactlinalg", "polynomials", "spanconds", "exponents"):
        entries = [row for i, row in enumerate(spans) if row[1] == layer
                   and all(a[1] != layer for a in ancestors(i))]
        metrics[f"{layer}.calls"] = len(entries)
        metrics[f"{layer}.s"] = sum(r[4] - r[3] for r in entries) * scale

    engine = [spans[i] for i in named("best_approx_sequence")]
    records = sum(r[5][0] for r in engine)
    compares = len(named("compare_abs"))
    metrics["bestapprox.calls"] = len(engine)
    metrics["bestapprox.records"] = records
    metrics["bestapprox.warnings"] = sum(r[5][1] for r in engine)
    metrics["bestapprox.compares_per_record"] = compares / records if records else 0.0

    for name in ("compare_abs", "is_zero_at", "eval_at", "refine"):
        calls, seconds = calls_and_s(name)
        metrics[f"numbers.{name}.calls"] = calls
        metrics[f"numbers.{name}.s"] = seconds
    metrics["numbers.refine.max_bits"] = max(
        (spans[i][5] for i in named("refine")), default=0)
    adjudication = [i for i, row in enumerate(spans)
                    if row[0] in ("compare_abs", "is_zero_at")
                    and all(a[0] not in ("compare_abs", "is_zero_at")
                            for a in ancestors(i))]
    metrics["numbers.adjudication_s"] = sum(
        spans[i][4] - spans[i][3] for i in adjudication) * scale

    ln_calls, ln_s = calls_and_s("ln_interval")
    of_calls, of_s = calls_and_s("ln_interval_of")
    metrics["logs.ln.calls"], metrics["logs.ln.s"] = ln_calls + of_calls, ln_s + of_s

    samples = [spans[i] for i in named("successive_minima_at")]
    metrics["pgn.samples"] = len(samples)
    metrics["pgn.certified_frac"] = (
        sum(r[5] for r in samples) / len(samples) if samples else 0.0)
    metrics["pgn.pool_evals"] = sum(
        1 for i in named("ln_interval_of") if any(a[1] == "pgn" for a in ancestors(i)))

    metrics["spanconds.span_rank.calls"] = len(named("span_rank"))

    loads = len(named("cache_load"))
    metrics["cli.cache_loads"] = loads
    metrics["cli.cache_hit_frac"] = (
        loads / (loads + len(engine)) if loads + len(engine) else 0.0)
    return metrics
