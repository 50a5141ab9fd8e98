"""Command-line front end.

Eight subcommands over the library: record computation, span scanning,
block-determinant checks, Schmidt-Summerer graphs, exponent estimation,
closed-form bound tables, the inequality audit, and height-product
scans.  Outputs are deterministic for a fixed configuration and seed:
floats are printed with 12 significant digits, exact quantities as
rational strings, and JSON objects with sorted keys.  Progress messages
go to standard error only, so the data channels stay machine-clean.

Exit codes: 0 success, 1 usage or precision problems, 2 certified
invariant violation (an exact contradiction in quantities the library
guarantees, which means a bug rather than interesting data).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import SCHEMA, __version__
from .bestapprox import (
    DEFAULT_CAP,
    DEFAULT_VALUE_BITS,
    BestApproxSequence,
    best_approx_sequence,
)
from .errors import DomainWarning, PolyApproxError
from .exponents import audit, bounds_table, estimate_exponents
from .numbers import NumberDescriptor, descriptor_from_dict
from .pgn import (
    DEFAULT_POOL_BUDGET,
    minkowski_check,
    ss_graph,
    sum_bound_constant,
)
from .polynomials import gelfond_scan
from .presets import STOCK_NAMES, preset
from .spanconds import (
    phi,
    psi_estimate,
    span_dims,
    triple_from_records,
    triple_span_check,
)

# Nothing here calls these two, but perfbench/spans.py installs its
# tracing wrappers on them in this module's namespace.
from .polynomials import poly_gcd  # noqa: F401
from .spanconds import span_rank  # noqa: F401

CACHE_ENV = "POLYAPPROX_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 1."""


def _require_positive(args, *names) -> None:
    """Reject the first of the named flags that is set and below 1."""
    for name in names:
        value = vars(args)[name]
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    certified violations, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    """12 significant digits, locale-independent."""
    return format(float(x), ".12g")


def _jline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jdoc(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _progress(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr, flush=True)


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)


def _parse_int_list(text: str, flag: str) -> list:
    """Accepts '4', '2..10', and comma-separated mixtures."""
    values = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            a, _, b = part.partition("..")
            try:
                lo, hi = int(a), int(b)
            except ValueError:
                raise UsageError(f"{flag}: cannot parse range {part!r}")
            if lo > hi:
                raise UsageError(f"{flag}: empty range {part!r}")
            values.update(range(lo, hi + 1))
        else:
            try:
                values.add(int(part))
            except ValueError:
                raise UsageError(f"{flag}: cannot parse {part!r}")
    if not values:
        raise UsageError(f"{flag}: no values given")
    return sorted(values)


def _parse_window(text: str) -> tuple:
    """'3..K' style window; the upper end K means 'last usable index'."""
    a, sep, b = text.partition("..")
    if not sep:
        raise UsageError(f"--window: expected LO..HI, got {text!r}")
    try:
        lo = int(a)
    except ValueError:
        raise UsageError(f"--window: bad lower end {a!r}")
    if b.strip().upper() in ("K", "END", ""):
        return lo, None
    try:
        return lo, int(b)
    except ValueError:
        raise UsageError(f"--window: bad upper end {b!r}")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: cannot parse rational {text!r}")


def _load_descriptor(args) -> NumberDescriptor:
    if args.preset:
        return preset(args.preset)
    with open(args.number) as fh:
        return descriptor_from_dict(json.load(fh))


def _chain(args) -> tuple[NumberDescriptor, BestApproxSequence]:
    """Load the descriptor and its record chain at --n.  Callers check
    their flags first, so a usage error costs no chain."""
    desc = _load_descriptor(args)
    return desc, _sequence(args, desc, args.n)


def _head(op: str, desc: NumberDescriptor, **fields) -> dict:
    """The manifest of a command that takes a descriptor."""
    return {"schema": SCHEMA, "op": op, "descriptor": desc.to_dict(), **fields}


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's *.py bytes in name order, so that a cached
    chain is reused only by the code that wrote it."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _sequence(args, desc: NumberDescriptor, n: int) -> BestApproxSequence:
    """Compute the record chain at degree bound n, with --hmax, --cap and
    --bits from args, and an optional on-disk cache keyed by the package's
    source digest (which covers SCHEMA and __version__) and the full
    configuration (set CACHE_ENV to a directory to enable).  An entry that
    does not load as a valid chain for (n, h_max) is recomputed and
    rewritten."""
    h_max, cap, bits = args.hmax, args.cap, args.bits
    cache_dir = os.environ.get(CACHE_ENV)
    path = None
    if cache_dir:
        key = _jline({
            "source": _source_digest(),
            "descriptor": desc.to_dict(),
            "n": n,
            "h_max": h_max,
            "cap": cap,
            "value_bits": bits,
        })
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        path = os.path.join(cache_dir, f"seq-{digest}.json")
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    return BestApproxSequence.from_dict(
                        json.load(fh), n=n, h_max=h_max)
            except (ValueError, KeyError, TypeError) as exc:
                _progress(args, f"cache entry unusable ({exc}); recomputing")
    _progress(args, f"records: n={n} H<={h_max} cap={cap}")
    seq = best_approx_sequence(desc, n, h_max, cap=cap, value_bits=bits)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(seq.to_dict(), fh)
        os.replace(tmp, path)
    return seq


def _interval_fields(iv) -> Optional[dict]:
    """JSON fields of an interval; None (JSON null) when there is none."""
    if iv is None:
        return None
    return {"lo": str(iv.lo), "hi": str(iv.hi), "float": _fmt(iv)}


# ---------------------------------------------------------------- bounds


def cmd_bounds(args) -> int:
    ns = _parse_int_list(args.n, "--n")
    if min(ns) < 1:
        raise UsageError("--n must be >= 1")
    if args.t.strip().lower() == "auto":
        ts = None
    else:
        # repeats dropped by value, first-seen order kept
        ts = list(dict.fromkeys(_parse_fraction(p, "--t")
                                for p in args.t.split(",") if p.strip()))
        if not ts:
            raise UsageError("--t: no values given")
    header = "n,t,theta,sigma,w_root,maxroot_cap,d_bound,e_bound"
    lines = [header]
    for n in ns:
        # a t outside its range qualifies the printed values, so its
        # warning goes to stderr as one line, --quiet or not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DomainWarning)
            table = bounds_table(n, ts)
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
        if n < 2:
            w_cell = cap_cell = ""
            t_rows = [("", "", "")]
        else:
            w_cell = _fmt(table.w_of_n)
            cap_cell = _fmt(table.maxroot_cap)
            t_rows = [(t, _fmt(d), _fmt(e)) for (t, d), (_, e)
                      in zip(table.dbound_at, table.ebound_at)]
        for t, d_cell, e_cell in t_rows:
            lines.append(",".join([
                str(n),
                t,
                _fmt(table.theta),
                _fmt(table.sigma),
                w_cell,
                cap_cell,
                d_cell,
                e_cell,
            ]))
    _emit(args, "\n".join(lines))
    return EXIT_OK


# ----------------------------------------------------------- best-approx


def cmd_best_approx(args) -> int:
    _require_positive(args, "n", "hmax", "cap", "bits")
    desc, seq = _chain(args)
    chain = seq.to_dict()
    rows = chain.pop("records")
    lines = [_jline(_head("best-approx", desc, **chain, records=len(rows)))]
    for row, rec in zip(rows, seq.records):
        lines.append(_jline({**row, "poly": str(rec.poly),
                             "value": _fmt(rec.value)}))
    _emit(args, "\n".join(lines))
    return EXIT_OK


# ------------------------------------------------------------- span-scan


def cmd_span_scan(args) -> int:
    _require_positive(args, "n", "hmax", "cap", "bits", "threshold")
    lo, hi = _parse_window(args.window)
    desc, seq = _chain(args)
    if hi is None:
        hi = len(seq) - 1
    _progress(args, f"span scan: k in [{lo}, {hi}]")
    est = psi_estimate(seq, (lo, hi), args.threshold)
    _emit(args, _jdoc(_head("span-scan", desc, h_max=seq.h_max,
                            **est.to_dict())))

    if args.csv:
        dims = span_dims(seq.n)
        lines = ["k,m,rank,full,coprime,phi"]
        for k, coprime, ranks in est.rows:
            # the block determinant exists for even n only; it goes on
            # the first m of each k
            phi_cell = (str(phi(triple_from_records(seq, k)))
                        if seq.n % 2 == 0 else "")
            for m, rank in zip(dims, ranks):
                lines.append(",".join([
                    str(k), str(m), str(rank),
                    str(int(rank == m + 1)), str(int(coprime)),
                    phi_cell if m == dims.start else "",
                ]))
        with open(args.csv, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ------------------------------------------------------------ lambda-det


def cmd_lambda_det(args) -> int:
    _require_positive(args, "n", "hmax", "cap", "bits")
    if args.n % 2 != 0:
        raise UsageError(f"block determinant needs even n, got {args.n}")
    ks = (None if args.k.strip().lower() == "all"
          else _parse_int_list(args.k, "--k"))
    desc, seq = _chain(args)
    if ks is None:
        ks = list(range(2, len(seq)))
    lines = [_jline(_head("lambda-det", desc, n=seq.n, h_max=seq.h_max,
                          indices=ks))]
    disagreement = False
    for k in ks:
        triple = triple_from_records(seq, k)
        check = triple_span_check(triple)
        answers = (check["phi_nonzero"], check["span_full"],
                   check["kernel_trivial"])
        agree = len(set(answers)) == 1
        disagreement = disagreement or not agree
        witness = check["witness"]
        lines.append(_jline({
            **check,
            "k": k,
            "heights": [seq.record(k + d).height for d in (-1, 0, 1)],
            "phi": str(check["phi"]),
            "agree": agree,
            "witness": (
                [list(p.coeffs) for p in witness] if witness else None
            ),
        }))
    _emit(args, "\n".join(lines))
    if disagreement:
        # The three routes are provably equivalent; disagreement is a bug.
        print("error: span-condition routes disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# -------------------------------------------------------------- ss-graph


def cmd_ss_graph(args) -> int:
    _require_positive(args, "m", "hpool", "steps", "cap", "bits", "budget")
    desc = _load_descriptor(args)
    q_min = _parse_fraction(args.qmin, "--qmin")
    q_max = _parse_fraction(args.qmax, "--qmax")
    _progress(
        args,
        f"graph: m={args.m} H_pool<={args.hpool} q in [{q_min}, {q_max}] "
        f"({args.steps} steps)",
    )
    graph = ss_graph(args.m, desc, q_min, q_max, args.steps, args.hpool,
                     bits=args.bits, cap=args.cap, budget=args.budget)
    manifest = _head(
        "ss-graph", desc, m=args.m, h_pool=args.hpool, q_min=str(q_min),
        q_max=str(q_max), steps=args.steps,
        sum_bound_constant=_fmt(sum_bound_constant(args.m, desc, args.bits)),
        certified_samples=len(graph.certified_samples()))
    if graph.certified_samples():
        mk = minkowski_check(graph)
        manifest["minkowski"] = {
            "sup_abs_sum": _fmt(mk["sup_abs_sum"]),
            "min_residual": _fmt(mk["min_residual"]),
            "certified_count": mk["certified_count"],
        }
    header = ["q"]
    header += [f"L{j}" for j in range(1, args.m + 2)]
    header += ["certified"]
    header += [f"witness_{j}" for j in range(1, args.m + 2)]
    lines = [_jline(manifest), ",".join(header)]
    for sample in graph.samples:
        cells = [_fmt(sample.q)]
        cells += [_fmt(v) for v in sample.values]
        cells += [str(int(sample.certified))]
        cells += [f"\"{p}\"" for p in sample.witnesses]
        lines.append(",".join(cells))
    _emit(args, "\n".join(lines))
    return EXIT_OK


# ------------------------------------------------------------- exponents


def cmd_exponents(args) -> int:
    _require_positive(args, "n", "hmax", "cap", "bits", "k0")
    desc, seq = _chain(args)
    est = estimate_exponents(seq, k0=args.k0)
    _emit(args, _jdoc(_head(
        "exponents", desc, estimate=est.to_dict(),
        w_lower_interval=_interval_fields(est.w_lower_interval),
        what_proxy_interval=_interval_fields(est.what_proxy_interval),
        w_rows=[
            {"k": r.k, "height": r.height, "ratio": _interval_fields(r.ratio)}
            for r in est.w_rows
        ],
        u_rows=[
            {"k": r.k, "height": r.height, "next_height": r.next_height,
             "ratio": _interval_fields(r.ratio)}
            for r in est.u_rows
        ])))
    return EXIT_OK


# ----------------------------------------------------------------- audit


def cmd_audit(args) -> int:
    _require_positive(args, "n", "hmax", "cap", "bits", "k0", "threshold",
                      "algebraic_degree")
    if args.with_prev and args.n < 2:
        raise UsageError("--with-prev needs n >= 2")
    desc, seq = _chain(args)
    est = estimate_exponents(seq, k0=args.k0)

    span = None
    if args.with_span:
        try:
            span = psi_estimate(seq, threshold=args.threshold)
        except PolyApproxError as exc:
            _progress(args, f"span scan skipped: {exc}")

    est_prev = None
    if args.with_prev:
        prev_seq = _sequence(args, desc, args.n - 1)
        est_prev = estimate_exponents(prev_seq, k0=args.k0)

    algebraic_degree = args.algebraic_degree
    if algebraic_degree is None and desc.minpoly is not None:
        algebraic_degree = desc.minpoly.degree

    report = audit(est, span=span, est_prev=est_prev,
                   algebraic_degree=algebraic_degree)
    if args.json:
        _emit(args, _jdoc(_head("audit", desc, report=report.to_dict())))
    else:
        _emit(args, report.to_text())
    if report.has_violation:
        print("error: certified invariant violation", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# --------------------------------------------------------------- gelfond


def cmd_gelfond(args) -> int:
    _require_positive(args, "n", "hmax")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    samples = None if args.samples == 0 else args.samples
    if samples is not None and samples < 1:
        raise UsageError("--samples must be >= 0 (0 means exhaustive)")
    mode = "exhaustive" if samples is None else f"{samples} random pairs"
    _progress(args, f"height products: n={args.n} H<={args.hmax} ({mode})")
    scan = gelfond_scan(args.n, args.hmax, sample_count=samples,
                        rng_seed=args.seed)
    _emit(args, _jdoc({
        "schema": SCHEMA,
        "op": "gelfond",
        "n": scan.n,
        "h_max": scan.h_max,
        "pairs": scan.count,
        "seed": args.seed if samples is not None else None,
        "min_ratio": str(scan.min_ratio),
        "min_ratio_float": _fmt(scan.min_ratio),
        "max_ratio": str(scan.max_ratio),
        "max_ratio_float": _fmt(scan.max_ratio),
        "min_witness": [str(p) for p in scan.min_witness],
        "max_witness": [str(p) for p in scan.max_witness],
    }))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_number_flags(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=STOCK_NAMES,
                       help="stock number by name")
    group.add_argument("--number", metavar="FILE",
                       help="JSON number descriptor")


# A certified evaluation starts at --bits (the record engine: at least 64)
# even when that exceeds --cap; the cap bounds only the doubling after it.
CAP_HELP = ("cap in bits on the precision escalation; "
            "the first evaluation may exceed it")
BITS_HELP = "certified value width in bits"


def _add_sequence_flags(p) -> None:
    p.add_argument("--n", type=int, required=True,
                   help="degree bound")
    p.add_argument("--hmax", type=int, required=True, help="height bound")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)
    p.add_argument("--bits", type=int, default=DEFAULT_VALUE_BITS,
                   help=BITS_HELP)


def _add_common_flags(p) -> None:
    p.add_argument("--out", metavar="FILE",
                   help="output path (default: stdout)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress messages")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: commands resolve the
    module's functions when they run, so the parser holds no state."""
    parser = _Parser(prog="polyapprox",
                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} ({SCHEMA})")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("best-approx",
                       help="certified best-approximation record chain")
    _add_number_flags(p)
    _add_sequence_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_best_approx)

    p = sub.add_parser("span-scan",
                       help="full-span witnesses over a window of records")
    _add_number_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--window", default="2..K",
                   help="record index window LO..HI (K = last usable)")
    p.add_argument("--threshold", type=int, default=3,
                   help="witness count that settles psi_hat")
    p.add_argument("--csv", metavar="FILE",
                   help="also write the per-(k, m) rank table")
    _add_common_flags(p)
    p.set_defaults(func=cmd_span_scan)

    p = sub.add_parser("lambda-det",
                       help="block-determinant span certificates")
    _add_number_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--k", default="all",
                   help="record indices ('all' or list like 3,4 or 3..9)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_lambda_det)

    p = sub.add_parser("ss-graph",
                       help="successive-minima graph over a q grid")
    _add_number_flags(p)
    p.add_argument("--m", type=int, required=True, help="dimension bound")
    p.add_argument("--qmin", required=True, help="grid start (rational)")
    p.add_argument("--qmax", required=True, help="grid end (rational)")
    p.add_argument("--steps", type=int, default=16, help="grid intervals")
    p.add_argument("--hpool", type=int, required=True,
                   help="candidate pool height bound")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)
    p.add_argument("--bits", type=int, default=64, help=BITS_HELP)
    p.add_argument("--budget", type=int, default=DEFAULT_POOL_BUDGET,
                   help="candidate evaluation budget")
    _add_common_flags(p)
    p.set_defaults(func=cmd_ss_graph)

    p = sub.add_parser("exponents",
                       help="finite-horizon exponent estimates")
    _add_number_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--k0", type=int, default=1,
                   help="first index of the uniform-proxy window")
    _add_common_flags(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("bounds", help="closed-form bound table (CSV)")
    p.add_argument("--n", required=True,
                   help="degrees ('4', '2..10', or comma list)")
    p.add_argument("--t", default="auto",
                   help="'auto' or comma-separated rational t values")
    _add_common_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("audit",
                       help="hold the data against the known inequalities")
    _add_number_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--with-span", action="store_true",
                   help="also run the span scan and gate the span rows")
    p.add_argument("--with-prev", action="store_true",
                   help="also estimate at n-1 for the growth-gated rows")
    p.add_argument("--threshold", type=int, default=3)
    p.add_argument("--algebraic-degree", type=int, default=None,
                   help="override the descriptor's algebraic degree")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of the text report")
    _add_common_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gelfond",
                       help="height-product ratio extremes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000,
                   help="random pair count (0 = exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    _add_common_flags(p)
    p.set_defaults(func=cmd_gelfond)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyApproxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
