"""One workload process: set up, run the cells, check them, report.

Started by ``run.py`` in a fresh interpreter from the root of a
checkout; imports the package from ``src/`` of that checkout only.

Timing.  The CPU speed of a shared machine drifts by tens of percent
over seconds, so every raw time is divided by the time of ``calibrate``,
a fixed pure-Python loop of exact-rational and integer work measured
just before and just after it, and multiplied by ``CAL_NOMINAL_S``.
The result is in reference seconds: what the time would be on a machine
that runs the calibration loop in ``CAL_NOMINAL_S``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

CAL_NOMINAL_S = 0.02
# Cells run in groups of at least this many raw seconds between two
# calibrations; a group is normalised by the mean of its two brackets.
GROUP_S = 0.3


def calibrate(repeat: int = 1) -> float:
    """Raw seconds of a fixed loop of the two kinds of work the package
    does: Fraction arithmetic on ~200-bit integers with tuples and dicts
    (enumeration, adjudication), and on ~3000-bit integers (log series,
    refined values); the median of repeat runs."""
    if repeat > 1:
        return statistics.median(calibrate() for _ in range(repeat))
    start = time.perf_counter()
    x = Fraction(1, 3)
    table = {}
    mask = (1 << 200) - 1
    for i in range(1, 1100):
        x = (x * 7 + Fraction(1, i + 2)) / 3
        x = Fraction(x.numerator & mask, (x.denominator & mask) + 1)
        key = (i & 127, x.numerator & 255)
        table[key] = table.get(key, 0) + 1
    big = Fraction(3**700, 2**1100 + 1)
    y = Fraction(1)
    mask = (1 << 3000) - 1
    for i in range(30):
        y = (y * big + Fraction(1, 3 ** (i + 600))) / (1 + big)
        y = Fraction(y.numerator & mask, (y.denominator & mask) + 1)
    return time.perf_counter() - start


def check_output(cell: dict, rc: int, out: str) -> str:
    """Invariant check of one cell's output; returns '' or a reason."""
    if rc != 0:
        return f"exit code {rc}"
    if not out.strip():
        return "empty output"
    if cell["kind"] == "chain":
        return check_chain(out, cell["hmax"])
    if cell["kind"] == "graph":
        rows = out.splitlines()
        if len(rows) != cell["steps"] + 3:  # manifest, header, one row per q
            return f"ss-graph printed {len(rows)} lines"
        json.loads(rows[0])
    return ""


def check_chain(out: str, hmax: int) -> str:
    """k runs 1..K, heights strictly increase and stay <= H, value_lo is
    positive and strictly decreasing, and each polynomial's height equals
    its recorded height."""
    lines = out.splitlines()
    manifest = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    if manifest["records"] != len(records) or not records:
        return "record count does not match the manifest"
    prev_h, prev_v = 0, None
    for k, rec in enumerate(records, start=1):
        value = Fraction(rec["value_lo"])
        if rec["k"] != k:
            return f"record {k} has index {rec['k']}"
        if not prev_h < rec["height"] <= hmax:
            return f"record {k}: height {rec['height']} out of order"
        if value <= 0 or (prev_v is not None and value >= prev_v):
            return f"record {k}: value_lo not positive and decreasing"
        if max(abs(c) for c in rec["coeffs"]) != rec["height"]:
            return f"record {k}: coefficients do not have height {rec['height']}"
        prev_h, prev_v = rec["height"], value
    return ""


class Checker:
    """Runs cells through ``cli.main`` and checks every output.

    A cell fails when it raises, when its exit code or stdout digest
    differs from the recorded one (seed 0), when its output breaks the
    workload invariants, or when a repeat of it prints something else.
    """

    def __init__(self, main, expected):
        self.main = main
        self.expected = expected
        self.observed = {}
        self.attempted = 0
        self.failures = []

    def run(self, cell, recorder=None) -> float:
        argv = cell["argv"] + ["--quiet"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if recorder is None:
                    rc = self.main(argv)
                else:
                    rc = recorder.span("main", "cli", self.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed cell, not a harness error
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self._check(cell, rc, out.getvalue(), err.getvalue())
        return elapsed

    def _check(self, cell, rc, out, err):
        key = " ".join(cell["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        reason = ""
        first = self.observed.setdefault(key, [rc, digest])
        if first != [rc, digest]:
            reason = "output differs from an earlier run of the same cell"
        elif self.expected is not None:
            want = self.expected.get(key)
            if want is None:
                reason = "no recorded digest"
            elif [rc, digest] != [want["rc"], want["sha256"]]:
                reason = f"exit {rc} / sha256 {digest[:12]} differ from the recorded digest"
        if not reason:
            try:
                reason = check_output(cell, rc, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unparsable output: {exc}"
        if reason:
            self.failures.append(f"{key}: {reason} {err.strip()[-300:]}".strip())


class Passes:
    """Runs the timed cell list repeatedly and normalises each cell time
    by the calibrations bracketing its group."""

    def __init__(self, checker, cells):
        self.checker = checker
        self.cells = cells
        self.cal = calibrate()

    def run(self, recorder=None):
        """One pass; returns (normalised seconds per cell, raw pass seconds)."""
        norm, group, raw = [], [], 0.0
        for i, cell in enumerate(self.cells):
            group.append(self.checker.run(cell, recorder))
            if sum(group) >= GROUP_S or i == len(self.cells) - 1:
                cal = calibrate()
                factor = CAL_NOMINAL_S / ((self.cal + cal) / 2)
                norm.extend(t * factor for t in group)
                raw += sum(group)
                self.cal = cal
                group = []
        return norm, raw


def _pass_time(passes):
    """Seconds of one pass: the sum over cells of each cell's median."""
    return sum(statistics.median(col) for col in zip(*passes))


def _timed(checker, cells, args):
    """Untraced passes for the run's seconds (the first half of them when
    tracing), then traced passes for the rest; at least one of each."""
    runner = Passes(checker, cells)
    start = time.perf_counter()
    plain_until = args.seconds / 2 if args.trace else args.seconds
    plain = []
    while not plain or time.perf_counter() - start < plain_until:
        plain.append(runner.run()[0])
    out = {"passes": len(plain), "wall_s": _pass_time(plain)}
    if not args.trace:
        return out

    from spans import Recorder, layer_metrics

    recorder = Recorder()
    recorder.install()
    traced, per_pass = [], []
    try:
        while not traced or time.perf_counter() - start < args.seconds:
            norm, raw = runner.run(recorder)
            spans = recorder.take()
            if not traced and args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump(spans, fh)
            traced.append(norm)
            per_pass.append(layer_metrics(spans, scale=sum(norm) / raw))
    finally:
        recorder.uninstall()
    layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    layer["trace.wall_s"] = _pass_time(traced)
    layer["trace.overhead_frac"] = layer["trace.wall_s"] / out["wall_s"] - 1
    out["layer"] = layer
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent spawned this process")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="file for the first traced pass's spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from polyapprox import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"polyapprox imported from {cli.__file__}, not {src}")

    with open(args.plan) as fh:
        plan = json.load(fh)
    checker = Checker(cli.main, plan["expected"])
    for cell in plan["setup"]:
        checker.run(cell)
    setup_raw = time.monotonic() - args.t0
    result = {"setup_raw_s": setup_raw, "setup_cal_s": calibrate(3)}
    if not args.setup_only:
        result.update(_timed(checker, plan["cells"], args))
    result.update(
        attempted=checker.attempted,
        failures=checker.failures,
        observed=checker.observed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
