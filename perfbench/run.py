"""polyapprox benchmark driver.

    python3 perfbench/run.py --workload chains --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(``worker.py``) that import the package from ``src/``: a few that only
set up, for ``setup_s``, and one that also runs the workload's cells
through ``polyapprox.cli.main`` for ``--seconds``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --record-digests

runs every seed-0 cell once and rewrites ``digests.json``.  The digests
pin the outputs of the commit that recorded them; record them only on a
commit whose outputs are known good.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from worker import CAL_NOMINAL_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
CACHE_ENV = "POLYAPPROX_CACHE_DIR"
# Processes that set up per run; setup_s is their median.  The analysis
# set-up computes its chains, so it is repeated fewer times.
SETUPS = {"chains": 7, "ties": 7, "minima": 7, "analysis": 3}
TIME_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    pass


class Run:
    """Scratch space and worker processes of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.scratch = os.path.join(".perfbench", f"run-{os.getpid()}")
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.plan_path = os.path.join(self.scratch, "plan.json")
        self.spawned = 0

    def write_plan(self, seed, expected):
        plan = workloads.plan(self.workload, seed, self.scratch)
        plan["expected"] = expected
        with open(self.plan_path, "w") as fh:
            json.dump(plan, fh)

    def worker(self, *extra):
        """Start one worker, wait for it, return (result, setup seconds)."""
        self.spawned += 1
        out = os.path.join(self.scratch, f"result-{self.spawned}.json")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop(CACHE_ENV, None)
        if self.workload == "analysis":
            # A fresh chain cache per process; set-up fills it.
            env[CACHE_ENV] = os.path.join(self.scratch, f"cache-{self.spawned}")
        cal = calibrate(3)
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--plan", self.plan_path, "--out", out, "--t0", repr(t0), *extra]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise HarnessError("worker did not finish within the time limit")
        if proc.returncode != 0:
            raise HarnessError(f"worker exited with code {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        setup = result["setup_raw_s"] * CAL_NOMINAL_S / ((cal + result["setup_cal_s"]) / 2)
        return result, setup

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def benchmark(root, workload, seed, seconds, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    run = Run(workload)
    try:
        expected = None
        if seed == 0:
            with open(DIGESTS) as fh:
                expected = json.load(fh)
        run.write_plan(seed, expected)
        args = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            args += ["--spans-out",
                     os.path.join(".perfbench", f"spans-{workload}-seed{seed}.json")]
            setups = []
        else:
            setups = [run.worker("--setup-only")[1] for _ in range(SETUPS[workload] - 1)]
        result, setup = run.worker(*args)
    finally:
        run.close()
    setups.append(setup)
    attempted = result["attempted"]
    failed = len(result["failures"])
    for reason in result["failures"][:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if trace:
        values = result["layer"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_frac": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_digests():
    digests = {}
    for workload in workloads.WORKLOADS:
        run = Run(workload)
        try:
            run.write_plan(0, None)
            result, _ = run.worker("--seconds", "0")
        finally:
            run.close()
        for key, (rc, sha) in result["observed"].items():
            digests[key] = {"rc": rc, "sha256": sha}
        print(f"{workload}: {len(result['observed'])} cells", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="polyapprox benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyapprox", "cli.py")):
        print("error: run from the root of a polyapprox checkout "
              "(src/polyapprox not found)", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        report = benchmark(root, args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
