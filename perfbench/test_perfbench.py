"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Run from the repository root.  The repository's own test suite
(``tests/``) does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Checker, check_chain  # noqa: E402


def _span(name, layer, parent, start, end):
    return [name, layer, parent, start, end, None]


def test_self_time_subtracts_what_children_cover():
    tree = [
        _span("main", "cli", -1, 0.0, 10.0),
        _span("best_approx_sequence", "bestapprox", 0, 1.0, 4.0),
        _span("compare_abs", "numbers", 1, 2.0, 3.0),
        _span("estimate_exponents", "exponents", 0, 5.0, 9.0),
        _span("ln_interval", "logs", 3, 5.5, 6.0),
        _span("ln_interval", "logs", 3, 6.0, 7.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]
    m = spans.layer_metrics(
        [row[:5] + [(1, 0)] if row[0] == "best_approx_sequence" else row for row in tree],
        scale=2.0,
    )
    assert m["cli.self_s"] == 6.0
    assert m["bestapprox.self_s"] == 4.0
    assert m["exponents.self_s"] == 5.0
    assert m["logs.ln.calls"] == 2 and m["logs.ln.s"] == 3.0
    assert m["numbers.adjudication_s"] == 2.0
    assert m["exponents.calls"] == 1 and m["exponents.s"] == 8.0
    assert m["bestapprox.compares_per_record"] == 1.0


def test_self_time_merges_overlapping_children():
    tree = [
        _span("a", "cli", -1, 0.0, 4.0),
        _span("b", "numbers", 0, 1.0, 3.0),
        _span("c", "numbers", 0, 2.0, 5.0),  # overlaps b and outlives a
    ]
    assert spans.self_times(tree)[0] == 1.0


def test_install_patches_call_sites_and_uninstall_restores_them():
    from polyapprox import cli, exactlinalg

    before = (cli.best_approx_sequence, exactlinalg.IncrementalBasis.add)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert cli.best_approx_sequence is not before[0]
        assert cli.main(["bounds", "--n", "2", "--quiet"]) == 0
    finally:
        recorder.uninstall()
    assert (cli.best_approx_sequence, exactlinalg.IncrementalBasis.add) == before
    assert [row[0] for row in recorder.take() if row[2] == -1] == ["bounds_table"]


def _digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def test_corrupted_digest_is_a_failure(capsys):
    from polyapprox import cli

    cell = {"argv": ["bounds", "--n", "2..10"], "kind": "output"}
    key = " ".join(cell["argv"])
    good = {key: _digests()[key]}
    bad = {key: dict(good[key], sha256="0" * 64)}
    for expected, failures in ((good, 0), (bad, 1)):
        checker = Checker(cli.main, expected)
        checker.run(cell)
        assert len(checker.failures) == failures
    assert capsys.readouterr().out == ""


def _copy_checkout(dest, with_src=True):
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _bench(cwd, workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_corrupted_digest_lowers_pass_frac(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    key = "ss-graph --preset cbrt2 --m 2 --qmin 0 --qmax 1 --hpool 3 --steps 1"
    digests[key]["sha256"] = "0" * 64
    path.write_text(json.dumps(digests))
    proc = _bench(tmp_path, "minima")
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is False
    assert report["failed"] == 1
    assert report["metrics"]["pass_frac"]["value"] == pytest.approx(11 / 12)


def test_refuses_a_directory_without_the_package(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _bench(tmp_path, "chains")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_chain_invariants():
    manifest = json.dumps({"records": 2})
    rec = lambda k, coeffs, h, v: json.dumps(  # noqa: E731
        {"k": k, "coeffs": coeffs, "height": h, "value_lo": v})
    good = "\n".join([manifest, rec(1, [-1, 1], 1, "1/4"), rec(2, [1, -2, 1], 2, "1/16")])
    assert check_chain(good, 2) == ""
    assert check_chain(good, 1) != ""  # height above H
    swapped = "\n".join([manifest, rec(1, [-1, 1], 1, "1/16"), rec(2, [1, -2, 1], 2, "1/4")])
    assert check_chain(swapped, 2) != ""
    wrong_height = "\n".join([manifest, rec(1, [-1, 1], 1, "1/4"), rec(2, [1, -3, 1], 2, "1/16")])
    assert check_chain(wrong_height, 2) != ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_seeded(tmp_path, workload):
    from polyapprox.numbers import descriptor_from_dict

    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    plan3 = workloads.plan(workload, 3, str(a))
    again = workloads.plan(workload, 3, str(b))
    plan4 = workloads.plan(workload, 4, str(c))
    strip = lambda plan, d: json.dumps(plan).replace(str(d), "")  # noqa: E731
    assert strip(plan3, a) == strip(again, b)
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_text() == (b / name).read_text()
        descriptor_from_dict(json.loads((a / name).read_text()))
    assert strip(plan3, a) != strip(plan4, c)
    seed0 = workloads.plan(workload, 0, str(tmp_path))
    digests = _digests()
    for cell in seed0["setup"] + seed0["cells"]:
        assert "--number" not in cell["argv"]
        assert "--jobs" not in cell["argv"]
        assert " ".join(cell["argv"]) in digests
