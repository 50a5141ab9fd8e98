import json
import math
import os
import subprocess
import sys

import pytest

import polyapprox
from polyapprox import SCHEMA, __version__
from polyapprox.cli import CACHE_ENV, build_parser, main
from polyapprox.presets import preset


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out and SCHEMA in out


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--frobnicate"])
    assert exc.value.code == 1


def test_parser_built_once_per_process(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.delenv(CACHE_ENV, raising=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polyapprox.__file__))
    cells = (
        ("bounds", "--n", "2..4"),
        ("best-approx", "--preset", "liouville2fact", "--n", "1",
         "--hmax", "100", "--quiet"),
        ("exponents", "--preset", "sqrt2m1", "--n", "1", "--hmax", "30",
         "--quiet"),
    )
    alone = [
        subprocess.run([sys.executable, "-m", "polyapprox", *argv],
                       capture_output=True, text=True, env=env).stdout
        for argv in cells
    ]
    # one process, alternating subcommands, each printing what it prints alone
    for i in (0, 1, 2, 0, 1):
        rc, out, _ = run(capsys, *cells[i])
        assert rc == 0 and out == alone[i], cells[i]


def test_bounds_table_output(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "2..4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,t,theta,sigma,w_root,maxroot_cap,d_bound,e_bound"
    four = [l for l in lines if l.startswith("4,")]
    assert four and all("6.30277563773" in l for l in four)


def test_bounds_degenerate_n1(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "1")
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "1"
    assert row[4] == "" and row[5] == ""  # no root data below n = 2
    assert row[6] == "" and row[7] == ""


def test_bounds_usage_errors(capsys):
    rc, _, err = run(capsys, "bounds", "--n", "0")
    assert rc == 1 and "error" in err
    rc, _, err = run(capsys, "bounds", "--n", "x")
    assert rc == 1
    rc, _, err = run(capsys, "bounds", "--n", "5..2")
    assert rc == 1


def test_best_approx_jsonl(capsys):
    rc, out, _ = run(capsys, "best-approx", "--preset", "liouville2fact",
                     "--n", "1", "--hmax", "100", "--quiet")
    assert rc == 0
    lines = out.strip().split("\n")
    manifest = json.loads(lines[0])
    assert manifest["schema"] == SCHEMA
    assert manifest["op"] == "best-approx"
    assert manifest["records"] == len(lines) - 1
    records = [json.loads(l) for l in lines[1:]]
    assert [r["k"] for r in records] == list(range(1, len(records) + 1))
    heights = [r["height"] for r in records]
    assert heights == sorted(heights)
    assert any(r["poly"] == "64T - 49" for r in records)
    for r in records:
        assert float(r["value_lo"].split("/")[0]) is not None
        assert r["value"] == format(float(r["value"]), ".12g")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "records.jsonl"
    rc, out, _ = run(capsys, "best-approx", "--preset", "sqrt2m1",
                     "--n", "1", "--hmax", "30", "--quiet",
                     "--out", str(target))
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert json.loads(text.split("\n")[0])["op"] == "best-approx"


def test_byte_determinism(capsys):
    args = ("best-approx", "--preset", "cbrt2", "--n", "2",
            "--hmax", "60", "--quiet")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sequence_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYAPPROX_CACHE_DIR", str(tmp_path))
    args = ("best-approx", "--preset", "cbrt2", "--n", "2",
            "--hmax", "60", "--quiet")
    rc1, out1, _ = run(capsys, *args)
    assert rc1 == 0
    entries = list(tmp_path.glob("seq-*.json"))
    assert len(entries) == 1
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0 and out2 == out1
    fresh = entries[0].read_text()
    entries[0].write_text("not json")
    rc3, out3, _ = run(capsys, *args)
    assert rc3 == 0 and out3 == out1  # corrupt entry is recomputed
    assert entries[0].read_text() == fresh

    # valid JSON that is not a valid chain for this run is a miss too
    def raise_height(doc):
        doc["records"][-1]["height"] += 1

    def renumber(doc):
        doc["records"][0]["k"] = 2

    def stall_value(doc):
        doc["records"][2]["value_hi"] = doc["records"][1]["value_lo"]

    def zero_value(doc):
        doc["records"][-1]["value_lo"] = "0"

    def other_horizon(doc):
        doc["h_max"] = 61

    for tamper in (raise_height, renumber, stall_value, zero_value,
                   other_horizon):
        doc = json.loads(fresh)
        tamper(doc)
        entries[0].write_text(json.dumps(doc))
        rc4, out4, _ = run(capsys, *args)
        assert rc4 == 0 and out4 == out1, tamper.__name__
        assert entries[0].read_text() == fresh, tamper.__name__


def _csv_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,m,rank,full,coprime,phi"
    return [line.split(",") for line in lines[1:]]


def test_span_scan_summary_and_csv(tmp_path, capsys):
    csv = tmp_path / "a.csv"
    rc, out, _ = run(capsys, "span-scan", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "100", "--quiet", "--csv", str(csv))
    assert rc == 0
    doc = json.loads(out)
    assert doc["op"] == "span-scan"
    assert doc["psi_hat"] == 2
    assert doc["threshold"] == 3
    assert doc["finite_window"] is True
    assert set(doc["per_m"]) == {"2", "3"}

    rows = _csv_rows(csv)
    lo, hi = doc["window"]
    assert [int(r[0]) for r in rows] == [k for k in range(lo, hi + 1)
                                         for _ in (2, 3)]
    for m, ks in doc["per_m"].items():
        assert ks == [int(r[0]) for r in rows if r[1] == m and r[3] == "1"]
    for m, ks in doc["per_m_coprime"].items():
        assert ks == [int(r[0]) for r in rows
                      if r[1] == m and r[3] == "1" and r[4] == "1"]
    # even n: the block determinant sits on the first m of each k only
    assert all(r[5] != "" for r in rows if r[1] == "2")
    assert all(r[5] == "" for r in rows if r[1] == "3")

    rc, _, _ = run(capsys, "span-scan", "--preset", "liouville2fact",
                   "--n", "3", "--hmax", "12", "--quiet", "--csv", str(csv))
    assert rc == 0
    assert all(r[5] == "" for r in _csv_rows(csv))  # odd n: no determinant


def test_span_scan_empty_window(capsys):
    rc, _, err = run(capsys, "span-scan", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "30", "--window", "9..5", "--quiet")
    assert rc == 1
    assert "empty" in err


def test_lambda_det_routes_agree(capsys):
    rc, out, _ = run(capsys, "lambda-det", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "100", "--quiet")
    assert rc == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0])["op"] == "lambda-det"
    rows = [json.loads(l) for l in lines[1:]]
    assert rows and all(r["agree"] for r in rows)
    assert all(len(r["heights"]) == 3 for r in rows)
    degenerate = [r for r in rows if r["phi"] == "0"]
    assert degenerate  # a vanishing block determinant occurs on this chain
    for r in degenerate:
        assert not r["phi_nonzero"]
        assert r["witness"]


def test_lambda_det_usage_errors(capsys):
    rc, _, err = run(capsys, "lambda-det", "--preset", "cbrt2", "--n", "3",
                     "--hmax", "30", "--quiet")
    assert rc == 1 and "even" in err
    rc, _, _ = run(capsys, "lambda-det", "--preset", "cbrt2", "--n", "2",
                   "--hmax", "30", "--k", "abc", "--quiet")
    assert rc == 1


def test_ss_graph_output(capsys):
    rc, out, _ = run(capsys, "ss-graph", "--preset", "sqrt2m1", "--m", "1",
                     "--qmin", "0", "--qmax", "2", "--steps", "4",
                     "--hpool", "15", "--quiet")
    assert rc == 0
    lines = out.strip().split("\n")
    manifest = json.loads(lines[0])
    assert manifest["op"] == "ss-graph"
    assert manifest["certified_samples"] >= 1
    assert "minkowski" in manifest
    assert lines[1] == "q,L1,L2,certified,witness_1,witness_2"
    data = lines[2:]
    assert len(data) == 5
    for row in data:
        cells = row.split(",")
        assert cells[3] in ("0", "1")
        assert cells[4].startswith('"') and cells[-1].endswith('"')


def test_ss_graph_usage_errors(capsys):
    rc, _, _ = run(capsys, "ss-graph", "--preset", "sqrt2m1", "--m", "1",
                   "--qmin", "2", "--qmax", "1", "--steps", "2",
                   "--hpool", "5", "--quiet")
    assert rc == 1
    rc, _, _ = run(capsys, "ss-graph", "--preset", "sqrt2m1", "--m", "0",
                   "--qmin", "0", "--qmax", "1", "--steps", "2",
                   "--hpool", "5", "--quiet")
    assert rc == 1
    rc, _, _ = run(capsys, "ss-graph", "--preset", "sqrt2m1", "--m", "1",
                   "--qmin", "zz", "--qmax", "1", "--steps", "2",
                   "--hpool", "5", "--quiet")
    assert rc == 1


def test_exponents_doc(capsys):
    rc, out, _ = run(capsys, "exponents", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "100", "--quiet")
    assert rc == 0
    doc = json.loads(out)
    assert doc["op"] == "exponents"
    est = doc["estimate"]
    assert est["finite_horizon"] is True
    assert est["w_lower"] == pytest.approx(3.8877092372818476, rel=1e-12)
    assert est["what_proxy"] == pytest.approx(1.9438546186409238, rel=1e-12)
    assert doc["w_rows"] and doc["u_rows"]
    assert all("next_height" in r for r in doc["u_rows"])
    lo = float(json.loads(out)["w_lower_interval"]["float"])
    assert lo == pytest.approx(est["w_lower"], rel=1e-9)


def test_audit_text_and_json(capsys):
    rc, out, _ = run(capsys, "audit", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "60", "--quiet")
    assert rc == 0
    assert out.startswith("audit n=2")
    assert "theta-floor" in out

    rc, out, _ = run(capsys, "audit", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "60", "--quiet", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["op"] == "audit"
    statuses = {r["status"] for r in doc["report"]["rows"]}
    assert "violated" not in statuses

    # a short window where no m reaches the threshold: psi_hat is None
    rc, out, _ = run(capsys, "audit", "--preset", "sqrt2m1", "--n", "2",
                     "--hmax", "40", "--with-span", "--json", "--quiet")
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["report"]["rows"]}
    assert rows["psi-range"]["values"]["psi_hat"] == "None"
    assert rows["psi-range"]["status"] == "not-applicable"


def test_audit_takes_degree_from_cf_minpoly(tmp_path, capsys):
    # the periodic cf [0; 2, 2, ...] is sqrt(2) - 1: its report is the
    # algebraic preset's, cap rows not-applicable included
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps({"kind": "cf", "prefix": [0],
                                "rule": {"type": "periodic", "period": [2]}}))
    flags = ("--n", "2", "--hmax", "60", "--quiet")
    rc, cf_out, _ = run(capsys, "audit", "--number", str(twin), *flags)
    assert rc == 0
    rc, alg_out, _ = run(capsys, "audit", "--preset", "sqrt2m1", *flags)
    assert rc == 0
    assert cf_out == alg_out

    finite = tmp_path / "finite.json"
    finite.write_text(json.dumps({"kind": "cf", "prefix": [0, 2, 3]}))
    rc, out, _ = run(capsys, "audit", "--number", str(finite), "--n", "1",
                     "--hmax", "60", "--quiet")
    assert rc == 0
    row = [line for line in out.splitlines() if "exponent-chain" in line]
    assert row and row[0].startswith("[not-applicable]")
    assert "degree 1" in out.split("exponent-chain", 1)[1].split("\n[", 1)[0]


def test_audit_violation_exits_2(capsys, monkeypatch):
    class FakeReport:
        has_violation = True

        def to_text(self):
            return "fake report"

        def to_dict(self):
            return {"rows": []}

    monkeypatch.setattr("polyapprox.cli.audit",
                        lambda est, **kwargs: FakeReport())
    rc, out, err = run(capsys, "audit", "--preset", "sqrt2m1", "--n", "1",
                       "--hmax", "20", "--quiet")
    assert rc == 2
    assert "fake report" in out
    assert "certified invariant violation" in err


def test_audit_with_prev_needs_n2(capsys):
    rc, _, err = run(capsys, "audit", "--preset", "sqrt2m1", "--n", "1",
                     "--hmax", "20", "--with-prev", "--quiet")
    assert rc == 1
    assert "n >= 2" in err


def test_gelfond_exhaustive(capsys):
    rc, out, _ = run(capsys, "gelfond", "--n", "1", "--hmax", "1",
                     "--samples", "0", "--quiet")
    assert rc == 0
    doc = json.loads(out)
    assert doc["seed"] is None
    assert doc["min_ratio"] == "1"
    assert doc["max_ratio"] == "2"
    assert doc["min_witness"] and doc["max_witness"]


def test_gelfond_sampled_deterministic(capsys):
    args = ("gelfond", "--n", "2", "--hmax", "5", "--samples", "50",
            "--seed", "7", "--quiet")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["pairs"] == 50
    assert doc["seed"] == 7
    ratio = float(doc["min_ratio_float"])
    assert 1 / 16 <= ratio <= 16


def test_number_file_descriptor(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(preset("sqrt2m1").to_dict()))
    rc, out, _ = run(capsys, "exponents", "--number", str(target), "--n", "1",
                     "--hmax", "20", "--quiet")
    assert rc == 0
    assert json.loads(out)["descriptor"]["kind"] == "algebraic"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nope"}))
    rc, _, err = run(capsys, "exponents", "--number", str(bad), "--n", "1",
                     "--hmax", "20", "--quiet")
    assert rc == 1

    decimal = tmp_path / "decimal.json"
    decimal.write_text(json.dumps({"kind": "decimal", "value": "0.5",
                                   "digits": 10}))
    rc, out, err = run(capsys, "best-approx", "--number", str(decimal),
                       "--n", "2", "--hmax", "10", "--quiet")
    assert rc == 1
    assert out == "" and "InvalidDescriptor" in err

    rc, _, _ = run(capsys, "exponents", "--number", str(tmp_path / "ghost"),
                   "--n", "1", "--hmax", "20", "--quiet")
    assert rc == 1

    malformed = (
        [1, 2],
        {"kind": "cf", "prefix": 5},
        {"kind": "cf", "prefix": [0], "rule": "periodic"},
        {"kind": "liouville", "base": [2]},
        {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": 5},
    )
    for doc in malformed:
        bad.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "best-approx", "--number", str(bad),
                           "--n", "2", "--hmax", "10", "--quiet")
        assert rc == 1, doc
        assert out == "" and "InvalidDescriptor" in err, doc
        assert "Traceback" not in err, doc


def test_quiet_controls_progress(capsys):
    rc, _, err = run(capsys, "exponents", "--preset", "sqrt2m1", "--n", "1",
                     "--hmax", "20")
    assert rc == 0
    assert "records:" in err
    rc, _, err = run(capsys, "exponents", "--preset", "sqrt2m1", "--n", "1",
                     "--hmax", "20", "--quiet")
    assert rc == 0
    assert err == ""


def test_float_formatting_is_12_significant_digits(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "2")
    assert rc == 0
    theta_cell = out.strip().split("\n")[1].split(",")[2]
    assert theta_cell == format(math.sqrt(5) / 2 + 1.5, ".12g")
