import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import polyapprox
from polyapprox import SCHEMA, __version__, exponents
from polyapprox.cli import CACHE_ENV, build_parser, main
from polyapprox.errors import DomainWarning
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


def test_bounds_t_reaches_the_table(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "4", "--t", "5")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 1 and rows[0][:2] == ["4", "5"]


def test_bounds_usage_errors(capsys):
    rc, _, err = run(capsys, "bounds", "--n", "0")
    assert rc == 1 and "error" in err
    rc, _, err = run(capsys, "bounds", "--n", "x")
    assert rc == 1
    rc, _, err = run(capsys, "bounds", "--n", "5..2")
    assert rc == 1
    # the smallest value is checked, so a list names the flag too
    for ns in ("0", "0,4", "0..3"):
        rc, out, err = run(capsys, "bounds", "--n", ns)
        assert (rc, out, err) == (1, "", "error: --n must be >= 1\n")
    for ts in ("", ","):
        rc, out, err = run(capsys, "bounds", "--n", "4", "--t", ts)
        assert (rc, out, err) == (1, "", "error: --t: no values given\n")


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


# stdout recorded before the manifest and record lines were rendered from
# BestApproxSequence.to_dict(): a chain with warnings (the word rule
# a -> ab, b -> ab at a = 2, b = 1, that is (sqrt(3) - 1)/2) and one with
# tie lines.
WORD_TARGET = {"kind": "cf", "prefix": [0], "rule": {
    "type": "word", "morphism": {"a": "ab", "b": "ab"}, "start": "a",
    "letters": {"a": 2, "b": 1}}}


@pytest.mark.parametrize("target, n, hmax, records, warnings, ties, digest", [
    (WORD_TARGET, "2", "10", 4, 8, 0,
     "155b6e277cf98af39534ca1d67c25cf8bdc77477773ddc8bed49396e6cac6d8b"),
    ("sqrt2m1", "4", "8", 3, 0, 15,
     "ff20acb18afab405256640637f61517572dbce5ca4171e92b8dd737dccd8af98"),
])
def test_best_approx_bytes_pinned(tmp_path, capsys, monkeypatch, target, n,
                                  hmax, records, warnings, ties, digest):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    if isinstance(target, dict):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(target))
        source = ("--number", str(path))
    else:
        source = ("--preset", target)
    rc, out, _ = run(capsys, "best-approx", *source, "--n", n, "--hmax", hmax,
                     "--quiet")
    assert rc == 0
    manifest = json.loads(out.split("\n")[0])
    assert manifest["records"] == records
    assert len(manifest["warnings"]) == warnings
    assert len(manifest["ties"]) == ties
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_best_approx_bits_reach_the_chain(capsys):
    rc, out, _ = run(capsys, "best-approx", "--preset", "sqrt2m1", "--n", "1",
                     "--hmax", "20", "--bits", "64", "--quiet")
    assert rc == 0
    assert json.loads(out.split("\n")[0])["value_bits"] == 64


def test_best_approx_cap_below_16(capsys, monkeypatch):
    # a cap under 16 still evaluates: at cap 8 the chain is the cap-20 chain
    monkeypatch.delenv(CACHE_ENV, raising=False)
    outs = {}
    for cap in ("8", "20"):
        rc, out, _ = run(capsys, "best-approx", "--preset", "cbrt2", "--n", "3",
                         "--hmax", "30", "--cap", cap, "--quiet")
        assert rc == 0
        outs[cap] = out.split("\n")
    manifest = json.loads(outs["8"][0])
    assert manifest["cap"] == 8
    assert manifest["records"] == 6
    assert manifest["warnings"] == []
    assert manifest | {"cap": 20} == json.loads(outs["20"][0])
    assert outs["8"][1:] == outs["20"][1:]


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

    # an entry written by other source code is not reused
    monkeypatch.setattr("polyapprox.cli._source_digest", lambda: "0" * 64)
    rc5, out5, _ = run(capsys, *args)
    assert rc5 == 0 and out5 == out1
    assert len(list(tmp_path.glob("seq-*.json"))) == 2


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


def test_span_scan_threshold_reaches_the_estimate(capsys):
    rc, out, _ = run(capsys, "span-scan", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "100", "--threshold", "1", "--quiet")
    assert rc == 0
    assert json.loads(out)["threshold"] == 1


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


@pytest.mark.parametrize("flags, message", [
    (("--n", "3", "--hmax", "0"), "--hmax must be >= 1"),
    (("--n", "-1", "--hmax", "5"), "--n must be >= 1"),
    (("--n", "-1", "--hmax", "0"), "--n must be >= 1"),
    (("--n", "3", "--hmax", "5"), "block determinant needs even n, got 3"),
])
def test_lambda_det_flag_errors_come_first(capsys, monkeypatch, flags,
                                           message):
    # the flag check, then the even-n check, both before any chain is built
    def no_chain(*args):
        raise AssertionError("chain built before the flags were checked")

    monkeypatch.setattr("polyapprox.cli._sequence", no_chain)
    rc, out, err = run(capsys, "lambda-det", "--preset", "cbrt2", *flags,
                       "--quiet")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("span-scan", "--n", "2", "--window", "3"),
     "--window: expected LO..HI, got '3'"),
    (("span-scan", "--n", "2", "--window", "x..5"),
     "--window: bad lower end 'x'"),
    (("span-scan", "--n", "2", "--window", "2..y"),
     "--window: bad upper end 'y'"),
    (("lambda-det", "--n", "2", "--k", "3..x"),
     "--k: cannot parse range '3..x'"),
    (("lambda-det", "--n", "2", "--k", "abc"), "--k: cannot parse 'abc'"),
    (("audit", "--n", "1", "--with-prev"), "--with-prev needs n >= 2"),
])
def test_usage_errors_come_before_the_chain(capsys, monkeypatch, argv,
                                            message):
    def no_chain(*args):
        raise AssertionError("chain built before the flags were parsed")

    monkeypatch.setattr("polyapprox.cli._sequence", no_chain)
    rc, out, err = run(capsys, *argv, "--preset", "cbrt2", "--hmax", "30",
                       "--quiet")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("bounds", "--n", "2..x"), "--n: cannot parse range '2..x'"),
    (("bounds", "--n", ","), "--n: no values given"),
    (("gelfond", "--n", "2", "--hmax", "3", "--seed", "-1"),
     "--seed must be >= 0"),
    (("gelfond", "--n", "2", "--hmax", "3", "--samples", "-1"),
     "--samples must be >= 0 (0 means exhaustive)"),
])
def test_flag_rejections_keep_their_messages(capsys, argv, message):
    rc, out, err = run(capsys, *argv, "--quiet")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_bounds_bytes_pinned(capsys):
    # n = 1 has no root or t cells; 7/2 lies outside the t range of n = 2,
    # and both t values outside that of n = 3: one stderr line per (n, t),
    # although dbound and ebound both warn, and with or without --quiet
    warned = ("warning: t = 7/2 outside [2, 3] for n = 2; value computed anyway\n"
              "warning: t = 2 outside [4, 5] for n = 3; value computed anyway\n"
              "warning: t = 7/2 outside [4, 5] for n = 3; value computed anyway\n")
    for quiet in ((), ("--quiet",)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DomainWarning)
            rc, out, err = run(capsys, "bounds", "--n", "1..3", "--t", "2,7/2",
                               *quiet)
        assert (rc, err) == (0, warned)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "224fbb8a9b1724324d51f01eb191b8b72602da9ae7c16c5290c59523964c73f7")


def test_bounds_drops_repeated_t(capsys):
    rc, out, err = run(capsys, "bounds", "--n", "4", "--t", "2,2,4/2")
    assert rc == 0
    assert err == ("warning: t = 2 outside [5, 7] for n = 4;"
                   " value computed anyway\n")
    assert (rc, out) == run(capsys, "bounds", "--n", "4", "--t", "2")[:2]
    rc, out, _ = run(capsys, "bounds", "--n", "4", "--t", "6,5,12/2,5")
    assert [line.split(",")[1] for line in out.split()[1:]] == ["6", "5"]


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


# Multi-step graphs: the grid points share one descriptor, so each
# sample's enclosures depend on the brackets the earlier samples refined
# it to.
@pytest.mark.parametrize("name, m, hpool, qmax, digest", [
    ("cbrt2", "2", "3", "3",
     "10f93b43aac0a5191d80c584f43bae4b0f30ca03e5a2874ed75d272cbe10caf3"),
    ("fibwordcf", "2", "3", "3",
     "a0b3a1e196b0598f3aed01fb566b49d6e51d86ec6e9a4a5430dc990743add8a3"),
    ("liouville2fact", "3", "2", "2",
     "ab0645ca60ea605d51bfb793e68c1851ce2f64de654800bbf2447455cf19c3a0"),
    ("sqrt2m1", "2", "3", "3",
     "377951e4c71966d1f72dd8450284e570a5065ba23338324455d73cdcf2830dc5"),
])
def test_ss_graph_multi_step_bytes_pinned(capsys, name, m, hpool, qmax,
                                          digest):
    rc, out, _ = run(capsys, "ss-graph", "--preset", name, "--m", m,
                     "--qmin", "0", "--qmax", qmax, "--steps", "4",
                     "--hpool", hpool, "--quiet")
    assert rc == 0
    assert len(out.strip().split("\n")) == 7  # manifest, header, 5 rows
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ss_graph_budget_reaches_the_pool(capsys):
    rc, out, err = run(capsys, "ss-graph", "--preset", "sqrt2m1", "--m", "1",
                       "--qmin", "0", "--qmax", "1", "--steps", "2",
                       "--hpool", "5", "--budget", "3", "--quiet")
    assert rc == 1 and out == ""
    assert err.startswith("error: BudgetExceeded: ")


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


def test_exponents_k0_reaches_the_estimate(capsys):
    argv = ("--preset", "cbrt2", "--n", "2", "--hmax", "100", "--quiet")
    rc, out, _ = run(capsys, "best-approx", *argv)
    assert rc == 0
    count = json.loads(out.split("\n")[0])["records"]
    rc, out, _ = run(capsys, "exponents", *argv, "--k0", "2")
    assert rc == 0
    est = json.loads(out)["estimate"]
    assert est["k0"] == 2 and est["window"] == [2, count]


@pytest.mark.parametrize("name, n", [("liouville2fact", 2), ("cbrt2", 2),
                                     ("cbrt2", 1)])
def test_exponents_without_estimate_prints_nulls(capsys, name, n):
    # at H = 1 no record has height >= 2, so neither exponent has an interval
    rc, out, err = run(capsys, "exponents", "--preset", name, "--n", str(n),
                       "--hmax", "1", "--quiet")
    assert rc == 0
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["w_lower_interval"] is None
    assert doc["what_proxy_interval"] is None
    assert doc["estimate"]["w_lower"] is None
    assert doc["w_rows"] == [] and doc["u_rows"] == []


# sha256 of stdout at the commit before the estimator kept its ratio
# endpoints as unreduced integer pairs
ANALYSIS_BYTES_SHA256 = {
    ("cbrt2", 2, 60, "exponents"):
        "a3e40cf29612962c7b82d4236bd657472b6a2f862d8e25ebc45514097e3cf330",
    ("cbrt2", 2, 60, "audit"):
        "13da08602734c42b7ff0b84be1c805507c119fc1efa3145fb12893977e4781e7",
    ("liouville2fact", 3, 25, "exponents"):
        "11badf0796ec4af769e4226f44e0d44bb3d7706d0ae223ffc28dd570fe733fce",
    ("liouville2fact", 3, 25, "audit"):
        "bb1382f5744a73bd03d430dbac1ae31788eb84475c10dd1514ebd194bc7ca87e",
}


def _analysis_cell(capsys, name, n, h_max, command):
    extra = ("--with-span", "--with-prev") if command == "audit" else ()
    rc, out, _ = run(capsys, command, "--preset", name, "--n", str(n),
                     "--hmax", str(h_max), *extra, "--quiet")
    return rc, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(ANALYSIS_BYTES_SHA256))
def test_exponents_and_audit_bytes_pinned(capsys, cell):
    assert _analysis_cell(capsys, *cell) == (0, ANALYSIS_BYTES_SHA256[cell])


def test_audit_reads_no_ratio_row(capsys, monkeypatch):
    # the audit reads only the two statistics, so no row is reduced
    def unread(row):
        raise AssertionError(f"ratio row {row.k} read")

    monkeypatch.setattr(exponents.RatioRow, "ratio", property(unread))
    for name, n, h_max in (("cbrt2", 2, 60), ("liouville2fact", 3, 25)):
        cell = (name, n, h_max, "audit")
        assert _analysis_cell(capsys, *cell) == (0, ANALYSIS_BYTES_SHA256[cell])
    with pytest.raises(AssertionError, match="ratio row"):
        run(capsys, "exponents", "--preset", "cbrt2", "--n", "2", "--hmax", "60")


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


def test_audit_algebraic_degree_must_be_positive(capsys):
    for degree in ("0", "-3"):
        rc, out, err = run(capsys, "audit", "--preset", "cbrt2", "--n", "2",
                           "--hmax", "30", "--algebraic-degree", degree)
        assert (rc, out) == (1, "")
        assert err == "error: --algebraic-degree must be >= 1\n"
    rc, out, _ = run(capsys, "audit", "--preset", "cbrt2", "--n", "2",
                     "--hmax", "30", "--algebraic-degree", "1", "--quiet")
    assert rc == 0 and "algebraic target of degree 1 <= n" in out


def test_gelfond_exhaustive(capsys):
    rc, out, _ = run(capsys, "gelfond", "--n", "1", "--hmax", "1",
                     "--samples", "0", "--quiet")
    assert rc == 0
    doc = json.loads(out)
    assert doc["seed"] is None
    assert doc["min_ratio"] == "1"
    assert doc["max_ratio"] == "2"
    assert doc["min_witness"] and doc["max_witness"]


def test_gelfond_exhaustive_over_budget(capsys):
    rc, out, err = run(capsys, "gelfond", "--n", "3", "--hmax", "10",
                       "--samples", "0", "--quiet")
    assert (rc, out) == (1, "")
    assert err.startswith("error: BudgetExceeded: ")


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
        # integers written as JSON floats or bools
        {"kind": "cf", "prefix": [0.5, 2.9]},
        {"kind": "cf", "prefix": [True, 2]},
        {"kind": "cf", "prefix": [0], "rule": {"type": "periodic",
                                               "period": [2.5]}},
        {"kind": "cf", "prefix": [0], "rule": {
            "type": "word", "morphism": {"a": "ab", "b": "a"}, "start": "a",
            "letters": {"a": 1, "b": 2.0}}},
        {"kind": "liouville", "base": 2.7},
        {"kind": "liouville", "base": True},
        {"kind": "liouville", "base": 2,
         "exponents": {"type": "power", "base": 2.0}},
        {"kind": "algebraic", "minpoly": [-2, 0, 1.0], "interval": ["1", "2"]},
        # isolating intervals that are not two integers or rational strings
        {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": [1.4, 1.5]},
        {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": [True, 2]},
        {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": "12"},
        {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1/0", "2"]},
        {"kind": "algebraic", "minpoly": [-2, 0, 1], "interval": ["a", "2"]},
        {"kind": "algebraic", "minpoly": [-2, 0, 1],
         "interval": ["1", "3/2", "2"]},
        # a label that is not a string
        {"kind": "cf", "prefix": [1], "label": [1, 2]},
        {"kind": "cf", "prefix": [1], "label": 5},
    )
    missing = (({"kind": "cf"}, "prefix"), ({"kind": "liouville"}, "base"),
               ({"kind": "algebraic", "minpoly": [-2, 0, 1]}, "interval"))

    def rejected(doc):
        bad.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "best-approx", "--number", str(bad),
                           "--n", "2", "--hmax", "10", "--quiet")
        assert rc == 1, doc
        assert out == "" and "InvalidDescriptor" in err, doc
        assert "Traceback" not in err and len(err.splitlines()) == 1, doc
        return err

    for doc in malformed:
        rejected(doc)
    for doc, field in missing:
        assert f"missing field '{field}'" in rejected(doc)


def test_word_rule_that_never_grows_is_rejected(tmp_path, capsys):
    # a -> a keeps the fixed point one letter long, so reading a quotient
    # past the prefix would never end: rejected at load instead
    target = tmp_path / "word.json"
    target.write_text(json.dumps({
        "kind": "cf", "prefix": [0],
        "rule": {"type": "word", "morphism": {"a": "a"}, "start": "a",
                 "letters": {"a": 1}}}))
    rc, out, err = run(capsys, "best-approx", "--number", str(target),
                       "--n", "2", "--hmax", "10", "--quiet")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "InvalidDescriptor" in err and "Traceback" not in err


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
