import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from zkit.dsl import parse, pretty_print
from zkit.interp import Options, REPORT_SCHEMA, run_source
from zkit.limits import limits
from zkit.serialize import verify_certificate

SCRIPTS = Path(__file__).parent / "scripts"
MANIFEST = json.loads((SCRIPTS / "manifest.json").read_text())
ALL_NAMES = MANIFEST["ok"] + MANIFEST["refuted"] + MANIFEST["error"]


def load(name: str) -> str:
    return (SCRIPTS / f"{name}.zk").read_text()


def test_corpus_size():
    assert len(ALL_NAMES) >= 30


@pytest.mark.parametrize("name", ALL_NAMES)
def test_parse_pretty_print_round_trip(name):
    script = parse(load(name))
    printed = pretty_print(script)
    reparsed = parse(printed)
    assert reparsed == script
    assert pretty_print(reparsed) == printed


@pytest.mark.parametrize("name", ALL_NAMES)
def test_corpus_runs_and_validates(name):
    report = run_source(load(name), Options(seed=11))
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)
    expected = ("ok" if name in MANIFEST["ok"]
                else "refuted" if name in MANIFEST["refuted"] else "error")
    codes = {"ok": 0, "refuted": 1, "error": 2}
    assert report.exit_code == codes[expected], [
        (r.status, r.cmd, r.result) for r in report.results
        if r.status != "ok"]


def test_points_over_the_assignment_cap_is_an_error_record():
    """Fp(101)^3 is over a 1000-assignment cap: the points statement
    fails fast with ResourceExceeded instead of enumerating."""
    from zkit.limits import limits
    source = ("ring F = Fp(101)[x,y,z]/(x^3 + y^3 + z^3 + x*y*z - 1);\n"
              "points F over Fp(101);\n")
    start = time.perf_counter()
    with limits(max_assignments=1000):
        report = run_source(source, Options(seed=0))
    elapsed = time.perf_counter() - start
    assert report.exit_code == 2
    last = report.results[-1]
    assert last.status == "error"
    assert last.result["kind"] == "ResourceExceeded"
    assert "max_assignments=1000" in last.result["message"]
    assert "rings.enumerate_homs: 1030301" in last.result["message"]
    assert elapsed < 1.0


GOLDEN = json.loads((SCRIPTS / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.zk")))
def test_corpus_matches_golden_report(name):
    """The whole report at seed 0, apart from timings, is pinned by
    scripts/expected.json: echoed commands, statuses, results and
    certificates must come out exactly as recorded there."""
    data = json.loads(json.dumps(
        run_source(load(name), Options(seed=0)).to_json(), default=str))
    for entry in data["results"]:
        del entry["ms"]
    assert data == GOLDEN[name]


@pytest.mark.parametrize("name", MANIFEST["ok"])
def test_certificates_reverify(name, tmp_path):
    """Feed every emitted certificate back through the verify command."""
    report = run_source(load(name), Options(seed=11))
    out = tmp_path / f"{name}.json"
    out.write_text(json.dumps(report.to_json()))
    verify_report = run_source(f'verify "{out}";')
    (res,) = verify_report.results
    assert res.status == "ok", res.result
    n_certs = sum(1 for r in report.results if r.certificate is not None)
    assert res.result["checked"] == n_certs
    assert res.result["passed"] == n_certs


def _tamper_and_verify(tmp_path, name, mutate):
    report = run_source(load(name), Options(seed=11))
    data = report.to_json()
    for entry in data["results"]:
        if entry["certificate"] is not None:
            mutate(entry["certificate"])
            break
    out = tmp_path / f"tampered_{name}.json"
    out.write_text(json.dumps(data))
    (res,) = run_source(f'verify "{out}";').results
    assert res.status == "refuted", res.result
    assert res.result["failures"]


def test_verify_flags_tampered_reports(tmp_path):
    def bump_cofactor(cert):
        cert["cofactors"][0] = "1000"

    def bump_glued(cert):
        assert cert["claim"] == "glue"
        cert["glued"] = "12345"

    def bump_image(cert):
        assert cert["claim"] == "point"
        cert["images"][0] = "0"

    _tamper_and_verify(tmp_path, "basics_z", bump_cofactor)
    _tamper_and_verify(tmp_path, "glue_z", bump_glued)
    _tamper_and_verify(tmp_path, "member_f5", bump_image)


def _corpus_certificates():
    for name in MANIFEST["ok"] + MANIFEST["refuted"]:
        report = run_source(load(name), Options(seed=11))
        for r in report.results:
            if r.certificate is not None:
                yield name, r.certificate


def _tampered_copies(cert):
    """(label, copy) pairs, each changing a list length or an exponent."""
    if cert["claim"] == "glue":
        yield "family truncated", dict(cert, family=cert["family"][:-1])
        yield "family emptied", dict(cert, family=[])
    for key in ("cofactors", "cover_cofactors"):
        if cert.get(key):
            yield f"{key} cut", dict(cert, **{key: cert[key][:-1]})
    if cert["claim"] == "radical-membership":
        yield "exponent 10**6", dict(cert, exponent=10 ** 6)


def test_verify_rejects_cut_and_inflated_certificates():
    """Every corpus certificate with a list cut short or an exponent far
    past the cap is rejected, and rejected without doing the work."""
    labels = set()
    for name, cert in _corpus_certificates():
        assert verify_certificate(cert)[0], (name, cert)
        for label, bad in _tampered_copies(cert):
            start = time.perf_counter()
            ok, detail = verify_certificate(bad)
            assert not ok, (name, label, detail)
            assert time.perf_counter() - start < 2.0, (name, label)
            labels.add(label)
    assert labels == {"family truncated", "family emptied", "cofactors cut",
                      "cover_cofactors cut", "exponent 10**6"}


@pytest.mark.parametrize("source, kind", [
    ("ring S = Q[x]; elem a = 1/0;", "NonInvertibleDenominator"),
    ("ring F = Fp(4)[x];", "InvalidRing"),
    ("ring R = Z/1;", "InvalidRing"),
    # numbers past Python's int-to-text digit limit, refused before the
    # power is computed or when the result is printed
    ("ring R = Z; elem a = 2^100000;", "ResourceExceeded"),
    ("ring R = Z; unimodular [2^20000, 3];", "ResourceExceeded"),
    ("ring R = Z; elem a = 2^99999999999;", "ResourceExceeded"),
    ("ring R = Z; elem a = 2^10000 * 2^10000;", "ResourceExceeded"),
    ("ring S = Q[x]/(x^2); elem a = 2^99999999999;", "ResourceExceeded"),
])
def test_cli_bad_input_is_an_error_record(tmp_path, source, kind):
    script = tmp_path / "bad.zk"
    script.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    jsonschema.validate(data, REPORT_SCHEMA)
    last = data["results"][-1]
    assert last["status"] == "error"
    assert last["result"]["kind"] == kind


@pytest.mark.parametrize("source", [
    "ring S = Q[x]; elem a = " + " + ".join(["x"] * 5000) + ";",
    "ring S = Q[x]; check " + " | ".join(["D(x)"] * 5000) + " == D(x);",
    "ring S = Q[x]; elem a = " + " * ".join(["x"] * 5000) + ";",
], ids=["5000 terms", "5000 joins", "5000 factors"])
def test_cli_long_left_deep_chain(tmp_path, source):
    # such a chain is one flat node, which the parser, the records'
    # repr, == and hash, the statement echo and the evaluators all walk
    # as a list, not by recursion
    parsed = parse(source)
    assert repr(parsed) and hash(parsed) == hash(parse(source))
    assert parsed == parse(source)
    assert parse(pretty_print(parsed)) == parsed
    script = tmp_path / "chain.zk"
    script.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert [r["status"] for r in data["results"]] == ["ok", "ok"]


def test_failed_invariant_is_an_error_record(monkeypatch):
    """A witness that fails its own re-verification is reported as an
    InvariantViolated record, not raised out of run_script."""
    from zkit.ideals import BezoutCertificate
    monkeypatch.setattr(BezoutCertificate, "verify", lambda self: False)
    report = run_source("ring R = Z; unimodular [2, 3];")
    last = report.results[-1]
    assert last.status == "error"
    assert last.result["kind"] == "InvariantViolated"
    assert report.exit_code == 2


@pytest.mark.parametrize("report, status", [
    ({"results": [{"certificate": [1, 2]}]}, "refuted"),
    ({"results": [{"certificate": "x"}]}, "refuted"),
    ({"results": [{"certificate": {
        "claim": "bezout", "ring": {"kind": "Zmod", "n": 6.0},
        "generators": ["5", "3"], "cofactors": ["5", "2"]}}]}, "refuted"),
    ({"results": [{"certificate": {
        "claim": "bezout", "ring": {
            "kind": "polyquot", "base": {"Fp": 7.0}, "variables": [],
            "relations": [], "order": "grevlex"},
        "generators": ["3"], "cofactors": ["5"]}}]}, "refuted"),
    ({"results": [5]}, "error"),
    ({"results": 5}, "error"),
    ([1], "error"),
], ids=["certificate-list", "certificate-string", "float-modulus",
        "float-field-size", "entry-int", "results-int", "top-level-list"])
def test_verify_malformed_report(tmp_path, report, status):
    """A certificate that is not an object fails on its own; a report
    that is not an object with a list of objects is an error record.
    Neither is a traceback."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    script = tmp_path / "verify.zk"
    script.write_text(f'verify "{path}";')
    (res,) = run_source(script.read_text()).results
    assert res.status == status, res.result
    if status == "refuted":
        assert res.result["checked"] == 1 and res.result["passed"] == 0
    else:
        assert res.result["kind"] == "InvalidWitness"
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == {"refuted": 1, "error": 2}[status], proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_missing_file():
    report = run_source('verify "does-not-exist.json";')
    assert report.results[0].status == "error"


def test_seed_determinism():
    source = load("qcqs_qx")
    r1 = run_source(source, Options(seed=5)).to_json()
    r2 = run_source(source, Options(seed=5)).to_json()
    strip = lambda rep: [{k: v for k, v in r.items() if k != "ms"}
                         for r in rep["results"]]
    assert strip(r1) == strip(r2)


def test_cli_subprocess_json_and_exit_codes(tmp_path):
    env_script = SCRIPTS / "basics_z.zk"
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(env_script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    jsonschema.validate(data, REPORT_SCHEMA)
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli",
         str(SCRIPTS / "check_refuted.zk")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli",
         str(SCRIPTS / "unknown_name.zk"), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    bad = tmp_path / "bad.zk"
    bad.write_text("ring R = ;")
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "syntax error" in proc.stderr


def test_cli_env_seed(tmp_path, monkeypatch):
    import os
    script = tmp_path / "seeded.zk"
    script.write_text(load("qcqs_z"))
    env = dict(os.environ, ZKIT_SEED="17")
    p1 = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True, env=env)
    p2 = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json",
         "--seed", "17"],
        capture_output=True, text=True, env=dict(os.environ))
    strip = lambda raw: [{k: v for k, v in r.items() if k != "ms"}
                         for r in json.loads(raw)["results"]]
    assert strip(p1.stdout) == strip(p2.stdout)


def test_cli_bad_env_seed_is_a_usage_error(tmp_path):
    """A ZKIT_SEED that is no integer is refused like a bad --seed: exit
    2 with a usage message, no traceback."""
    script = tmp_path / "seeded.zk"
    script.write_text(load("qcqs_z"))
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script)],
        capture_output=True, text=True, env=dict(os.environ, ZKIT_SEED="abc"))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "argument --seed: invalid int value: 'abc'" in proc.stderr
    assert proc.stdout == ""


def test_cli_max_pairs_cap():
    source = ("ring S = Q[x,y,z];"
              "radical-member x in [x^2 + 2*y^2 + 2*z^2 - 5*x,"
              " 2*x*y + 2*y*z - 5*y, x + 2*y + 2*z - 5];")
    report = run_source(source, Options(max_pairs=1))
    assert report.results[1].status == "error"
    assert report.results[1].result["kind"] == "ResourceExceeded"


def test_radical_member_past_the_exponent_cap(tmp_path):
    """2 is in the radical of (2^100) but its witness needs exponent 100:
    under the default cap of 64 the statement is the cap's error record,
    exit 2, never a positive answer without a witness; --max-exp 128
    answers ok with exponent 100 and a certificate verify accepts."""
    script = tmp_path / "pow.zk"
    script.write_text(f"ring R = Z; radical-member 2 in [{2 ** 100}];")
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    res = json.loads(proc.stdout)["results"][1]
    assert res["status"] == "error" and res["certificate"] is None
    assert res["result"] == {
        "kind": "ResourceExceeded",
        "message": "ideals.radical_witness: exponent 100 exceeds "
                   "max_exponent=64"}
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json",
         "--max-exp", "128"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"][1]
    assert res["status"] == "ok"
    assert res["result"] == {"member": True, "exponent": 100}
    # verify reads exponents under the same cap
    with limits(max_exponent=128):
        assert verify_certificate(res["certificate"]) == (
            True, "sum == element^100")
    report = tmp_path / "pow.json"
    report.write_text(proc.stdout)
    (res,) = run_source(f'verify "{report}";',
                        Options(max_exponent=128)).results
    assert res.status == "ok", res.result


def test_cli_closed_stdout_is_exit_2_without_traceback(tmp_path):
    """`zkit script.zk --json | head` with the reader gone before zkit
    writes: exit code 2 and no traceback."""
    script = tmp_path / "basics.zk"
    script.write_text(load("basics_z"))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zkit.cli", str(script), "--json"],
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr, proc.stderr


def test_cli_script_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    """Undecodable bytes in a script file or on stdin are a one-line
    'cannot read' with exit code 2, not a traceback."""
    import io

    from zkit import cli
    script = tmp_path / "bad.zk"
    script.write_bytes(b"\xff\xfe")
    assert cli.main([str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"zkit: cannot read {script}: ")
    assert len(err.strip().splitlines()) == 1
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="strict"))
    assert cli.main(["-"]) == 2
    assert capsys.readouterr().err.startswith("zkit: cannot read -: ")
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("zkit: cannot read ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content", [
    b"\xff\xfe", b"[" * 200000, b'{"results": [',
    b'{"results": [' + b"1" * 5000 + b"]}",
], ids=["not-utf8", "nested-200000", "truncated", "digits-5000"])
def test_verify_report_that_is_not_json(tmp_path, content):
    """A report file that cannot be decoded, nests past the recursion
    limit, is not JSON or holds an integer past Python's digit limit is
    an InvalidWitness record; a missing file stays UnknownName."""
    path = tmp_path / "report.json"
    path.write_bytes(content)
    script = tmp_path / "verify.zk"
    script.write_text(f'verify "{path}";\nverify "{tmp_path / "none.json"}";')
    first, missing = run_source(script.read_text()).results
    assert first.status == "error"
    assert first.result["kind"] == "InvalidWitness"
    assert "is not readable JSON" in first.result["message"]
    assert missing.result["kind"] == "UnknownName"
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    kinds = [r["result"]["kind"] for r in json.loads(proc.stdout)["results"]]
    assert kinds == ["InvalidWitness", "UnknownName"]
