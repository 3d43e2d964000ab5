import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from zkit.dsl import parse, pretty_print
from zkit.interp import Options, REPORT_SCHEMA, run_source
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
])
def test_cli_bad_input_is_an_error_record(tmp_path, source, kind):
    script = tmp_path / "bad.zk"
    script.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    jsonschema.validate(data, REPORT_SCHEMA)
    last = data["results"][-1]
    assert last["status"] == "error"
    assert last["result"]["kind"] == kind


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
    ({"results": [5]}, "error"),
    ({"results": 5}, "error"),
    ([1], "error"),
], ids=["certificate-list", "certificate-string", "entry-int",
        "results-int", "top-level-list"])
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


def test_cli_max_pairs_cap():
    source = ("ring S = Q[x,y,z];"
              "radical-member x in [x^2 + 2*y^2 + 2*z^2 - 5*x,"
              " 2*x*y + 2*y*z - 5*y, x + 2*y + 2*z - 5];")
    report = run_source(source, Options(max_pairs=1))
    assert report.results[1].status == "error"
    assert report.results[1].result["kind"] == "ResourceExceeded"
