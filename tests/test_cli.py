import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from zkit import gluing, poly, rings
from zkit.dsl import parse, pretty_print
from zkit.interp import Options, REPORT_SCHEMA, run_source
from zkit.limits import current_limits, limits
from zkit.poly import PrimeField
from zkit.rings import polynomial_ring
from zkit.serialize import (element_from_str, ring_from_json,
                            verify_certificate)

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


@pytest.mark.parametrize("source", [
    pytest.param("ring S = Q[x]; elem a = (x+1)^99999999999;", id="Q"),
    pytest.param("ring S = Fp(7)[x]; elem a = (x+1)^99999999999;",
                 id="Fp(7)"),
    pytest.param("ring R = Q[x]; eval x^99999999 at {x -> x + 1};",
                 id="eval"),
    pytest.param("ring R = Q[x]; member {x -> x + 1} in D(x^99999999);",
                 id="member"),
    # make_hom's relation check evaluates x^99999999 at x + 1
    pytest.param("ring R = Q[x]/(x^99999999); eval x at {x -> x + 1};",
                 id="relation-check"),
])
def test_power_of_a_sum_past_the_assignment_cap_is_an_error_record(source):
    """(x+1)^k doubles its term count with each squaring: wherever it is
    formed, in a script's ^ or in hom evaluation, the statement is
    refused before the product that would pass max_assignments term
    pairs, with no timeout set, instead of running until one stops it."""
    start = time.perf_counter()
    last = run_source(source).results[-1]
    elapsed = time.perf_counter() - start
    assert last.status == "error"
    assert last.result["kind"] == "ResourceExceeded"
    assert last.result["message"].startswith("rings.power: ")
    assert "term pairs exceed max_assignments=1000000" in \
        last.result["message"]
    assert elapsed < 1.0


def test_points_over_a_ring_with_a_high_power_relation():
    """enumerate_homs forms each element's powers for the exponents the
    relations use, here only a^1000000, not every power up to it."""
    start = time.perf_counter()
    last = run_source("ring R = Fp(7)[x]/(x^1000000); "
                      "points R over Fp(7);").results[-1]
    assert time.perf_counter() - start < 0.2
    assert last.status == "ok"
    assert last.result["count"] == 1


def test_power_under_the_cap_in_hom_evaluation_still_evaluates():
    """(x + 1)^200 over Fp(7)[x] stays under the cap and is evaluated."""
    S = polynomial_ring(PrimeField(7), ["x"])
    expected = S.one()
    for _ in range(200):
        expected = expected * (S.var("x") + 1)
    last = run_source("ring R = Fp(7)[x]; "
                      "eval x^200 at {x -> x + 1};").results[-1]
    assert last.status == "ok"
    assert last.result["value"] == str(expected)


# a ~370-byte glue report over a one-relation quotient with zero divisors
_ZERO_FAMILY = ("ring R = Q[x0, x1, x2]/(x0^70); glue cover "
                "[x0 + x1 + x2 + 1, -(x0 + x1 + x2)] with "
                "[0 / (x0 + x1 + x2 + 1)^0, 0 / (-(x0 + x1 + x2))^0];")


def test_verify_of_a_zero_family_forms_no_power(tmp_path, monkeypatch):
    """The glue report of _ZERO_FAMILY with a family exponent edited to
    64 holds: its numerators are 0, so no restriction check needs a power
    of a cover element, and none is formed (forming f_0^64 took 4 s)."""
    bases, power = [], rings._power

    def recorded(x, e, mul, weight=None):
        bases.append(x)
        return power(x, e, mul, weight)
    report = json.loads(json.dumps(run_source(_ZERO_FAMILY).to_json()))
    cert = report["results"][-1]["certificate"]
    cert["family"][0]["exp"] = 64
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report))
    for module in (rings, gluing):
        monkeypatch.setattr(module, "_power", recorded)
    start = time.perf_counter()
    last = run_source(f'verify "{edited}";').results[-1]
    assert time.perf_counter() - start < 0.5
    assert last.status == "ok", last.result
    ring = ring_from_json(cert["ring"])
    cover = {element_from_str(ring, f).payload for f in cert["cover"]}
    assert not cover.intersection(bases)


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


def test_corpus_runs_no_untracked_unit_test(monkeypatch):
    """Every stop_at_one run of the corpus, a decision's included, is
    the tracked run whose trace a witness lifts."""
    from zkit import poly
    calls, real = [], poly.buchberger

    def counted(ctx, gens, **kw):
        calls.append(kw)
        return real(ctx, gens, **kw)

    monkeypatch.setattr(poly, "buchberger", counted)
    for name in sorted(p.stem for p in SCRIPTS.glob("*.zk")):
        run_source(load(name), Options(seed=0))
    unit_tests = [kw for kw in calls if kw.get("stop_at_one")]
    assert unit_tests
    assert all(kw.get("track") for kw in unit_tests)


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


def test_verify_of_a_glue_claim_builds_no_localization(monkeypatch):
    """verify decides a glue claim by ring arithmetic in R: with
    poly.buchberger and every ring kind's localization raising, every
    corpus glue certificate (over Z, Z/n and free rings) still verifies,
    and so does that of _ZERO_FAMILY, over a one-relation quotient."""
    certs = [cert for _, cert in _corpus_certificates()
             if cert["claim"] == "glue"]
    assert {cert["ring"]["kind"] for cert in certs} == {
        "Z", "Zmod", "polyquot"}
    certs.append(run_source(_ZERO_FAMILY).results[-1].certificate)

    def refuse(*args, **kwargs):
        raise AssertionError("verify of a glue claim ran the engine")
    monkeypatch.setattr(poly, "buchberger", refuse)
    for kind in (rings._Integers, rings.QuotientRing, rings.FieldRing):
        monkeypatch.setattr(kind, "localization", refuse)
    for cert in certs:
        assert verify_certificate(cert) == (
            True, "cover verifies and all restrictions match"), cert


def _tampered_copies(cert):
    """(label, copy) pairs, each changing a list length, an exponent or
    the den of a glue family entry, which must be its cover element."""
    if cert["claim"] == "glue":
        yield "family truncated", dict(cert, family=cert["family"][:-1])
        yield "family emptied", dict(cert, family=[])
        first, rest = cert["family"][0], cert["family"][1:]
        for den in ("7", "x + 1", "not a ring element", 5):
            if den != cert["cover"][0]:
                yield (f"den {den!r}",
                       dict(cert, family=[dict(first, den=den)] + rest))
        missing = {key: v for key, v in first.items() if key != "den"}
        yield "den missing", dict(cert, family=[missing] + rest)
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
                      "cover_cofactors cut", "exponent 10**6", "den '7'",
                      "den 'x + 1'", "den 'not a ring element'", "den 5",
                      "den missing"}


def _edited_to_the_cap(cert, cap):
    """(label, copy) pairs of cert with its radical exponent, or every
    glue restriction exponent k or every glue family exponent, set to
    cap."""
    if cert["claim"] == "radical-membership":
        yield "radical", dict(cert, exponent=cap)
    if cert["claim"] == "glue":
        for key, label in (("k", "k"), ("exp", "family")):
            yield label, dict(cert, family=[dict(e, **{key: cap})
                                            for e in cert["family"]])


def _restrictions_hold(cert):
    """Whether (glued * f^exp - num) * f^k == 0 for each family entry,
    with each power formed as a repeated product."""
    from zkit.serialize import CertificateReader, ring_from_json
    reader, ring = CertificateReader(), ring_from_json(cert["ring"])
    glued = reader.element(ring, cert["glued"])
    for f, entry in zip(cert["cover"], cert["family"]):
        f, diff = reader.element(ring, f), glued
        for _ in range(entry["exp"]):
            diff = diff * f
        diff = diff - reader.element(ring, entry["num"])
        for _ in range(entry["k"]):
            diff = diff * f
        if not diff.is_zero:
            return False
    return True


def test_verify_of_exponents_edited_up_to_the_cap():
    """Every corpus certificate with its exponents edited up to the cap
    is decided in under 2 s each, with the verdict of the plain
    identity: a glue restriction exponent holds past the least one, glue
    family exponents hold iff each restriction still holds with its k,
    and a radical claim holds iff the sum of cofactor * generator is
    a^cap."""
    from zkit.serialize import CertificateReader, ring_from_json
    cap = current_limits().max_exponent
    seen = set()
    for name, cert in _corpus_certificates():
        for label, bad in _edited_to_the_cap(cert, cap):
            start = time.perf_counter()
            ok, detail = verify_certificate(bad)
            assert time.perf_counter() - start < 2.0, (name, label, detail)
            if label == "k":
                assert ok, (name, detail)
            elif label == "family":
                holds = _restrictions_hold(bad)
                assert ok == holds, (name, detail)
                assert holds or "differs" in detail, (name, detail)
            else:
                reader, ring = CertificateReader(), ring_from_json(cert["ring"])
                total = ring.zero()
                for c, g in zip(cert["cofactors"], cert["generators"]):
                    total = total + reader.element(ring, c) * \
                        reader.element(ring, g)
                a = reader.element(ring, cert["element"])
                assert ok == (total == a ** cap), (name, detail)
            seen.add((label, ok))
    assert seen == {("k", True), ("family", False), ("family", True),
                    ("radical", False), ("radical", True)}


@pytest.mark.parametrize("script, edit, status", [
    ("radical-member x0 + x1 + x2 + 1 in [x0 + x1 + x2 + 1];",
     lambda c: c.update(exponent=64), "refuted"),
    # over a domain f^64 kills only what f^0 does: k = 64 holds as
    # k = 0 does, decided with no power formed
    ("glue cover [x0 + x1 + x2 + 1, -(x0 + x1 + x2)] with "
     "[(x0 + x1 + x2 + 1) / (x0 + x1 + x2 + 1)^1, 1 / (-(x0 + x1 + x2))^0];",
     lambda c: c["family"][0].update(k=64), "ok"),
    # 0 / f^64 is 0 / f^0: decided by the zero numerators
    ("glue cover [x0 + x1 + x2 + 1, -(x0 + x1 + x2)] with "
     "[0 / (x0 + x1 + x2 + 1)^0, 0 / (-(x0 + x1 + x2))^0];",
     lambda c: c["family"][0].update(exp=64), "ok"),
    ("glue cover [x0 + x1 + x2 + 1, -(x0 + x1 + x2)] with "
     "[(x0 + x1 + x2 + 1) / (x0 + x1 + x2 + 1)^1, 1 / (-(x0 + x1 + x2))^0];",
     lambda c: c["family"][0].update(exp=64), "refuted"),
], ids=["radical", "glue-k", "glue-family-zero", "glue-family"])
def test_verify_of_small_certificates_with_exponent_64(tmp_path, script,
                                                       edit, status):
    """Over Q[x0,x1,x2], a ~250-byte certificate whose exponent is edited
    to the cap is decided through the CLI in under 2 s, where forming
    (x0 + x1 + x2 + 1)^64 ran past a 20 s timeout."""
    report = run_source(f"ring R = Q[x0, x1, x2]; {script}").to_json()
    edit(report["results"][1]["certificate"])
    edited, script = tmp_path / "edited.json", tmp_path / "verify.zk"
    edited.write_text(json.dumps(report))
    script.write_text(f'verify "{edited}";')
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json",
         "--timeout-ms", "20000"], capture_output=True, text=True)
    assert time.perf_counter() - start < 2.0
    (res,) = json.loads(proc.stdout)["results"]
    assert res["status"] == status, res["result"]


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
    # p^k elements past max_assignments: counted without printing p^k,
    # and refused before the monomial basis is listed in full
    ("ring R = Fp(2)[x]; points R over Fp(2)[x,y,z]/(x^60, y^60, z^60);",
     "ResourceExceeded"),
    ("ring R = Fp(2)[x];"
     " points R over Fp(2)[x,y,z]/(x^1000, y^1000, z^1000);",
     "ResourceExceeded"),
])
def test_cli_bad_input_is_an_error_record(tmp_path, source, kind):
    # every input here is refused before any large work, so well under 1 s
    script = tmp_path / "bad.zk"
    script.write_text(source)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert elapsed < 1.0, elapsed
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


def _unit_report(claim="bezout", **ring):
    """A report of one certificate of 1 * 1 == 1 over Q[x], with the
    claim and the ring fields given, and no other certificate field."""
    return {"results": [{"certificate": {
        "claim": claim, "ring": {
            "kind": "polyquot", "base": "Q", "variables": ["x"],
            "relations": [], "order": "grevlex", **ring},
        "generators": ["1"], "cofactors": ["1"]}}]}


def _edited(report, edit):
    """A copy of a report of one certificate, edit applied to the
    certificate."""
    report = json.loads(json.dumps(report))
    edit(report["results"][0]["certificate"])
    return report


# a glue over Z of 1 from the cover [2, 3] (-1 * 2 + 1 * 3 == 1)
_UNIT_GLUE = {"results": [{"certificate": {
    "claim": "glue", "ring": {"kind": "Z"}, "cover": ["2", "3"],
    "cover_cofactors": ["-1", "1"],
    "family": [{"num": "1", "den": "2", "exp": 0, "k": 0},
               {"num": "1", "den": "3", "exp": 0, "k": 0}],
    "glued": "1"}}]}


@pytest.mark.parametrize("report, status, detail", [
    (_unit_report(), "ok", None),
    # claims zkit does not write, and rings in a shape it does not write
    (_unit_report("membership"), "refuted", "unknown claim"),
    (_unit_report("bezout-power"), "refuted", "unknown claim"),
    (_unit_report(variables="xy"), "refuted", "variables"),
    (_unit_report(variables=["a b"]), "refuted", "variables"),
    (_unit_report(variables=[""]), "refuted", "variables"),
    (_unit_report(relations="x"), "refuted", "relations"),
    (_unit_report(base={"Fp": 2, "x": 1}), "refuted", "base"),
    (_unit_report(base="R"), "refuted", "base"),
    ({"results": [{"certificate": [1, 2]}]}, "refuted", None),
    ({"results": [{"certificate": "x"}]}, "refuted", None),
    ({"results": [{"certificate": {
        "claim": "bezout", "ring": {"kind": "Zmod", "n": 6.0},
        "generators": ["5", "3"], "cofactors": ["5", "2"]}}]},
     "refuted", None),
    ({"results": [{"certificate": {
        "claim": "bezout", "ring": {
            "kind": "polyquot", "base": {"Fp": 7.0}, "variables": [],
            "relations": [], "order": "grevlex"},
        "generators": ["3"], "cofactors": ["5"]}}]}, "refuted", None),
    # keys and JSON types that no writer produces, each rejected with a
    # detail that names its path
    (_edited(_unit_report(), lambda c: c.update(element="1")), "refuted",
     "unexpected key element"),
    (_edited(_unit_report(), lambda c: c.update(ring={"kind": "Z", "n": 5})),
     "refuted", "unexpected key ring.n"),
    (_edited(_unit_report(), lambda c: c["ring"].pop("order")), "refuted",
     "ring.order is missing"),
    (_UNIT_GLUE, "ok", None),
    (_edited(_UNIT_GLUE, lambda c: c["family"][0].update(extra=1)),
     "refuted", "unexpected key family[0].extra"),
    # the pair witnesses that glue certificates no longer carry
    (_edited(_UNIT_GLUE,
             lambda c: c.update(pair_exponents=[[False, True, 0]])),
     "refuted", "unexpected key pair_exponents"),
    (_edited(_UNIT_GLUE, lambda c: c.update(pair_exponents=[[0.0, 1, 0]])),
     "refuted", "unexpected key pair_exponents"),
    (_edited(_UNIT_GLUE, lambda c: c["family"][1].update(k=False)),
     "refuted", "family[1].k is not an integer"),
    (_edited(_UNIT_GLUE, lambda c: c["family"][1].update(k=0.0)),
     "refuted", "family[1].k is not an integer"),
    (_edited(_UNIT_GLUE, lambda c: c["family"][1].pop("k")),
     "refuted", "family[1].k is missing"),
    ({"results": [5]}, "error", None),
    ({"results": 5}, "error", None),
    ([1], "error", None),
    ({}, "error", None),
    ({"version": 1}, "error", None),
], ids=["unit", "claim-membership", "claim-bezout-power",
        "variables-string", "variable-with-blank", "variable-empty",
        "relations-string", "base-extra-key", "base-unknown",
        "certificate-list", "certificate-string",
        "float-modulus", "float-field-size", "bezout-extra-key",
        "ring-extra-key", "ring-without-order", "glue-unit",
        "family-entry-extra-key", "pair-entry-booleans",
        "pair-entry-float", "k-boolean", "k-float", "k-missing", "entry-int", "results-int", "top-level-list",
        "no-results", "version-only"])
def test_verify_malformed_report(tmp_path, report, status, detail):
    """A certificate that is not an object, or whose claim, keys or JSON
    types are not the ones zkit writes, fails on its own, with a detail
    that names the claim or the path of the field where one is given; a
    report that is not an object with a list of result objects, such as
    one with no results, is an error record.  Neither is a traceback."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    script = tmp_path / "verify.zk"
    script.write_text(f'verify "{path}";')
    (res,) = run_source(script.read_text()).results
    assert res.status == status, res.result
    if status == "error":
        assert res.result["kind"] == "InvalidWitness"
    else:
        assert res.result["checked"] == 1
        assert res.result["passed"] == (status == "ok")
    if detail is not None:
        (failure,) = res.result["failures"]
        assert detail in failure["detail"], failure
    proc = subprocess.run(
        [sys.executable, "-m", "zkit.cli", str(script), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == {"ok": 0, "refuted": 1, "error": 2}[status], \
        proc.stderr
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
