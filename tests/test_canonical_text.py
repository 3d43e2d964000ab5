"""The canonical element text of results and certificates: its printer
(str, zkit.rings) and its strict reader (zkit.serialize) against each
other, against the script printer, parser and evaluator they replaced
(tests/helpers.py), and on edited texts, which must be refused with
InvalidWitness and nothing else."""
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (SMALL_PRIMES, reference_element_from_str,
                     reference_element_to_str, reference_print)
from zkit import (IntegerRing, PrimeField, QuotientRing, Rationals,
                  ResidueRing, dsl, serialize)
from zkit import poly as P
from zkit.errors import InvalidWitness
from zkit.interp import Options, run_source
from zkit.rings import quotient_by, terms_to_str
from zkit.serialize import (element_from_str, ring_from_json, ring_to_json,
                            verify_certificate)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # the bench package generates scripts

from bench import gen  # noqa: E402

SCRIPTS = Path(__file__).parent / "scripts"


# ---------------------------------------------------------------------------
# rings and elements of every kind ring_from_json builds

def _exponents(huge):
    small = st.integers(0, 4)
    return st.one_of(small, st.integers(0, 10 ** 12)) if huge else small


@st.composite
def _rings(draw):
    kind = draw(st.sampled_from(["Z", "Z/n", "Fp", "Q", "Q[x,y]",
                                 "Fp[x,y]/(r)"]))
    if kind == "Z":
        return IntegerRing()
    if kind == "Z/n":
        return ResidueRing(draw(st.integers(2, 60)))
    if kind == "Fp":
        return QuotientRing(PrimeField(draw(st.sampled_from(SMALL_PRIMES))))
    if kind == "Q":
        return QuotientRing(Rationals())
    if kind == "Q[x,y]":
        return QuotientRing(Rationals(), ("x", "y"))
    free = QuotientRing(PrimeField(draw(st.sampled_from(SMALL_PRIMES))),
                        ("x", "y"))
    relation = draw(_elements(free, max_terms=3, huge=False))
    return quotient_by(free, [relation])


@st.composite
def _elements(draw, ring, max_terms=5, huge=True):
    """Huge exponents only in free rings, where they are one monomial."""
    if ring.is_q_algebra:
        coeffs = st.fractions(min_value=-50, max_value=50,
                              max_denominator=12)
    else:
        coeffs = st.integers(-10 ** 30, 10 ** 30)
    monos = st.tuples(*[_exponents(huge and not ring.relations)]
                      * len(ring.variables))
    terms = draw(st.dictionaries(monos, coeffs, max_size=max_terms))
    return ring.element(terms)


RINGS = _rings()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_print_and_read_round_trip(data):
    """read(print(e)) == e, coefficient types included, and
    print(read(s)) == s; str() writes elements and the relations of a
    ring in that same text; the ring description round-trips too."""
    ring = data.draw(RINGS)
    assert ring_from_json(ring_to_json(ring)) == ring
    e = data.draw(_elements(ring))
    text = terms_to_str(ring.terms(e.payload), ring.variables)
    back = element_from_str(ring, text)
    assert repr(back.payload) == repr(e.payload)
    assert str(back) == text == reference_element_to_str(e)
    assert str(e) == text
    relations = ring_to_json(ring).get("relations")
    if relations:
        assert str(ring) == (f"{ring.base}[{','.join(ring.variables)}]"
                             f"/({', '.join(relations)})")


_PIECES = ["x", "y", "0", "1", "2", "3", "5", "7", "12", "1/2", "2/4",
           "3/1", "^", "^0", "^1", "^2", "^10", " * ", " + ", " - ", "-",
           "-(", "(", ")", " ", "*", "+"]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_accepted_text_prints_back(data):
    """Any text the reader accepts is what the printer writes for the
    value it read, and the general reader reads that value from it too;
    every other text is an InvalidWitness."""
    ring = data.draw(RINGS)
    text = "".join(data.draw(st.lists(st.sampled_from(_PIECES),
                                      max_size=8)))
    try:
        e = element_from_str(ring, text)
    except InvalidWitness:
        return
    assert str(e) == text
    assert e == reference_element_from_str(ring, text)


def _edits(ring, e, text, data):
    """(label, text) pairs: text edited so that it is not canonical."""
    variables = ring.variables
    terms = list(ring.terms(e.payload))
    if len(terms) > 1:
        terms[0], terms[1] = terms[1], terms[0]
        yield "swapped terms", reference_print(tuple(terms), variables)
    at = data.draw(st.integers(0, len(text)))
    yield "extra space", text[:at] + " " + text[at:]
    spaces = [i for i, ch in enumerate(text) if ch == " "]
    if spaces:
        at = data.draw(st.sampled_from(spaces))
        yield "missing space", text[:at] + text[at + 1:]
    yield "1 * x", re.sub(r"(^-\(|^-|^| [+-] )(?=[xy])", r"\g<1>1 * ",
                          text, count=1)
    yield "x^1", re.sub(r"\b([xy])\b(?!\^)", r"\1^1", text, count=1)
    yield "leading +", "+" + text
    yield "--", ("-" if text.startswith("-") else "--") + text
    yield "leading zero", re.sub(r"(\d+)", r"0\1", text, count=1)
    yield "-0", "-0"
    yield "zero term", text + " + 0"
    n = ring.characteristic
    if n:
        if isinstance(e.payload, int):
            yield "residue >= n", str(e.payload + n)
        elif e.payload:
            terms = list(e.payload)
            k = data.draw(st.integers(0, len(terms) - 1))
            terms[k] = (terms[k][0], terms[k][1] + n)
            yield "residue >= n", reference_print(tuple(terms), variables)
    yield "2/4", re.sub(r"(\d+)/(\d+)",
                        lambda m: f"{2 * int(m[1])}/{2 * int(m[2])}",
                        text, count=1)
    yield "c/1", re.sub(r"(?<![\d/^])(\d+)(?![\d/])", r"\1/1", text,
                        count=1)
    if ring.leading_monomials:
        d = dict(e.payload)
        d[ring.leading_monomials[0]] = 1  # never a monomial of a payload
        yield "divisible by a leading monomial", reference_print(
            P.poly_from_dict(ring.ctx, d), variables)
    junk = data.draw(st.sampled_from([";", ")", "(", " ", "*", " +", "\n",
                                      "#", "x", "/", "^"]))
    yield "trailing junk", text + junk


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_edited_texts_are_rejected(data):
    ring = data.draw(RINGS)
    e = data.draw(_elements(ring))
    text = str(e)
    labels = set()
    for label, edited in _edits(ring, e, text, data):
        if edited == text:  # the edit does not apply to this text
            continue
        with pytest.raises(InvalidWitness):
            element_from_str(ring, edited)
        labels.add(label)
    assert {"extra space", "leading +", "--", "-0"} <= labels


def test_each_edit_applies():
    """Fixed texts for the edits that only apply to some elements."""
    qxy = QuotientRing(Rationals(), ("x", "y"))
    fpxy = QuotientRing(PrimeField(7), ("x", "y"))
    fp = quotient_by(fpxy, [element_from_str(fpxy, "x^2 + 6 * y")])
    z12 = ResidueRing(12)
    for ring, text in [(qxy, "-(5/3 * x^2 * y) + y - 7"),
                       (qxy, "x + 1/2"), (fp, "x * y + 3 * y^2 + 2"),
                       (z12, "11"), (IntegerRing(), "-12"),
                       (QuotientRing(Rationals()), "-2/3")]:
        assert str(element_from_str(ring, text)) == text
    for ring, edited in [
            (qxy, "x + -(5/3 * x^2 * y) + y - 7"), (qxy, "y - (5/3 * x^2)"),
            (qxy, "x  + 1/2"), (qxy, "x +1/2"), (qxy, "1 * x + 1/2"),
            (qxy, "x^1 + 1/2"), (qxy, "+x + 1/2"), (qxy, "--x + 1/2"),
            (qxy, "x + 01/2"), (qxy, "x + 2/4"), (qxy, "x + 1/2 + 0"),
            (qxy, "x + x"), (qxy, "y * x"), (qxy, "x * x"),
            (qxy, "-(x)"), (qxy, "-x^2 + 1)"), (qxy, "x + 1/2;"),
            (qxy, "(x + 1)^2"), (qxy, "x + 1/0"), (qxy, "x + z"),
            (qxy, "x^" + "1" * 5000), (fp, "x^2 + 2"), (fp, "x * y + 9"),
            (fp, "x * y - 5"), (z12, "12"), (z12, "-1"), (z12, "011"),
            (IntegerRing(), "-0"), (IntegerRing(), "1/2"),
            (IntegerRing(), "3 + 4"), (IntegerRing(), "3^2"),
            (IntegerRing(), ""), (IntegerRing(), " 3"), (IntegerRing(), 3),
            (QuotientRing(PrimeField(5)), "5"),
            (QuotientRing(Rationals()), "-(2/3)")]:
        with pytest.raises(InvalidWitness):
            element_from_str(ring, edited)


# ---------------------------------------------------------------------------
# every certificate of the corpus and of the seed-1 benchmark scripts

def _corpus_certificates():
    certs = []
    for path in sorted(SCRIPTS.glob("*.zk")):
        report = run_source(path.read_text(), Options(seed=11))
        certs += [(path.stem, r.certificate) for r in report.results
                  if r.certificate is not None]
    return certs


def _bench_certificates():
    certs = []
    for script in gen.ideal_decide(1) + gen.points_glue(1):
        report = run_source(script.source())
        certs += [(script.name, r.certificate) for r in report.results
                  if r.certificate is not None]
    return certs


@pytest.fixture(scope="module")
def certificates():
    """(source, certificate) for every certificate, as JSON reads it."""
    return [(name, json.loads(json.dumps(cert))) for name, cert in
            _corpus_certificates() + _bench_certificates()]


def _element_texts(cert):
    """(ring description, text) for every element text of cert, the
    relations of its rings included."""
    if cert["claim"] == "point":
        rings = [cert["domain"], cert["codomain"]]
        texts = [(cert["codomain"], t) for t in cert["images"]]
        texts += [(cert["domain"], t) for t in cert["open"]]
        texts += [(cert["codomain"], t) for t in cert["cofactors"]]
    else:
        ring = cert["ring"]
        rings = [ring]
        texts = [(ring, cert[key]) for key in ("element", "glued")
                 if key in cert]
        for key in ("generators", "cofactors", "cover", "cover_cofactors"):
            texts += [(ring, t) for t in cert.get(key, ())]
        for fr in cert.get("family", ()):
            texts += [(ring, fr["num"]), (ring, fr["den"])]
    for ring in rings:
        free = dict(ring, relations=[])
        texts += [(free, t) for t in ring.get("relations", ())]
    return texts


def test_printer_and_reader_match_the_references(certificates):
    """Each element text reads to the value the parser and evaluator
    give it, and prints back byte for byte, as the AST printer prints
    that value."""
    rings = {}
    count = 0
    for name, cert in certificates:
        for ring_json, text in _element_texts(cert):
            key = json.dumps(ring_json, sort_keys=True)
            if key not in rings:
                rings[key] = ring_from_json(ring_json)
            ring = rings[key]
            new = element_from_str(ring, text)
            ref = reference_element_from_str(ring, text)
            assert repr(new.payload) == repr(ref.payload), (name, text)
            assert str(new) == text, (name, text)
            assert reference_element_to_str(new) == text, (name, text)
            count += 1
    assert count > 2000


def test_certificates_verify_without_the_script_reader(certificates,
                                                       monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate went through the script reader")

    monkeypatch.setattr(dsl, "tokenize", refuse)
    monkeypatch.setattr(dsl, "parse_expression", refuse)
    monkeypatch.setattr(serialize, "eval_element_expr", refuse)
    for name, cert in certificates:
        assert verify_certificate(cert)[0], name


def test_verify_checks_list_lengths_before_reading_elements():
    """A length mismatch is reported as such even when the elements are
    not readable at all."""
    ring = {"kind": "Z"}
    for cert in [
            {"claim": "bezout", "ring": ring, "generators": ["?", "?"],
             "cofactors": ["?"]},
            {"claim": "membership", "ring": ring, "element": "?",
             "generators": ["?"], "cofactors": []},
            {"claim": "glue", "ring": ring, "cover": ["?", "?"],
             "cover_cofactors": ["?", "?"],
             "family": [{"num": "?", "den": "?", "exp": 0}],
             "pair_exponents": [], "glued": "?"}]:
        ok, detail = verify_certificate(cert)
        assert not ok and " for " in detail, detail
    ok, detail = verify_certificate(
        {"claim": "bezout", "ring": ring, "generators": "12",
         "cofactors": ["1", "2"]})
    assert not ok and "generators is not a list" in detail
