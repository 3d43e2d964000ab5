"""Reading element expressions: the term-dict evaluator against the
RingElement evaluator it replaced (tests/helpers.py), script leaves,
products read as one term, certificates whose powers or products would
cost without bound, the exponents a glue certificate claims, the
certificate reader that the verify statements of one run share, and
the rings that the statements of one run build once."""
import json
import random
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from helpers import (BASES, random_quotient_ring, reference_eval_element_expr,
                     SMALL_PRIMES)
from zkit import (IntegerRing, PrimeField, QuotientRing, Rationals,
                  ResidueRing)
from zkit.dsl import Chain, IntLit, NameRef, Neg, Pow, RatLit
from zkit.errors import InvalidWitness, TypeMismatch, ZkitError
from zkit import interp
from zkit.interp import Options, run_source
from zkit.limits import limits
from zkit.rings import quotient_by
from zkit.serialize import (CertificateReader, element_from_str,
                            eval_element_expr, ring_to_json,
                            verify_certificate)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # the bench package generates scripts

from bench import gen  # noqa: E402


def _rings(rng):
    yield IntegerRing()
    for n in (2, 6, 12, 49, 64, rng.randrange(2, 65)):
        yield ResidueRing(n)  # zero divisors in all but 2
    for base in (Rationals(), PrimeField(rng.choice(SMALL_PRIMES))):
        yield QuotientRing(base)
        yield QuotientRing(base, ("x", "y"))
        yield QuotientRing(base, ("x",), ((((0,), base.one),),))  # 1 = 0
        yield _parabola(base)
    for _ in range(12):
        yield random_quotient_ring(rng, max_vars=3)


def _parabola(base):
    """base[x, y] / (x^2 - y), where x^k reduces to a power of y."""
    free = QuotientRing(base, ("x", "y"))
    return quotient_by(free, [free.element({(2, 0): 1, (0, 1): -1})])


def _chain(rng, ring, depth, bad, bound, ops):
    """A Chain of two or three random operands, its operators drawn from
    ops."""
    count = rng.randrange(2, 4)
    return Chain(tuple(rng.choice(ops) for _ in range(count - 1)),
                 tuple(_tree(rng, ring, depth - 1, bad, bound)
                       for _ in range(count)))


def _product(rng, ring, depth, bad, bound):
    """A * chain of two to six factors, which mixes numbers, rational
    literals (outside Q only when bad), negated factors, variables,
    powers of variables up to huge exponents, bound names and
    subtrees."""
    def factor():
        roll = rng.random()
        if roll < 0.15:
            return IntLit(rng.randrange(70))
        if roll < 0.25 and (ring.is_q_algebra or bad):
            return RatLit(rng.randrange(8), rng.randrange(1, 8))
        if roll < 0.35:
            return Neg(factor())
        if ring.variables and roll < 0.55:
            return NameRef(rng.choice(ring.variables))
        if ring.variables and roll < 0.7:
            return Pow(NameRef(rng.choice(ring.variables)),
                       rng.choice([rng.randrange(5), rng.randrange(2 ** 40)]))
        if bound and roll < 0.8:
            return NameRef(rng.choice(bound))
        return _tree(rng, ring, depth - 1, bad, bound)
    count = rng.randrange(2, 7)
    return Chain(("*",) * (count - 1), tuple(factor() for _ in range(count)))


def _tree(rng, ring, depth, bad, bound=()):
    """A random element expression; with bad, its leaves include each
    kind of error the evaluator reports.  bound names the names that a
    leaf may give besides the ring's variables."""
    names = ring.variables
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if bad and roll < 0.08:
            return rng.choice([RatLit(rng.randrange(5), 0),
                               RatLit(1, rng.randrange(1, 5)),
                               NameRef("unknown")])
        if bound and roll < 0.2:
            return NameRef(rng.choice(bound))
        if names and roll < 0.5:
            return NameRef(rng.choice(names))
        if ring.is_q_algebra and roll < 0.65:
            return RatLit(rng.randrange(8), rng.randrange(1, 8))
        return IntLit(rng.randrange(70))
    roll = rng.random()
    if bad and roll < 0.05:
        return _chain(rng, ring, depth, bad, bound, rng.choice("|&"))
    if roll < 0.3:
        return _chain(rng, ring, depth, bad, bound, "+-")
    if roll < 0.55:
        return _product(rng, ring, depth, bad, bound)
    if roll < 0.7:
        return Neg(_tree(rng, ring, depth - 1, bad, bound))
    if names and ring.relations and roll < 0.8:
        return Pow(NameRef(rng.choice(names)), rng.randrange(2 ** 40))
    return Pow(_tree(rng, ring, depth - 1, bad, bound), rng.randrange(4))


def _bound_leaf(ring, bound):
    """The leaf resolver of a script in which the names of bound are
    bound: every other leaf is refused as eval_element_expr refuses it
    when no resolver is given."""
    def leaf(node):
        if type(node) is not NameRef:
            raise TypeMismatch(
                f"operator {node.ops[0]!r} is not a ring operation")
        if node.name not in bound:
            raise TypeMismatch(f"unknown variable {node.name!r} in {ring}")
        return bound[node.name]
    return leaf


def _outcome(evaluate, *args):
    try:
        return "ok", repr(evaluate(*args).payload)
    except ZkitError as exc:
        return type(exc).__name__, str(exc)


def test_evaluator_matches_reference():
    """Equal payloads (coefficient types included) over Z, Z/n, Q, Fp,
    quotients and the zero ring, or the same error and message; every
    other expression names bound elements, read through a leaf
    resolver."""
    rng = random.Random(2024)
    kinds = set()
    for ring in _rings(rng):
        for k in range(30):
            bound = {} if k % 2 else {"b0": ring.random_element(rng),
                                      "b1": ring.random_element(rng)}
            node = _tree(rng, ring, rng.randrange(1, 5), bad=k % 3 == 0,
                         bound=tuple(bound))
            new = _outcome(eval_element_expr, ring, node,
                           _bound_leaf(ring, bound) if bound else None)
            assert new == _outcome(reference_eval_element_expr, ring, node,
                                   bound), (str(ring), node)
            kinds.add(new[0] if new[0] == "ok" else new[1].split()[1])
    # every error case came up: a rational literal outside Q, a zero
    # denominator, an unknown variable, and | or & on elements
    assert kinds == {"ok", "literals", "has", "variable", "'|'", "'&'"}


def _digits(k: int) -> str:
    """The ResourceExceeded message for 3^k, refused before it is formed."""
    limit = sys.get_int_max_str_digits()
    return (f"a power of at least {k * 3 // 10} digits is past "
            f"sys.get_int_max_str_digits() = {limit}")


_RATIONAL = "rational literals need a Q coefficient base"


@pytest.mark.parametrize("ring, expr, result", [
    # x^1000000000 is formed by squaring with reduction, not folded into
    # the product's term: reducing that term would take 500 million steps
    ("Fp(5)[x,y]/(x^2 - y)", "y * x^1000000000", {"elem": "y^500000001"}),
    ("Fp(5)[x,y]/(x^2 - y)", "x^1000000001 * 2 * y",
     {"elem": "2 * x * y^500000001"}),
    ("Q[x,y]/(x^2 - y)", "-x^1000000000 * 1/2",
     {"elem": "-(1/2 * y^500000000)"}),
    # a power of a number is refused by its digits, alone or as a factor
    ("Z", "3^3000000", ("ResourceExceeded", _digits(3000000))),
    ("Z", "2 * 3^3000000 * x", ("ResourceExceeded", _digits(3000000))),
    ("Q[x]", "x * -3^3000000", ("ResourceExceeded", _digits(3000000))),
    # a rational literal outside Q, and a later error that comes second
    ("Fp(5)[x]", "x * 1/2", ("TypeMismatch", _RATIONAL)),
    ("Z/6", "2 * -1/2 * q", ("TypeMismatch", _RATIONAL)),
    ("Z", "2 * 1/0", ("TypeMismatch", _RATIONAL)),
    ("Q[x]", "x * 1/0 * 3^3000000", ("NonInvertibleDenominator",
                                     "1/0 has a zero denominator")),
], ids=["Fp-parabola", "Fp-parabola-coefficient", "Q-parabola", "Z-digits",
        "Z-digits-factor", "Q-digits-factor", "Fp-rational", "Zmod-rational",
        "Z-rational-zero", "Q-zero-denominator"])
def test_products_keep_their_answers_and_speed(ring, expr, result):
    """What a * chain gives, or how it is refused, at once; a slow read
    is cut off by the statement timeout, and fails here in seconds."""
    start = time.perf_counter()
    res = run_source(f"ring S = {ring}; elem a = {expr};",
                     Options(timeout_ms=5000)).results[-1]
    assert time.perf_counter() - start < 1.0
    if isinstance(result, tuple):
        kind, message = result
        result = {"kind": kind, "message": message}
    assert res.result == result


def _circle_and_hyperbola():
    """Fp(7)[x, y] / (x^2 + y^2 - 1, x*y - 2), two relations."""
    free = QuotientRing(PrimeField(7), ("x", "y"))
    return quotient_by(free, [
        free.element({(2, 0): 1, (0, 2): 1, (0, 0): -1}),
        free.element({(1, 1): 1, (0, 0): -2})])


@pytest.mark.parametrize("ring", [
    _parabola(PrimeField(5)), _parabola(Rationals()), _circle_and_hyperbola()],
    ids=["Fp-parabola", "Q-parabola", "Fp-two-relations"])
def test_a_long_product_of_a_variable_is_its_power(ring):
    """x*x*...*x, 300 factors, read as one term and reduced once, is the
    payload of the reference, which reduces at every product, and that
    of x^300."""
    x = NameRef("x")
    product = eval_element_expr(ring, Chain(("*",) * 299, (x,) * 300))
    assert product == reference_eval_element_expr(
        ring, Chain(("*",) * 299, (x,) * 300))
    assert product == eval_element_expr(ring, Pow(x, 300))
    assert not product.is_zero


def test_script_leaves_are_bound_elements():
    report = run_source("""
        ring S = Q[x,y]/(y^2 - x);
        elem f = 1/2*x + y;
        elem g = f^3 - 2*f*y + 7;
        check g == (1/2*x + y)^3 - 2*(1/2*x + y)*y + 7;
        check g == 7;
        latt u = D(f);
        elem bad = f + u;
        elem gone = f * q;
        elem z = y + (D(x) | x);
        ring R = Z;
        elem a = 3;
        ring T = Q[x];
        elem b = a;
        elem c = -a;
    """)
    res = [r.result for r in report.results]
    assert res[3] == {"holds": True} and res[4] == {"holds": False}
    assert res[6]["kind"] == "TypeMismatch"
    assert res[7] == {"kind": "UnknownName", "message": "unknown name 'q'"}
    # the operands of | are read before the operator is refused
    assert res[8] == {"kind": "TypeMismatch",
                      "message": "expected a ring element"}
    # a bare name is its binding; arithmetic runs in the current ring
    assert res[12] == {"elem": "3"}
    assert res[13]["kind"] == "RingMismatch"


def _cert(ring, gens, cofs, claim="bezout"):
    return {"claim": claim, "ring": ring, "generators": gens,
            "cofactors": cofs}


_Z = {"kind": "Z"}


def _poly_ring(base, relations=()):
    return {"kind": "polyquot", "base": base, "variables": ["x"],
            "relations": list(relations), "order": "grevlex"}


@pytest.mark.parametrize("cert", [
    _cert(_Z, ["5", "7"], ["3^3000000", "-2"]),
    _cert(_Z, ["5", "7"], ["3 - (3^99999999999 - 3^99999999999)", "-2"]),
    _cert(_poly_ring("Q"), ["x", "1 - x"], ["(x + 1)^99999999", "1"]),
    _cert(_poly_ring("Q"), ["x", "1 - x"], ["1/2^99999999999", "1"]),
    _cert(_poly_ring({"Fp": 7}), ["x", "1 - x"], ["(x+1)^99999999", "1"]),
    _cert(_poly_ring({"Fp": 7}, ["(x + 1)^99999999"]), ["x", "1 - x"],
          ["1", "1"]),
], ids=["Z", "Z-huge", "Qx", "Qx-rational", "Fp7x", "Fp7x-relation"])
def test_verify_rejects_powers_of_non_variables_at_once(cert):
    start = time.perf_counter()
    ok, detail = verify_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert not ok
    assert "is not in canonical form" in detail


def test_verify_rejects_products_of_sums_at_once():
    """(x0 + 1)*...*(x15 + 1) is 149 characters and 65536 terms."""
    names = [f"x{i}" for i in range(16)]
    ring = QuotientRing(Rationals(), tuple(names))
    text = "*".join(f"({x} + 1)" for x in names)
    assert len(text) == 149
    start = time.perf_counter()
    with pytest.raises(InvalidWitness, match="is not in canonical form"):
        element_from_str(ring, text)
    assert time.perf_counter() - start < 0.1
    # also nested under a sign, and with the sums on either side
    for text in ("-(x0 - 1)*(x1 + 1)", "x2*(x0 + 1)*(1 - x1)",
                 "(x0*(x1 + 1))*(x2 + x3)"):
        with pytest.raises(InvalidWitness, match="is not in canonical form"):
            element_from_str(ring, text)
    cert = {"claim": "bezout",
            "ring": {"kind": "polyquot", "base": "Q", "variables": names,
                     "relations": [], "order": "grevlex"},
            "generators": ["x0", "1 - x0"],
            "cofactors": ["*".join(f"({x} + 1)" for x in names), "1"]}
    start = time.perf_counter()
    ok, detail = verify_certificate(cert)
    assert time.perf_counter() - start < 0.1
    assert not ok and "is not in canonical form" in detail


@pytest.mark.parametrize("ring", [
    _poly_ring("Q"), _poly_ring({"Fp": 7}),
    _poly_ring({"Fp": 7}, ["x^3 - 2"]), _poly_ring("Q", ["x^2 - x"])])
def test_huge_powers_of_a_variable_stay_cheap(ring):
    """One monomial in a free ring, where 1 - x^1000000000000 is written
    -x^1000000000000 + 1 over Q and 6 * x^1000000000000 + 1 over Fp(7).
    In a quotient x^1000000000000 is not a normal form, and over Fp(7)
    x^3 - 2 is not canonical (it is written x^3 + 5): both are rejected
    as written, without reducing anything."""
    power = "x^1000000000000"
    minus_one = "-" if ring["base"] == "Q" else "6 * "
    start = time.perf_counter()
    ok, detail = verify_certificate(
        _cert(ring, [power, f"{minus_one}{power} + 1"], ["1", "1"]))
    assert time.perf_counter() - start < 1.0
    if ring["relations"]:
        assert not ok and "is not in canonical form" in detail
    else:
        assert ok, detail


def _glue_cert(source):
    """The certificate of the last statement of source, a glue."""
    result = run_source(source).results[-1]
    assert result.status == "ok", result.result
    return result.certificate


_GLUE_QX = ("ring S = Q[x]; "
            "glue cover [x + 1, -x] with [(x + 1) / (x + 1)^1, 1 / (-x)^0];")
_GLUE_Z48 = "ring R = Z/48; glue cover [2, 3] with [13 / 2^1, 31 / 3^1];"
_GLUE_Z3 = ("ring R = Z; "
            "glue cover [2, 3, 5] with [28 / 2^2, 21 / 3^1, 7 / 5^0];")


@pytest.mark.parametrize("exp", [2000, 65, -1, True, 1.0, "1", None])
def test_verify_rejects_glue_exponents_outside_the_cap_at_once(exp):
    """f^exp is never taken for an exponent outside [0, max_exponent]:
    2000 over Q[x] took seconds when it was."""
    cert = _glue_cert(_GLUE_QX)
    assert verify_certificate(cert)[0]
    cert["family"][0]["exp"] = exp
    start = time.perf_counter()
    ok, detail = verify_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert not ok and "family exponent" in detail and "[0, 64]" in detail


def test_glue_statement_refuses_exponents_over_the_cap():
    report = run_source("ring S = Q[x]; "
                        "glue cover [x + 1, -x] with "
                        "[(x + 1)^65 / (x + 1)^65, 1 / (-x)^0];")
    result = report.results[-1]
    assert result.status == "error" and result.certificate is None
    assert result.result["kind"] == "ResourceExceeded"
    assert "max_exponent=64" in result.result["message"]
    # under --max-exp 3 the cap moves, for the statement and verify alike
    source = ("ring S = Q[x]; glue cover [x + 1, -x] with "
              "[(x + 1)^{0} / (x + 1)^{0}, 1 / (-x)^0];")
    with limits(max_exponent=3):
        at_cap = run_source(source.format(3)).results[-1]
        assert at_cap.status == "ok"
        assert verify_certificate(at_cap.certificate)[0]
    over = run_source(source.format(4),
                      Options(max_exponent=3)).results[-1]
    assert over.result["kind"] == "ResourceExceeded"
    assert "max_exponent=3" in over.result["message"]


_GLUE_XY = ("ring S = Q[x, y]/(x*y); "
            "glue cover [x + 1, -x] with [y / (x + 1)^0, 0 / (-x)^0];")


@pytest.mark.parametrize("source", [_GLUE_QX, _GLUE_Z48, _GLUE_Z3, _GLUE_XY],
                         ids=["Qx", "Z48", "Z-three-opens", "Qxy-xy"])
@pytest.mark.parametrize("edit", [
    "garbage", "wrong-k", "k-over-cap", "k-negative", "k-bool", "k-float",
    "missing"])
def test_verify_checks_restriction_exponents(source, edit):
    """Each family entry num/f^e carries the least k with (glued f^e -
    num) f^k == 0; verify refuses an edit of the largest one, with a
    detail that names its path."""
    cert = _glue_cert(source)
    assert verify_certificate(cert) == (
        True, "cover verifies and all restrictions match")
    ks = [entry["k"] for entry in cert["family"]]
    j = ks.index(max(ks))
    entry = cert["family"][j]
    if edit == "missing":
        del entry["k"]
    elif edit == "wrong-k":
        if ks[j] == 0:  # over a domain k = 0 holds, and with it every k
            return
        entry["k"] -= 1
    else:
        entry["k"] = {"garbage": "garbage", "k-over-cap": 65,
                      "k-negative": -1, "k-bool": True,
                      "k-float": float(ks[j])}[edit]
    ok, detail = verify_certificate(cert)
    assert not ok and f"family[{j}].k" in detail, detail


@pytest.mark.parametrize("source", [_GLUE_QX, _GLUE_Z48, _GLUE_Z3],
                         ids=["Qx", "Z48", "Z-three-opens"])
@pytest.mark.parametrize("edit", [
    "garbage", "cut", "emptied", "extra", "swapped", "wrong-k", "k-over-cap",
    "k-negative", "k-bool", "k-float", "entry-short", "entry-indices"])
def test_verify_checks_pair_exponents(source, edit):
    """A glue certificate carries no pair exponents: the format that did,
    with a pair_exponents list of [i, j, k] and no k in the family, is
    refused at that key, as written and under each edit of the list that
    verify once checked."""
    cert = _glue_cert(source)
    pairs = [[i, j, 0] for j in range(len(cert["family"]))
             for i in range(j)]
    for entry in cert["family"]:
        del entry["k"]
    refused = (False, "verification error: unexpected key pair_exponents")
    assert verify_certificate(dict(cert, pair_exponents=pairs)) == refused
    i, j, k = pairs[0]
    cert["pair_exponents"] = {
        "garbage": "garbage",
        "cut": pairs[:-1],
        "emptied": [],
        "extra": pairs + [[0, 1, 0]],
        "swapped": pairs[::-1] if len(pairs) > 1 else [[j, i, k]],
        "wrong-k": [[i, j, k - 1]] + pairs[1:],
        "k-over-cap": [[i, j, 65]] + pairs[1:],
        "k-negative": [[i, j, -1]] + pairs[1:],
        "k-bool": [[i, j, True]] + pairs[1:],
        "k-float": [[i, j, float(k)]] + pairs[1:],
        "entry-short": [[i, j]] + pairs[1:],
        "entry-indices": [[i, j + 1, k]] + pairs[1:],
    }[edit]
    assert verify_certificate(cert) == refused


def test_glue_over_zero_divisors_carries_a_positive_k():
    """Over Q[x, y]/(x*y) the glued y restricts to 0/(-x)^0 only after a
    factor -x: (y - 0) * (-x)^1 == 0, so that entry carries k = 1, and
    verify refuses it with k = 0."""
    cert = _glue_cert(_GLUE_XY)
    assert cert["glued"] == "y"
    assert [entry["k"] for entry in cert["family"]] == [0, 1]
    assert verify_certificate(cert)[0]
    cert["family"][1]["k"] = 0
    assert verify_certificate(cert) == (
        False, "restriction to R[1/(-x)] differs with family[1].k = 0")


@pytest.mark.parametrize("claim", ["radical", "glue"])
def test_verify_forms_powers_under_the_term_pair_cap(claim):
    """Where verify must still form a power, in a ring with relations, it
    forms it as a script's power is formed, and a refusal names
    max_assignments; under the default cap the same certificate holds."""
    if claim == "radical":
        cert = run_source("ring S = Q[x]/(x^3); "
                          "radical-member x + 1 in [x + 1];").results[-1]
        cert = dict(cert.certificate, exponent=64)
    else:
        cert = _glue_cert(_GLUE_XY)
        cert["family"][0]["k"] = 64  # y * (x + 1)^64 is formed
    with limits(max_assignments=4):
        ok, detail = verify_certificate(cert)
    assert not ok and "exceed max_assignments=4" in detail, detail
    assert verify_certificate(cert)[0] == (claim == "glue")


def test_verify_over_a_domain_forms_no_power():
    """Over a free ring verify forms neither a^k nor f^k, so a genuine
    certificate holds under a max_assignments that forming either would
    exceed."""
    rad = run_source("ring R = Q[x, y]; elem a = x + 2*y + 1; "
                     "radical-member a in [a^6];").results[-1].certificate
    assert rad["exponent"] == 6
    glue = _glue_cert("ring S = Q[x, y]; glue cover [x + y + 1, -x - y] "
                      "with [(x + 1) / (x + y + 1)^0, "
                      "(x + 1) * (-x - y)^3 / (-x - y)^3];")
    for entry in glue["family"]:
        entry["k"] = 64
    with limits(max_assignments=4):
        assert verify_certificate(rad) == (True, "sum == element^6")
        assert verify_certificate(glue) == (
            True, "cover verifies and all restrictions match")


def test_restriction_exponent_cap_follows_the_saturation_bound():
    """Over Z/48 the least k may go up to 48's bit length + 1 = 7, past
    max_exponent = 3, on the issuing side and in verify alike."""
    with limits(max_exponent=3):
        cert = _glue_cert(_GLUE_Z48)
        assert [entry["k"] for entry in cert["family"]] == [4, 1]
        assert verify_certificate(cert)[0]
        cert["family"][0]["k"] = 7  # any k past the least one holds
        assert verify_certificate(cert)[0]
        cert["family"][0]["k"] = 8
        ok, detail = verify_certificate(cert)
    assert not ok and "family[0].k is not an integer in [0, 7]" in detail


# ---------------------------------------------------------------------------
# one certificate reader per run

@pytest.fixture(scope="module")
def replay_files():
    """The report files of the seed-1 cert-replay workload, each a list
    of (id, certificate): the certificates of the seed-1 decision
    scripts and their tampered copies.  Validity only decides which
    certificates the benchmark expects to pass, not the files."""
    certs = []
    for script in gen.ideal_decide(1) + gen.points_glue(1):
        certs += [(json.loads(json.dumps(r.certificate)), True)
                  for r in run_source(script.source()).results
                  if r.certificate is not None]
    return gen.cert_replay(1, certs)[0]


def _verify_script(tmp_path, files) -> str:
    """One verify statement per report file, in the order of files."""
    lines = []
    for group in files:
        path = tmp_path / f"{group[0][0]}.json"
        path.write_text(json.dumps({"version": 1, "results": [
            {"cmd": cid, "status": "ok", "result": None,
             "certificate": cert, "ms": 0.0} for cid, cert in group]}))
        lines.append(f'verify "{path}";\n')
    return "".join(lines)


@pytest.mark.parametrize("order", ["file order", "reversed"])
def test_one_run_verifies_each_certificate_as_a_fresh_read(
        tmp_path, replay_files, order):
    """Read in one run, every certificate gets exactly the (ok, detail)
    of verify_certificate on its own.  Reversing the files makes each
    tampered copy follow its honest original once and precede it once."""
    files = replay_files if order == "file order" else replay_files[::-1]
    fresh = {cid: verify_certificate(cert)
             for group in files for cid, cert in group}
    assert 0 < Counter(ok for ok, _ in fresh.values())[False] < len(fresh)
    report = run_source(_verify_script(tmp_path, files))
    for group, res in zip(files, report.results, strict=True):
        failures = [{"cmd": cid, "detail": fresh[cid][1]}
                    for cid, _ in group if not fresh[cid][0]]
        assert res.result == {"checked": len(group),
                              "passed": len(group) - len(failures),
                              "failures": failures}
    reader = CertificateReader()
    for group in files:
        for cid, cert in group:
            assert verify_certificate(cert, reader) == fresh[cid], cid


def test_a_run_computes_each_relation_basis_once(
        tmp_path, replay_files, monkeypatch):
    """The rings of one run are interned by their JSON: a run computes
    the relation basis of each distinct certificate ring with relations
    once, and the next run_script computes it again."""
    computed = Counter()
    real = QuotientRing.relation_basis.func

    def counted(ring):
        computed[json.dumps(ring_to_json(ring), sort_keys=True)] += 1
        return real(ring)

    prop = cached_property(counted)
    prop.__set_name__(QuotientRing, "relation_basis")
    monkeypatch.setattr(QuotientRing, "relation_basis", prop)
    rings = {json.dumps(ring, sort_keys=True)
             for group in replay_files for _, cert in group
             for ring in (cert.get("ring"), cert.get("domain"),
                          cert.get("codomain"))
             if ring and ring.get("relations")}
    assert len(rings) > 1
    script = _verify_script(tmp_path, replay_files)
    for runs in (1, 2):
        run_source(script)
        assert {k: computed[k] for k in rings} == dict.fromkeys(rings, runs)


def test_failed_reads_are_not_kept():
    """A read that fails raises again, with the same detail, however
    often it is asked for; a successful one is read once."""
    reader = CertificateReader()
    ring = reader.ring({"kind": "polyquot", "base": "Q", "variables": ["x"],
                        "relations": ["x^2 - 1"], "order": "grevlex"})
    assert reader.ring(json.loads(json.dumps(ring_to_json(ring)))) is ring
    for text in ("1 * x", "x^2", 5, ["x"]):
        details = set()
        for _ in range(2):
            with pytest.raises(InvalidWitness) as exc:
                reader.element(ring, text)
            details.add(str(exc.value))
        assert len(details) == 1
    assert reader.element(ring, "x + 1") is reader.element(ring, "x + 1")
    bad = {"kind": "Zmod", "n": 1}
    for _ in range(2):
        with pytest.raises(ZkitError, match="modulus 1 is below 2"):
            reader.ring(bad)


# ---------------------------------------------------------------------------
# one ring per ring expression and run

_TWO_RELATIONS = "Fp(5)[a,b]/(a^2 - b, b^3 - a)"


def _codomains(monkeypatch, *sources) -> list:
    """The codomain of every eval statement of each source, run by its
    own run_source, in order."""
    seen = []

    def hom_apply(phi, r):
        seen.append(phi.codomain)
        return real(phi, r)
    real = interp.hom_apply
    monkeypatch.setattr(interp, "hom_apply", hom_apply)
    for source in sources:
        assert {r.status for r in run_source(source).results} == {"ok"}
    return seen


def test_a_run_builds_each_over_ring_once(monkeypatch):
    """Two statements over Fp(5) in one script evaluate into one ring
    object; the next run builds its own, equal one."""
    source = ("ring R = Fp(5)[x,y]; "
              "eval x*y at {x -> 1, y -> 2} over Fp(5); "
              "eval x + y at {x -> 3, y -> 4} over Fp(5);")
    first, second, third, fourth = _codomains(monkeypatch, source, source)
    assert first is second and third is fourth
    assert first == third and first is not third


def test_a_run_computes_an_over_ring_basis_once(monkeypatch):
    """An over ring with two relations, named by two statements, runs its
    relation basis Buchberger once per run; declared again under another
    name, it is the same ring."""
    source = (f"ring S = {_TWO_RELATIONS}; ring T = {_TWO_RELATIONS}; "
              f"ring R = Fp(5)[x]; "
              f"eval x at {{x -> a}} over {_TWO_RELATIONS}; "
              f"eval x^2 + 1 at {{x -> b}} over {_TWO_RELATIONS}; "
              "eval x at {x -> a*b} over S; eval x at {x -> a*b} over T;")
    computed = BASES["computed"]
    rings = _codomains(monkeypatch, source)
    assert BASES["computed"] == computed + 1
    assert all(ring is rings[0] for ring in rings)
    assert len(rings[0].relation_basis) > 1
    _codomains(monkeypatch, source)
    assert BASES["computed"] == computed + 2

