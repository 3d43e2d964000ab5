"""Reading element expressions: the term-dict evaluator against the
RingElement evaluator it replaced (tests/helpers.py), script leaves,
certificates whose powers or products would cost without bound, and the
exponents a glue certificate claims."""
import random
import time

import pytest

from helpers import (random_quotient_ring, reference_eval_element_expr,
                     SMALL_PRIMES)
from zkit import (IntegerRing, PrimeField, QuotientRing, Rationals,
                  ResidueRing)
from zkit.dsl import BinOp, IntLit, NameRef, Neg, Pow, RatLit
from zkit.errors import InvalidWitness, ZkitError
from zkit.interp import Options, run_source
from zkit.limits import limits
from zkit.serialize import (element_from_str, eval_element_expr,
                            verify_certificate)


def _rings(rng):
    yield IntegerRing()
    for n in (2, 6, 12, 49, 64, rng.randrange(2, 65)):
        yield ResidueRing(n)  # zero divisors in all but 2
    for base in (Rationals(), PrimeField(rng.choice(SMALL_PRIMES))):
        yield QuotientRing(base)
        yield QuotientRing(base, ("x", "y"))
        yield QuotientRing(base, ("x",), ((((0,), base.one),),))  # 1 = 0
    for _ in range(12):
        yield random_quotient_ring(rng, max_vars=3)


def _tree(rng, ring, depth, bad):
    """A random element expression; with bad, its leaves include each
    kind of error the evaluator reports."""
    names = ring.variables
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if bad and roll < 0.08:
            return rng.choice([RatLit(rng.randrange(5), 0),
                               RatLit(1, rng.randrange(1, 5)),
                               NameRef("unknown")])
        if names and roll < 0.5:
            return NameRef(rng.choice(names))
        if ring.is_q_algebra and roll < 0.65:
            return RatLit(rng.randrange(8), rng.randrange(1, 8))
        return IntLit(rng.randrange(70))
    roll = rng.random()
    if bad and roll < 0.05:
        return BinOp(rng.choice("|&"), _tree(rng, ring, depth - 1, bad),
                     _tree(rng, ring, depth - 1, bad))
    if roll < 0.55:
        return BinOp(rng.choice("+-*"), _tree(rng, ring, depth - 1, bad),
                     _tree(rng, ring, depth - 1, bad))
    if roll < 0.7:
        return Neg(_tree(rng, ring, depth - 1, bad))
    if names and ring.relations and roll < 0.8:
        return Pow(NameRef(rng.choice(names)), rng.randrange(2 ** 40))
    return Pow(_tree(rng, ring, depth - 1, bad), rng.randrange(4))


def _outcome(evaluate, ring, node):
    try:
        return "ok", repr(evaluate(ring, node).payload)
    except ZkitError as exc:
        return type(exc).__name__, str(exc)


def test_evaluator_matches_reference():
    """Equal payloads (coefficient types included) over Z, Z/n, Q, Fp,
    quotients and the zero ring, or the same error and message."""
    rng = random.Random(2024)
    kinds = set()
    for ring in _rings(rng):
        for k in range(30):
            node = _tree(rng, ring, rng.randrange(1, 5), bad=k % 3 == 0)
            new = _outcome(eval_element_expr, ring, node)
            assert new == _outcome(reference_eval_element_expr, ring,
                                   node), (str(ring), node)
            kinds.add(new[0] if new[0] == "ok" else new[1].split()[1])
    # every error case came up: a rational literal outside Q, a zero
    # denominator, an unknown variable, and | or & on elements
    assert kinds == {"ok", "literals", "has", "variable", "'|'", "'&'"}


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
    # a bare name is its binding; arithmetic runs in the current ring
    assert res[11] == {"elem": "3"}
    assert res[12]["kind"] == "RingMismatch"


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
    assert "raises something other than a variable to a power" in detail


def test_verify_rejects_products_of_sums_at_once():
    """(x0 + 1)*...*(x15 + 1) is 149 characters and 65536 terms."""
    names = [f"x{i}" for i in range(16)]
    ring = QuotientRing(Rationals(), tuple(names))
    text = "*".join(f"({x} + 1)" for x in names)
    assert len(text) == 149
    start = time.perf_counter()
    with pytest.raises(InvalidWitness, match="multiplies two sums"):
        element_from_str(ring, text)
    assert time.perf_counter() - start < 0.1
    # also nested under a sign, and with the sums on either side
    for text in ("-(x0 - 1)*(x1 + 1)", "x2*(x0 + 1)*(1 - x1)",
                 "(x0*(x1 + 1))*(x2 + x3)"):
        with pytest.raises(InvalidWitness, match="multiplies two sums"):
            element_from_str(ring, text)
    # a product with a sum on one side only stays readable
    assert (element_from_str(ring, "x2*(x0 + 1)*x1")
            == element_from_str(ring, "x0*x1*x2 + x1*x2"))
    cert = {"claim": "bezout",
            "ring": {"kind": "polyquot", "base": "Q", "variables": names,
                     "relations": [], "order": "grevlex"},
            "generators": ["x0", "1 - x0"],
            "cofactors": ["*".join(f"({x} + 1)" for x in names), "1"]}
    start = time.perf_counter()
    ok, detail = verify_certificate(cert)
    assert time.perf_counter() - start < 0.1
    assert not ok and "multiplies two sums" in detail


@pytest.mark.parametrize("ring", [
    _poly_ring("Q"), _poly_ring({"Fp": 7}),
    _poly_ring({"Fp": 7}, ["x^3 - 2"]), _poly_ring("Q", ["x^2 - x"])])
def test_huge_powers_of_a_variable_stay_cheap(ring):
    """One monomial in a free ring, square-and-multiply with reduction in
    a quotient."""
    power = "x^1000000000000"
    start = time.perf_counter()
    ok, detail = verify_certificate(
        _cert(ring, [power, f"1 - {power}"], ["1", "1"]))
    assert time.perf_counter() - start < 1.0
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


@pytest.mark.parametrize("source", [_GLUE_QX, _GLUE_Z48, _GLUE_Z3],
                         ids=["Qx", "Z48", "Z-three-opens"])
@pytest.mark.parametrize("edit", [
    "garbage", "cut", "emptied", "extra", "swapped", "wrong-k", "k-over-cap",
    "k-negative", "k-bool", "k-float", "entry-short", "entry-indices"])
def test_verify_checks_pair_exponents(source, edit):
    cert = _glue_cert(source)
    assert verify_certificate(cert) == (
        True, "cover verifies and all restrictions match")
    pairs = cert["pair_exponents"]
    i, j, k = pairs[0]
    if edit == "wrong-k":
        if k == 0:  # k = 0 already kills the difference: any k does
            return
        pairs[0] = [i, j, k - 1]  # the least k, so k - 1 does not
    else:
        cert["pair_exponents"] = {
            "garbage": "garbage",
            "cut": pairs[:-1],
            "emptied": [],
            "extra": pairs + [[0, 1, 0]],
            "swapped": pairs[::-1] if len(pairs) > 1 else [[j, i, k]],
            "k-over-cap": [[i, j, 65]] + pairs[1:],
            "k-negative": [[i, j, -1]] + pairs[1:],
            "k-bool": [[i, j, True]] + pairs[1:],
            "k-float": [[i, j, float(k)]] + pairs[1:],
            "entry-short": [[i, j]] + pairs[1:],
            "entry-indices": [[i, j + 1, k]] + pairs[1:],
        }[edit]
    ok, detail = verify_certificate(cert)
    assert not ok and "pair" in detail, detail


def test_pair_exponents_cap_follows_the_saturation_bound():
    """Over Z/n the saturation scan may go up to n's bit length + 1, so
    verify accepts pair exponents up to that as well."""
    cert = _glue_cert(_GLUE_Z48)
    assert cert["pair_exponents"] == [[0, 1, 4]]
    cert["pair_exponents"] = [[0, 1, 64]]
    assert verify_certificate(cert)[0]  # any k past the least one holds
