"""JSON serialization for rings, elements and certificates.

Certificates embed their ring description and all elements as script
expressions, so a report is self-contained: the verify command can
rebuild everything and re-check the claimed identities by plain ring
arithmetic, with no access to the session that produced them.
"""
from __future__ import annotations

from fractions import Fraction as _Q

from . import dsl
from .errors import (InvalidWitness, NonInvertibleDenominator, TypeMismatch,
                     ZkitError)
from .ideals import BezoutCertificate
from .limits import current_limits
from .localization import Fraction, frac_eq, localize
from .poly import PrimeField, Rationals
from .rings import (IntegerRing, QuotientRing, ResidueRing, RingElement,
                    make_hom, normalize, polynomial_ring)


# ---------------------------------------------------------------------------
# rings

def ring_to_json(ring) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "Z"}
    if isinstance(ring, ResidueRing):
        return {"kind": "Zmod", "n": ring.modulus}
    base = ("Q" if isinstance(ring.base, Rationals)
            else {"Fp": ring.base.p})
    return {"kind": "polyquot", "base": base,
            "variables": list(ring.variables),
            "relations": [dsl.print_expr(_poly_to_expr(r, ring.variables))
                          for r in ring.relations],
            "order": ring.order}


def ring_from_json(data: dict):
    kind = data["kind"]
    if kind == "Z":
        return IntegerRing()
    if kind == "Zmod":
        return ResidueRing(data["n"])
    if kind == "polyquot":
        base = Rationals() if data["base"] == "Q" else PrimeField(data["base"]["Fp"])
        free = polynomial_ring(base, data["variables"],
                               data.get("order", "grevlex"))
        rels = [element_from_str(free, s) for s in data["relations"]]
        return QuotientRing(base, tuple(data["variables"]),
                            tuple(r.payload for r in rels if not r.is_zero),
                            data.get("order", "grevlex"))
    raise ValueError(f"unknown ring kind {kind!r}")


# ---------------------------------------------------------------------------
# elements as script expressions

def _poly_to_expr(p, variables):
    """Rebuild an AST for a polynomial payload (canonical term order)."""
    if not p:
        return dsl.IntLit(0)
    expr = None
    for mono, coeff in p:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        if isinstance(mag, _Q):
            if mag != 1 or not any(mono):
                factors.append(dsl.IntLit(mag.numerator) if mag.denominator == 1
                               else dsl.RatLit(mag.numerator, mag.denominator))
        else:
            if mag != 1 or not any(mono):
                factors.append(dsl.IntLit(mag))
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(dsl.NameRef(name))
            elif e > 1:
                factors.append(dsl.Pow(dsl.NameRef(name), e))
        term = factors[0]
        for f in factors[1:]:
            term = dsl.BinOp("*", term, f)
        if neg:
            term = dsl.Neg(term) if expr is None else term
        if expr is None:
            expr = term
        else:
            expr = dsl.BinOp("-" if neg else "+", expr, term)
    return expr


def element_to_str(e: RingElement) -> str:
    if isinstance(e.payload, int):
        return str(e.payload)
    return dsl.print_expr(_poly_to_expr(e.payload, e.ring.variables))


def eval_element_expr(ring, node) -> RingElement:
    """Evaluate a pure element expression over a ring (variables only,
    no script bindings)."""
    if isinstance(node, dsl.IntLit):
        return ring.from_int(node.value)
    if isinstance(node, dsl.RatLit):
        if not ring.is_q_algebra:
            raise TypeMismatch("rational literals need a Q coefficient base")
        if node.den == 0:
            raise NonInvertibleDenominator(f"{node.num}/0 has a zero denominator")
        return normalize(ring, _Q(node.num, node.den))
    if isinstance(node, dsl.NameRef):
        if node.name in ring.variables:
            return ring.var(node.name)
        raise TypeMismatch(f"unknown variable {node.name!r} in {ring}")
    if isinstance(node, dsl.Neg):
        return -eval_element_expr(ring, node.arg)
    if isinstance(node, dsl.BinOp):
        left = eval_element_expr(ring, node.left)
        right = eval_element_expr(ring, node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        raise TypeMismatch(f"operator {node.op!r} is not a ring operation")
    if isinstance(node, dsl.Pow):
        return eval_element_expr(ring, node.base) ** node.exp
    raise TypeMismatch(f"{node!r} is not a ring element expression")


def element_from_str(ring, text: str) -> RingElement:
    return eval_element_expr(ring, dsl.parse_expression(text))


def fraction_to_json(fr: Fraction) -> dict:
    return {"num": element_to_str(fr.num), "den": element_to_str(fr.f),
            "exp": fr.exp}


def fraction_from_json(ring, data: dict) -> Fraction:
    L = localize(ring, element_from_str(ring, data["den"]))
    return L.fraction(element_from_str(ring, data["num"]), data["exp"])


# ---------------------------------------------------------------------------
# certificates

def bezout_to_json(cert: BezoutCertificate, claim: str = "bezout") -> dict:
    ring = cert.ring
    return {"claim": claim,
            "ring": ring_to_json(ring) if ring is not None else None,
            "generators": [element_to_str(g) for g in cert.generators],
            "cofactors": [element_to_str(c) for c in cert.cofactors]}


def membership_to_json(ring, element, generators, cofactors,
                       exponent: int = None) -> dict:
    data = {"claim": "membership" if exponent is None else "radical-membership",
            "ring": ring_to_json(ring),
            "element": element_to_str(element),
            "generators": [element_to_str(g) for g in generators],
            "cofactors": [element_to_str(c) for c in cofactors]}
    if exponent is not None:
        data["exponent"] = exponent
    return data


def glue_to_json(cover, fractions, witnesses, glued) -> dict:
    return {"claim": "glue",
            "ring": ring_to_json(cover.ring),
            "cover": [element_to_str(f) for f in cover.elements],
            "cover_cofactors": [element_to_str(c)
                                for c in cover.certificate.cofactors],
            "family": [fraction_to_json(x) for x in fractions],
            "pair_exponents": [list(w) for w in witnesses],
            "glued": element_to_str(glued)}


def point_to_json(pt) -> dict:
    phi = pt.hom
    return {"claim": "point",
            "domain": ring_to_json(phi.domain),
            "codomain": ring_to_json(phi.codomain),
            "images": [element_to_str(i) for i in phi.generator_images],
            "open": [element_to_str(g) for g in pt.open.element.generators],
            "cofactors": [element_to_str(c) for c in pt.witness.cofactors]}


def _generators_and_cofactors(ring, data: dict, gens_key="generators",
                              cofs_key="cofactors"):
    gens = [element_from_str(ring, s) for s in data[gens_key]]
    cofs = [element_from_str(ring, s) for s in data[cofs_key]]
    if len(gens) != len(cofs):
        raise InvalidWitness(f"{len(cofs)} {cofs_key} for "
                             f"{len(gens)} {gens_key}")
    return gens, cofs


def verify_certificate(data: dict) -> tuple:
    """Re-verify a serialized certificate; returns (ok, detail).

    Every list that is zipped with another must match its length, and a
    claimed exponent must lie within the exponent cap, so a truncated or
    inflated certificate is rejected rather than checked in part or at
    unbounded cost.
    """
    try:
        claim = data.get("claim")
        if claim in ("bezout", "bezout-power"):
            ring = ring_from_json(data["ring"])
            gens, cofs = _generators_and_cofactors(ring, data)
            ok = BezoutCertificate(tuple(gens), tuple(cofs)).verify()
            return ok, "sum(cofactor*generator) == 1" if ok else "sum != 1"
        if claim in ("membership", "radical-membership"):
            ring = ring_from_json(data["ring"])
            a = element_from_str(ring, data["element"])
            gens, cofs = _generators_and_cofactors(ring, data)
            total = ring.zero()
            for c, g in zip(cofs, gens):
                total = total + c * g
            if claim == "membership":
                return total == a, f"sum == {data['element']}"
            k = data["exponent"]
            cap = current_limits().max_exponent
            if type(k) is not int or not 1 <= k <= cap:
                return False, f"exponent {k!r} is not an integer in [1, {cap}]"
            return total == a ** k, f"sum == element^{k}"
        if claim == "glue":
            ring = ring_from_json(data["ring"])
            cover_elts, cover_cofs = _generators_and_cofactors(
                ring, data, "cover", "cover_cofactors")
            if not BezoutCertificate(tuple(cover_elts),
                                     tuple(cover_cofs)).verify():
                return False, "cover certificate failed"
            if len(data["family"]) != len(cover_elts):
                return False, "family size does not match the cover"
            glued = element_from_str(ring, data["glued"])
            for f, frdata in zip(cover_elts, data["family"]):
                L = localize(ring, f)
                fr = L.fraction(element_from_str(ring, frdata["num"]),
                                frdata["exp"])
                if not frac_eq(L.from_base(glued), fr):
                    return False, f"restriction to R[1/({f})] differs"
            return True, "cover verifies and all restrictions match"
        if claim == "point":
            from .lattice import zar_elt
            domain = ring_from_json(data["domain"])
            codomain = ring_from_json(data["codomain"])
            images = [element_from_str(codomain, s) for s in data["images"]]
            phi = make_hom(domain, codomain, tuple(images))  # re-verifies
            gens = [element_from_str(domain, s) for s in data["open"]]
            cofs = [element_from_str(codomain, s) for s in data["cofactors"]]
            # cofactors align with the normalized pulled-back generators
            norm = list(zar_elt(codomain, [phi(g) for g in gens]).generators)
            if not norm:
                norm = [codomain.zero()]
            if len(norm) != len(cofs):
                return False, "cofactor count does not match the open"
            total = codomain.zero()
            for c, g in zip(cofs, norm):
                total = total + c * g
            ok = total == codomain.one()
            return ok, "hom well-defined and membership certificate checks"
        return False, f"unknown claim {claim!r}"
    except (ZkitError, KeyError, ValueError, TypeError) as exc:
        return False, f"verification error: {exc}"
