"""JSON serialization for rings, elements and certificates.

Certificates embed their ring description and all elements as script
expressions, so a report is self-contained: the verify command can
rebuild everything and re-check the claimed identities by plain ring
arithmetic, with no access to the session that produced them.

Element expressions, in certificates and in scripts alike, are evaluated
by one reader (eval_element_expr) into a term dict {exponent tuple:
coefficient}; Z and Z/n are the case with no variables, whose one
monomial is ().  ring.canonical turns the dict into a payload once, at
the end.  In between, sums are never reduced.  A product, and each step
of square-and-multiply, is reduced modulo the relations only when the
ring has relations, and its coefficients modulo the characteristic when
that is not 0 (Z/n and Fp), which keeps every intermediate bounded.
Normal forms are unique, so the payload is the one that reducing at
every operation would give.  Integer coefficients over Q stay ints
until canonical runs.

A certificate writes ^ only on a variable name, and element_from_str,
which reads every element and relation of a certificate, rejects any
other power before evaluating anything.  A power of a variable is one
monomial in a free ring and square-and-multiply with reduction in a
quotient, so x^1000000000000 is cheap in both.
"""
from __future__ import annotations

from fractions import Fraction as _Q
from functools import partial
from operator import add, sub

from . import dsl
from .errors import (InvalidWitness, NonInvertibleDenominator, TypeMismatch,
                     ZkitError)
from .gluing import pair_differences
from .ideals import BezoutCertificate
from .limits import current_limits
from .localization import Fraction, frac_eq
from .poly import PrimeField, Rationals
from .rings import (IntegerRing, ResidueRing, RingElement, make_hom,
                    normalize, polynomial_ring, quotient_by)


# ---------------------------------------------------------------------------
# rings

def ring_to_json(ring) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "Z"}
    if isinstance(ring, ResidueRing):
        return {"kind": "Zmod", "n": ring.modulus}
    base = "Q" if ring.is_q_algebra else {"Fp": ring.base.p}
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
        return quotient_by(free, [element_from_str(free, s)
                                  for s in data["relations"]])
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


def _not_an_element(ring, node):
    """The leaf resolver when a caller names none, as for certificates:
    their only names are ring variables, so every other leaf is an
    error."""
    if isinstance(node, dsl.NameRef):
        raise TypeMismatch(f"unknown variable {node.name!r} in {ring}")
    if isinstance(node, dsl.BinOp):
        raise TypeMismatch(f"operator {node.op!r} is not a ring operation")
    raise TypeMismatch(f"{node!r} is not a ring element expression")


class _TermReader:
    """Reads element expressions over one ring into term dicts
    {exponent tuple: coefficient} (see the module docstring)."""

    __slots__ = ("ring", "leaf", "units", "const", "char", "reduce")

    def __init__(self, ring, leaf):
        self.ring = ring
        self.leaf = leaf
        self.units = ring.unit_monomials
        self.const = (0,) * len(ring.variables)
        self.char = ring.characteristic
        self.reduce = ring.canonical if ring.relations else None

    def mul(self, a, b):
        out = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(add, ma, mb))
                out[m] = get(m, 0) + ca * cb
        if self.reduce is not None:
            return dict(self.reduce(out))
        char = self.char
        if char:
            return {m: r for m, c in out.items() if (r := c % char)}
        return {m: c for m, c in out.items() if c}

    @staticmethod
    def merge(a, b, op):
        """a op b for op add or sub, in place in a."""
        get = a.get
        for m, c in b.items():
            s = op(get(m, 0), c)
            if s:
                a[m] = s
            else:
                del a[m]  # no dict holds a zero, so m was in a
        return a

    def power(self, d, k):
        if len(d) == 1 and self.reduce is None:
            ((m, c),) = d.items()
            c = pow(c, k, self.char) if self.char else c ** k
            return {tuple([e * k for e in m]): c} if c else {}
        result = None
        while k:
            if k & 1:
                result = d if result is None else self.mul(result, d)
            k >>= 1
            if k:
                d = self.mul(d, d)
        return {self.const: 1} if result is None else result

    def leaf_terms(self, node):
        ring = self.ring
        return dict(ring.terms(normalize(ring, self.leaf(node)).payload))

    def read(self, node):
        kind = type(node)
        if kind is dsl.BinOp:
            op = node.op
            a = self.read(node.left)
            b = self.read(node.right)
            if op == "*":
                return self.mul(a, b)
            if op == "+" or op == "-":
                return self.merge(a, b, add if op == "+" else sub)
            return self.leaf_terms(node)
        if kind is dsl.Pow:
            return self.power(self.read(node.base), node.exp)
        if kind is dsl.NameRef:
            mono = self.units.get(node.name)
            return {mono: 1} if mono is not None else self.leaf_terms(node)
        if kind is dsl.IntLit:
            return {self.const: node.value} if node.value else {}
        if kind is dsl.Neg:
            return {m: -c for m, c in self.read(node.arg).items()}
        if kind is dsl.RatLit:
            if not self.ring.is_q_algebra:
                raise TypeMismatch("rational literals need a Q coefficient base")
            if node.den == 0:
                raise NonInvertibleDenominator(
                    f"{node.num}/0 has a zero denominator")
            return {self.const: _Q(node.num, node.den)} if node.num else {}
        return self.leaf_terms(node)


def eval_element_expr(ring, node, leaf=None) -> RingElement:
    """Evaluate an element expression over ring.

    leaf(node) gives the RingElement of ring that a node other than
    element arithmetic stands for: a name that is not a variable of
    ring, D(...), or | and & (whose operands are read first).  Without
    a leaf such a node is a TypeMismatch.
    """
    if leaf is None:
        leaf = partial(_not_an_element, ring)
    return RingElement(ring, ring.canonical(_TermReader(ring, leaf).read(node)))


def _shape_fault(node):
    """Why node is not shaped as the canonical printer writes elements,
    or None.  The printer writes a sum of monomials, so every ^ (outside
    D(...)) has a variable name as its base, and no * has a sum (+ or -)
    under both of its operands.

    One post-order walk without recursion: a binary node is followed on
    the stack by its operator, which combines its operands' entries in
    `sums` (whether a sum lies under each) into its own.
    """
    todo, sums = [node], []
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is str:
            right = sums.pop()
            if node == "*":
                if right and sums[-1]:
                    return "multiplies two sums"
                sums[-1] = sums[-1] or right
            elif node == "+" or node == "-":
                sums[-1] = True
            else:
                sums[-1] = sums[-1] or right
        elif kind is dsl.BinOp:
            todo.append(node.op)
            todo.append(node.right)
            todo.append(node.left)
        elif kind is dsl.Neg:
            todo.append(node.arg)
        elif kind is dsl.Pow and type(node.base) is not dsl.NameRef:
            return "raises something other than a variable to a power"
        else:
            sums.append(False)
    return None


def element_from_str(ring, text: str) -> RingElement:
    """Read an element as a certificate writes it.

    Anything the canonical printer would not write is rejected before
    anything is evaluated (_shape_fault): the cost of a power of a sum or
    of a number has no bound that the certificate's size sets
    (3^3000000 is a 9-character string, and no statement timeout can
    interrupt one bigint product), and a product of sums expands to
    exponentially many terms ((x0 + 1)*...*(x15 + 1) is 149 characters
    and 65536 terms).
    """
    node = dsl.parse_expression(text)
    fault = _shape_fault(node)
    if fault is not None:
        raise InvalidWitness(f"{text[:40]!r} {fault}")
    return eval_element_expr(ring, node)


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
            "family": [{"num": element_to_str(x.num),
                        "den": element_to_str(x.f), "exp": x.exp}
                       for x in fractions],
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


def _pair_exponents_fault(ring, fracs, pairs):
    """Why pairs is not the pair_exponents list of the family fracs, or
    None: one [i, j, k] for each pair i < j, in the order of
    gluing.pair_differences, where (f_i f_j)^k kills the difference."""
    count = len(fracs) * (len(fracs) - 1) // 2
    if type(pairs) is not list or len(pairs) != count:
        return f"pair_exponents must list the {count} pairs i < j"
    cap = max(current_limits().max_exponent, ring.saturation_bound)
    for entry, ((i, j), diff) in zip(pairs, pair_differences(fracs)):
        if type(entry) is not list or entry[:2] != [i, j] or len(entry) != 3:
            return f"pair_exponents entry {entry!r} is not [{i}, {j}, k]"
        k = entry[2]
        if type(k) is not int or not 0 <= k <= cap:
            return f"pair exponent {k!r} is not an integer in [0, {cap}]"
        if k:
            diff = diff * (fracs[i].f * fracs[j].f) ** k
        if not diff.is_zero:
            return f"pair ({i}, {j}) does not vanish with exponent {k}"
    return None


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
            family = data["family"]
            if len(family) != len(cover_elts):
                return False, "family size does not match the cover"
            cap = current_limits().max_exponent
            for frdata in family:
                k = frdata["exp"]
                if type(k) is not int or not 0 <= k <= cap:
                    return False, (f"family exponent {k!r} is not an "
                                   f"integer in [0, {cap}]")
            glued = element_from_str(ring, data["glued"])
            fracs = [Fraction(ring, f, element_from_str(ring, frdata["num"]),
                              frdata["exp"])
                     for f, frdata in zip(cover_elts, family)]
            for fr in fracs:
                if not frac_eq(Fraction(ring, fr.f, glued), fr):
                    return False, f"restriction to R[1/({fr.f})] differs"
            fault = _pair_exponents_fault(ring, fracs, data["pair_exponents"])
            if fault is not None:
                return False, fault
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
