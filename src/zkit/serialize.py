"""JSON serialization for rings, elements and certificates.

Certificates embed their ring description and all elements as text, so
a report is self-contained: the verify command can rebuild everything
and re-check the claimed identities by plain ring arithmetic, with no
access to the run that produced them.

Certificate elements and relations are written in one canonical
language, the one element_to_str prints from payload terms: a sum of
monomials in descending term order with no repeated or zero terms, such
as 6 * x^2 - 5/3 or -(3 * x^2) + y.  Coefficients are written as the
payload holds them (any integer over Z, [0, n) over Z/n, [1, p) over Fp,
lowest terms over Q), and over a quotient ring no monomial is divisible
by a leading monomial of the relation basis.  element_from_str accepts
exactly that language and rejects any other text with InvalidWitness
before any arithmetic.

Scripts are read by the general parser (dsl) and evaluated by
eval_element_expr into a term dict {exponent tuple: coefficient}; Z and
Z/n are the case with no variables, whose one monomial is ().
ring.canonical turns the dict into a payload once, at the end.  In
between, sums are never reduced.  A product, and each step of
square-and-multiply, is reduced modulo the relations only when the ring
has relations, and its coefficients modulo the characteristic when that
is not 0 (Z/n and Fp), which keeps every intermediate bounded.  Normal
forms are unique, so the payload is the one that reducing at every
operation would give.  Integer coefficients over Q stay ints until
canonical runs.
"""
from __future__ import annotations

import re
from fractions import Fraction as _Q
from functools import partial
from operator import add, le, sub

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
            "relations": [_terms_to_str(r, ring.variables)
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

def _terms_to_str(terms, variables) -> str:
    """The canonical text (module docstring) of (exponent tuple,
    coefficient) pairs in descending term order."""
    parts = []
    for mono, c in terms:
        num, den = c.numerator, c.denominator  # an int is num/1
        neg = num < 0
        if neg:
            num = -num
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(variables, mono) if e]
        if den != 1:
            factors.insert(0, f"{num}/{den}")
        elif num != 1 or not factors:
            factors.insert(0, str(num))
        body = " * ".join(factors)
        if parts:
            parts.append(f" - {body}" if neg else f" + {body}")
        elif neg:
            parts.append(f"-({body})" if len(factors) > 1 else f"-{body}")
        else:
            parts.append(body)
    return "".join(parts) or "0"


def element_to_str(e: RingElement) -> str:
    ring = e.ring
    return _terms_to_str(ring.terms(e.payload), ring.variables)


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
            # the left spine of a chain a + b + ... + z is walked in a
            # loop (it is as long as the input), innermost operation first
            spine = []
            while type(node) is dsl.BinOp:
                spine.append(node)
                node = node.left
            a = self.read(node)
            while spine:
                node = spine.pop()
                op = node.op
                b = self.read(node.right)
                if op == "*":
                    a = self.mul(a, b)
                elif op == "+" or op == "-":
                    a = self.merge(a, b, add if op == "+" else sub)
                else:
                    a = self.leaf_terms(node)
            return a
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


# One factor of a canonical text with what joins it to the text before
# it: nothing, "-" or "-(" at the start, " * " inside a term, and " + "
# or " - " between terms; then a coefficient, or a variable with its
# exponent, and the ")" that may close a first term.  The scan takes
# more than the language: a ")" anywhere, variables in any order, any
# exponent, coefficient or term order, repeated and zero terms.  The
# payload must print back to the text, and that rejects all of these.
_FACTOR = re.compile(r"(-\(?| [-+*] |)(?:([0-9]+)(?:/([0-9]+))?"
                     r"|([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+))?)\)?")


def _read_terms(ring, text: str):
    """The term dict text spells over ring, or None when it is not a
    signed sum of products of a coefficient and variables."""
    variables = ring.variables
    terms = []  # (coefficient, exponents) per term, in text order
    pos = 0
    for m in _FACTOR.finditer(text):
        if m.start() != pos:
            return None
        pos = m.end()
        join, num, den, name, power = m.groups()
        if join == " * ":
            if not terms or name is None:  # a coefficient must come first
                return None
        else:
            # a sign or nothing opens the text, " + " or " - " a later term
            if (len(join) == 3) != bool(terms):
                return None
            coeff = -1 if "-" in join else 1
            if den is not None:
                if not (ring.is_q_algebra and int(den)):
                    return None
                coeff *= _Q(int(num), int(den))
            elif num is not None:
                coeff *= int(num)
            exps = [0] * len(variables)
            terms.append((coeff, exps))
            if name is None:
                continue
        try:
            k = variables.index(name)
        except ValueError:  # not a variable of ring
            return None
        exps[k] += int(power) if power is not None else 1
    if pos != len(text) or not terms:
        return None
    return {tuple(exps): c for c, exps in terms if c}


def element_from_str(ring, text: str) -> RingElement:
    """Read an element as a certificate writes it: exactly the text the
    canonical printer gives (module docstring), else InvalidWitness.

    Nothing is expanded or reduced, so no certificate can make reading
    cost much more than its length: a power of a number or of a sum
    (3^3000000 is 9 characters), a product of sums ((x0 + 1)*...*(x15 +
    1) is 149 characters and 65536 terms) and a huge power of a variable
    in a quotient ring are refused as written.
    """
    try:
        terms = _read_terms(ring, text) if type(text) is str else None
    except ValueError:  # an integer past int()'s digit limit
        terms = None
    if terms is not None:
        leads = ring.leading_monomials
        if not (leads and any(all(map(le, lm, m))
                              for m in terms for lm in leads)):
            payload = ring.canonical(terms)
            if _terms_to_str(ring.terms(payload), ring.variables) == text:
                return RingElement(ring, payload)
    raise InvalidWitness(f"{str(text)[:40]!r} is not in canonical form")


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


def _lists(data: dict, *keys) -> list:
    """The lists data holds under keys, each as long as the first; every
    certificate checks this before it reads any element."""
    lists = [data[key] for key in keys]
    for key, value in zip(keys, lists):
        if type(value) is not list:
            raise InvalidWitness(f"{key} is not a list")
        if len(value) != len(lists[0]):
            raise InvalidWitness(f"{len(value)} {key} for "
                                 f"{len(lists[0])} {keys[0]}")
    return lists


def _read(ring, texts) -> list:
    return [element_from_str(ring, s) for s in texts]


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
    if type(data) is not dict:
        return False, "the certificate is not an object"
    try:
        claim = data.get("claim")
        if claim in ("bezout", "bezout-power"):
            gens, cofs = _lists(data, "generators", "cofactors")
            ring = ring_from_json(data["ring"])
            ok = BezoutCertificate(tuple(_read(ring, gens)),
                                   tuple(_read(ring, cofs))).verify()
            return ok, "sum(cofactor*generator) == 1" if ok else "sum != 1"
        if claim in ("membership", "radical-membership"):
            gens, cofs = _lists(data, "generators", "cofactors")
            ring = ring_from_json(data["ring"])
            a = element_from_str(ring, data["element"])
            total = ring.zero()
            for c, g in zip(_read(ring, cofs), _read(ring, gens)):
                total = total + c * g
            if claim == "membership":
                return total == a, f"sum == {data['element']}"
            k = data["exponent"]
            cap = current_limits().max_exponent
            if type(k) is not int or not 1 <= k <= cap:
                return False, f"exponent {k!r} is not an integer in [1, {cap}]"
            return total == a ** k, f"sum == element^{k}"
        if claim == "glue":
            cover, cover_cofs, family = _lists(data, "cover",
                                               "cover_cofactors", "family")
            cap = current_limits().max_exponent
            for frdata in family:
                k = frdata["exp"]
                if type(k) is not int or not 0 <= k <= cap:
                    return False, (f"family exponent {k!r} is not an "
                                   f"integer in [0, {cap}]")
            ring = ring_from_json(data["ring"])
            cover = _read(ring, cover)
            if not BezoutCertificate(tuple(cover),
                                     tuple(_read(ring, cover_cofs))).verify():
                return False, "cover certificate failed"
            glued = element_from_str(ring, data["glued"])
            fracs = [Fraction(ring, f, element_from_str(ring, frdata["num"]),
                              frdata["exp"])
                     for f, frdata in zip(cover, family)]
            for fr in fracs:
                if not frac_eq(Fraction(ring, fr.f, glued), fr):
                    return False, f"restriction to R[1/({fr.f})] differs"
            fault = _pair_exponents_fault(ring, fracs, data["pair_exponents"])
            if fault is not None:
                return False, fault
            return True, "cover verifies and all restrictions match"
        if claim == "point":
            from .lattice import zar_elt
            images, gens, cofs = (_lists(data, key)[0] for key in
                                  ("images", "open", "cofactors"))
            domain = ring_from_json(data["domain"])
            if len(images) != len(domain.variables):
                return False, "image count does not match the domain"
            codomain = ring_from_json(data["codomain"])
            phi = make_hom(domain, codomain,  # re-verifies
                           tuple(_read(codomain, images)))
            # cofactors align with the normalized pulled-back generators
            norm = list(zar_elt(codomain, [phi(g) for g in
                                           _read(domain, gens)]).generators)
            if not norm:
                norm = [codomain.zero()]
            if len(norm) != len(cofs):
                return False, "cofactor count does not match the open"
            total = codomain.zero()
            for c, g in zip(_read(codomain, cofs), norm):
                total = total + c * g
            ok = total == codomain.one()
            return ok, "hom well-defined and membership certificate checks"
        return False, f"unknown claim {claim!r}"
    except (ZkitError, KeyError, ValueError, TypeError) as exc:
        return False, f"verification error: {exc}"
