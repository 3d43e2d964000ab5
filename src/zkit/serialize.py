"""JSON serialization for rings, elements and certificates.

Certificates embed their ring description and all elements as text, so
a report is self-contained: the verify command can rebuild everything
and re-check the claimed identities by plain ring arithmetic, with no
access to the run that produced them.

Certificate elements and relations are written in the canonical text
that str() prints for every element (see rings): a sum of monomials in
descending term order, such as 6 * x^2 - 5/3 or -(3 * x^2) + y.
element_from_str accepts exactly that language and rejects any other
text with InvalidWitness before any arithmetic.  verify_certificate
reads every JSON object of a certificate (the certificate, its rings, a
base and each glue family entry) through _Fields, by one rule: an
object has exactly the keys that the claim's reading code reads, each
value has the JSON type that code names, lists that are zipped together
are equally long, and the whole shape is read before any element text.
The reading code is the format; there is no second table.

Scripts are read by the general parser (dsl) and evaluated by
eval_element_expr into a term dict {exponent tuple: coefficient}; Z and
Z/n are the case with no variables, whose one monomial is ().
ring.canonical turns the dict into a payload once, at the end.  In
between, sums are never reduced.  A * chain is read as one running
term, a coefficient and a list of exponents: numbers, negated factors
and variables fold into it, and so do powers of variables outside a
quotient.  Any other factor (a sum, a bound name, a power in a quotient
or of anything but a variable) is read as a term dict, and dicts are
multiplied.  Each product of dicts, and the running term once at the
end of the chain, is reduced modulo the relations when the ring has
relations, and its coefficients modulo the characteristic when that is
not 0 (Z/n and Fp), which keeps every intermediate bounded.  In a
quotient a power of a variable is not folded, since reducing x^k as
one term takes about k steps: like every power but that of one term
outside a quotient (its coefficient and exponents raised, a number's
digits checked first), it goes to rings._power, which squares, reduces
each product, and refuses each product past Limits.max_assignments term
pairs weighted by coefficient size.  Normal forms are unique, so the
payload is the one that reducing at every operation would give.  Over
Q, canonical gives each coefficient its one form (an int or a proper
Fraction).

verify decides the powers that a certificate claims, a^k of a radical
claim and (glued f^e - num) f^k == 0 of a glue family entry
(gluing.restricts), by rings._is_times_power: with none formed over a
free polynomial ring, and under the term-pair cap over every other ring.
A glue claim builds no R[1/f]; the overlaps need no check of their own.
"""
from __future__ import annotations

from fractions import Fraction as _Q
from functools import partial
from itertools import chain
from operator import add, le, sub

from . import dsl
from .errors import (InvalidWitness, NonInvertibleDenominator, TypeMismatch,
                     ZkitError)
from .gluing import restricts
from .ideals import BezoutCertificate, saturation_cap
from .lattice import zar_elt
from .limits import current_limits
from .localization import Fraction
from .poly import PrimeField, Rationals
from .rings import (_NAME, IntegerRing, ResidueRing, RingElement,
                    _check_digits, _is_times_power, _power, _weight, make_hom,
                    normalize, polynomial_ring, quotient_by, read_terms,
                    terms_to_str)


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
            "relations": [terms_to_str(r, ring.variables)
                          for r in ring.relations],
            "order": ring.order}


def ring_from_json(data: dict, at: str = "ring."):
    """The ring of a JSON description in the shape ring_to_json writes,
    read by _Fields; the paths a detail names start with at."""
    ring = _Fields(data, at)
    kind = ring.get("kind", str)
    if kind in ("Z", "Zmod"):
        n = ring.get("n", int) if kind == "Zmod" else None
        ring.done()
        return IntegerRing() if n is None else ResidueRing(n)
    if kind != "polyquot":
        raise InvalidWitness(f"{at}kind {kind!r} is not a ring kind")
    base = ring.get("base")
    if base != "Q":
        fp = _Fields(base, at + "base.")
        base = fp.get("Fp", int)
        fp.done()
    names = ring.get("variables", [str])
    if not all(map(_NAME.fullmatch, names)):
        raise InvalidWitness(f"{at}variables is not a list of names")
    relations = ring.get("relations", [str])
    free = polynomial_ring(Rationals() if base == "Q" else PrimeField(base),
                           names, ring.get("order", str))
    ring.done()
    return quotient_by(free, [element_from_str(free, s) for s in relations])


# ---------------------------------------------------------------------------
# elements as script expressions

def _not_an_element(ring, node):
    """The leaf resolver when a caller names none, as for the relations
    of a ring declaration: their only names are ring variables, so every
    other leaf is an error."""
    if isinstance(node, dsl.NameRef):
        raise TypeMismatch(f"unknown variable {node.name!r} in {ring}")
    if isinstance(node, dsl.Chain):
        raise TypeMismatch(f"operator {node.ops[0]!r} is not a ring operation")
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
        if not k:
            return {self.const: 1}
        if len(d) == 1 and self.reduce is None:
            ((m, c),) = d.items()
            if self.char:
                c = pow(c, k, self.char)
            else:
                # refused before the C-level power, which no timeout stops
                _check_digits(c, k)
                c = c ** k
            return {tuple([e * k for e in m]): c} if c else {}
        return _power(d, k, self.mul, lambda t: _weight(t.items()))

    def leaf_terms(self, node):
        ring = self.ring
        return dict(ring.terms(normalize(ring, self.leaf(node)).payload))

    def number(self, node):
        """The value of an IntLit or a RatLit."""
        if type(node) is dsl.IntLit:
            return node.value
        if not self.ring.is_q_algebra:
            raise TypeMismatch("rational literals need a Q coefficient base")
        if node.den == 0:
            raise NonInvertibleDenominator(
                f"{node.num}/0 has a zero denominator")
        return _Q(node.num, node.den)

    def product(self, args):
        """The product of the factors of a * chain, read as one term: a
        coefficient and exponents into which numbers, signs, variables
        and, outside a quotient, powers of variables fold.  Every other
        factor is read as a term dict and multiplied by mul."""
        units, fold_powers = self.units, self.reduce is None
        c, e, terms = 1, list(self.const), None
        for arg in args:
            kind = type(arg)
            while kind is dsl.Neg:
                c, arg = -c, arg.arg
                kind = type(arg)
            if kind is dsl.IntLit or kind is dsl.RatLit:
                c *= self.number(arg)
                continue
            mono = None
            if kind is dsl.NameRef:
                mono, k = units.get(arg.name), 1
            elif (kind is dsl.Pow and fold_powers
                  and type(arg.base) is dsl.NameRef):
                mono, k = units.get(arg.base.name), arg.exp
            if mono is not None:
                e[mono.index(1)] += k
            else:
                d = self.read(arg)
                terms = d if terms is None else self.mul(terms, d)
        if self.char:
            c %= self.char
        if not c:
            return {}
        term = {tuple(e): c}
        if terms is not None:
            return self.mul(terms, term)
        return dict(self.reduce(term)) if self.reduce is not None else term

    def read(self, node):
        kind = type(node)
        if kind is dsl.Chain:
            args = node.args
            if node.ops[0] == "*":
                return self.product(args)
            a = self.read(args[0])
            for op, arg in zip(node.ops, args[1:]):
                b = self.read(arg)
                if op == "+" or op == "-":
                    a = self.merge(a, b, add if op == "+" else sub)
                else:  # | or &, after its first two operands
                    return self.leaf_terms(node)
            return a
        if kind is dsl.Pow:
            return self.power(self.read(node.base), node.exp)
        if kind is dsl.NameRef:
            mono = self.units.get(node.name)
            return {mono: 1} if mono is not None else self.leaf_terms(node)
        if kind is dsl.IntLit or kind is dsl.RatLit:
            c = self.number(node)
            return {self.const: c} if c else {}
        if kind is dsl.Neg:
            return {m: -c for m, c in self.read(node.arg).items()}
        return self.leaf_terms(node)


def eval_element_expr(ring, node, leaf=None) -> RingElement:
    """Evaluate an element expression over ring.

    leaf(node) gives the RingElement of ring that a node other than
    element arithmetic stands for: a name that is not a variable of
    ring, D(...), or a chain of | or & (whose first two operands are
    read first).  Without a leaf such a node is a TypeMismatch.
    """
    if leaf is None:
        leaf = partial(_not_an_element, ring)
    return RingElement(ring, ring.canonical(_TermReader(ring, leaf).read(node)))


def element_from_str(ring, text: str) -> RingElement:
    """Read an element as a certificate writes it: exactly the text str()
    prints for it (rings module docstring), else InvalidWitness.

    Nothing is expanded or reduced, so no certificate can make reading
    cost much more than its length: a power of a number or of a sum
    (3^3000000 is 9 characters), a product of sums ((x0 + 1)*...*(x15 +
    1) is 149 characters and 65536 terms) and a huge power of a variable
    in a quotient ring are refused as written.
    """
    try:
        terms = read_terms(ring, text)
    except (TypeError, ValueError):  # not a text, or an integer past
        terms = None                 # int()'s digit limit
    if terms is not None:
        leads = ring.leading_monomials
        if not (leads and any(all(map(le, lm, m))
                              for m in terms for lm in leads)):
            e = RingElement(ring, ring.canonical(terms))
            if str(e) == text:
                return e
    raise InvalidWitness(f"{str(text)[:40]!r} is not in canonical form")


# ---------------------------------------------------------------------------
# certificates

def bezout_to_json(cert: BezoutCertificate) -> dict:
    ring = cert.ring
    return {"claim": "bezout",
            "ring": ring_to_json(ring) if ring is not None else None,
            "generators": [str(g) for g in cert.generators],
            "cofactors": [str(c) for c in cert.cofactors]}


def membership_to_json(ring, element, generators, cofactors,
                       exponent: int) -> dict:
    return {"claim": "radical-membership",
            "ring": ring_to_json(ring),
            "element": str(element),
            "generators": [str(g) for g in generators],
            "cofactors": [str(c) for c in cofactors],
            "exponent": exponent}


def glue_to_json(cover, fractions, exponents, glued) -> dict:
    return {"claim": "glue",
            "ring": ring_to_json(cover.ring),
            "cover": [str(f) for f in cover.elements],
            "cover_cofactors": [str(c) for c in cover.certificate.cofactors],
            "family": [{"num": str(x.num), "den": str(x.f), "exp": x.exp,
                        "k": k} for x, k in zip(fractions, exponents)],
            "glued": str(glued)}


def point_to_json(pt) -> dict:
    phi = pt.hom
    return {"claim": "point",
            "domain": ring_to_json(phi.domain),
            "codomain": ring_to_json(phi.codomain),
            "images": [str(i) for i in phi.generator_images],
            "open": [str(g) for g in pt.open.generators],
            "cofactors": [str(c) for c in pt.witness.cofactors]}


# the names of the JSON types a reader asks for, by the Python type that
# json.loads gives each; types are compared exactly, so a boolean is not
# an integer
_JSON = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _misfit(value, kind):
    """None when value has the JSON type kind (dict, list, str or int,
    or [k] for a list of items of type k), else the rest of a detail
    that starts with the path of value."""
    if not isinstance(kind, list):
        return None if type(value) is kind else f" is not {_JSON[kind]}"
    if type(value) is not list:
        return " is not a list"
    # the items, or the items of items that are all lists, at once
    item, items = kind[0], value
    if isinstance(item, list) and {*map(type, value)} <= {list}:
        item, items = item[0], [*chain.from_iterable(value)]
    if isinstance(item, list) or not {*map(type, items)} <= {item}:
        for i, x in enumerate(value):
            if (fault := _misfit(x, kind[0])) is not None:
                return f"[{i}]{fault}"
    return None


class _Fields:
    """One JSON object of a certificate, read a key at a time.  Each read
    names a key and its JSON type, and done() refuses any key that no
    read named.  A failed read raises InvalidWitness, whose detail names
    the path of the value: at (such as "ring." or "family[1].") + key."""

    __slots__ = ("data", "at", "read")

    def __init__(self, data, at: str = ""):
        if type(data) is not dict:
            raise InvalidWitness(f"{at[:-1] or 'the certificate'} is not "
                                 "an object")
        self.data, self.at, self.read = data, at, {}

    def get(self, key, kind=None, like=None):
        """The value under key, of the JSON type kind (any when None);
        given like, a list as long as the one read under like."""
        try:
            value = self.read[key] = self.data[key]
        except KeyError:
            raise InvalidWitness(f"{self.at}{key} is missing") from None
        if kind is not None and type(value) is not kind and (
                fault := _misfit(value, kind)) is not None:
            raise InvalidWitness(f"{self.at}{key}{fault}")
        if like is not None and len(value) != len(self.read[like]):
            raise InvalidWitness(f"{len(value)} {self.at}{key} for "
                                 f"{len(self.read[like])} {self.at}{like}")
        return value

    def exponent(self, key, lo: int, hi: int, noun: str) -> int:
        """The integer under key, in [lo, hi]; noun names it in a detail."""
        k = self.get(key)
        if type(k) is not int or not lo <= k <= hi:
            raise InvalidWitness(f"{noun} {k!r} at {self.at}{key} is not "
                                 f"an integer in [{lo}, {hi}]")
        return k

    def done(self) -> None:
        if len(self.read) != len(self.data):
            extra = min(self.data.keys() - self.read.keys())
            raise InvalidWitness(f"unexpected key {self.at}{extra}")

    def rings(self, reader, *keys) -> list:
        """The rings under keys, read by reader once this object is done."""
        data = [self.get(key) for key in keys]
        self.done()
        return [reader.ring(ring, f"{self.at}{key}.")
                for ring, key in zip(data, keys)]


class CertificateReader:
    """The rings and elements of the certificates that one run verifies.

    A ring is interned by the repr of its JSON, which tells JSON values
    apart, so its cached properties (relation_basis) are computed once
    per distinct ring, and each element text is read once per ring.  A
    failed read is not kept: asked for again, it fails again with the
    same detail.  The interp keeps one reader per run_script call, so
    nothing outlives the run.
    """

    def __init__(self):
        self._rings = {}     # repr of a ring's JSON -> ring
        self._elements = {}  # id of a ring in _rings -> {text: element}

    def ring(self, data, at: str = "ring."):
        key = repr(data)
        if (ring := self._rings.get(key)) is None:
            ring = self._rings[key] = ring_from_json(data, at)
            self._elements[id(ring)] = {}
        return ring

    def element(self, ring, text) -> RingElement:
        memo = self._elements.get(id(ring))
        if memo is None or type(text) is not str:
            return element_from_str(ring, text)
        e = memo.get(text)
        if e is None:
            e = memo[text] = element_from_str(ring, text)
        return e

    def elements(self, ring, texts) -> tuple:
        return tuple([self.element(ring, s) for s in texts])


def verify_certificate(data: dict, reader: CertificateReader = None) -> tuple:
    """Re-verify a certificate, as json.loads returns it; returns (ok,
    detail).  Each claim reads the whole certificate through _Fields
    before it reads any element text.  Rings and elements are read
    through reader, which the certificates of one run share.
    """
    if reader is None:
        reader = CertificateReader()
    read = reader.elements
    try:
        cert = _Fields(data)
        claim = cert.get("claim", str)
        if claim == "bezout":
            gens = cert.get("generators", [str])
            cofs = cert.get("cofactors", [str], like="generators")
            (ring,) = cert.rings(reader, "ring")
            ok = BezoutCertificate(read(ring, gens), read(ring, cofs)).verify()
            return ok, "sum(cofactor*generator) == 1" if ok else "sum != 1"
        if claim == "radical-membership":
            gens = cert.get("generators", [str])
            cofs = cert.get("cofactors", [str], like="generators")
            a = cert.get("element", str)
            k = cert.exponent("exponent", 1, current_limits().max_exponent,
                              "radical exponent")
            (ring,) = cert.rings(reader, "ring")
            a = reader.element(ring, a)
            total = ring.zero()
            for c, g in zip(read(ring, cofs), read(ring, gens)):
                total = total + c * g
            ok = _is_times_power(total, ring.one(), a, k)
            return ok, f"sum == element^{k}"
        if claim == "glue":
            cover = cert.get("cover", [str])
            cover_cofs = cert.get("cover_cofactors", [str], like="cover")
            family = cert.get("family", list, like="cover")
            glued = cert.get("glued", str)
            ring = cert.get("ring")
            cert.done()
            cap = current_limits().max_exponent
            entries = []
            for i, entry in enumerate(family):
                entry = _Fields(entry, f"family[{i}].")
                num, den = entry.get("num", str), entry.get("den", str)
                exp = entry.exponent("exp", 0, cap, "family exponent")
                entry.get("k", int)  # its cap needs the ring, read below
                entry.done()
                if den != cover[i]:
                    return False, (f"family den {den!r} is not cover "
                                   f"element {i}")
                entries.append((num, exp, entry))
            ring = reader.ring(ring)
            cover = read(ring, cover)
            if not BezoutCertificate(cover, read(ring, cover_cofs)).verify():
                return False, "cover certificate failed"
            glued = reader.element(ring, glued)
            cap = saturation_cap(ring)[0]
            for i, (f, (num, exp, entry)) in enumerate(zip(cover, entries)):
                k = entry.exponent("k", 0, cap, "restriction exponent")
                x = Fraction(ring, f, reader.element(ring, num), exp)
                if not restricts(glued, x, k):
                    return False, (f"restriction to R[1/({f})] differs "
                                   f"with family[{i}].k = {k}")
            return True, "cover verifies and all restrictions match"
        if claim == "point":
            images = cert.get("images", [str])
            gens = cert.get("open", [str])
            cofs = cert.get("cofactors", [str])
            domain, codomain = cert.rings(reader, "domain", "codomain")
            # make_hom checks the relations; the cofactors align with the
            # normalized pulled-back generators
            phi = make_hom(domain, codomain, read(codomain, images))
            norm = zar_elt(codomain, [phi(g) for g in
                                      read(domain, gens)]).generators
            ok = BezoutCertificate(norm or (codomain.zero(),),
                                   read(codomain, cofs)).verify()
            return ok, "hom well-defined and membership certificate checks"
        return False, f"unknown claim {claim!r}"
    except (ZkitError, ValueError) as exc:
        return False, f"verification error: {exc}"
