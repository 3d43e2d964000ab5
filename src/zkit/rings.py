"""The tower of supported computable commutative rings.

Three kinds of ring are supported: the integers, residue rings Z/n, and
quotients of polynomial rings over Q or a prime field by a finitely
generated ideal.  Every element is kept in a canonical form (integers,
residues in [0, n), or the normal form modulo the reduced Groebner basis
of the defining relations), so ring equality is plain payload equality.

Homomorphisms are finite data: one codomain element per domain variable.
Construction verifies well-definedness (every relation maps to zero, and
the characteristic is compatible) and records the checked images.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as _Q
from functools import cached_property

from . import poly
from .errors import (CodomainNotFinite, InvalidRing, NotWellDefined,
                     RingMismatch, UnknownVariable)
from .poly import Poly, PolyContext, PrimeField, Rationals


# ---------------------------------------------------------------------------
# ring descriptions

@dataclass(frozen=True)
class IntegerRing:
    """The ring of integers."""

    def __str__(self):
        return "Z"

    def zero(self):
        return RingElement(self, 0)

    def one(self):
        return RingElement(self, 1)

    def element(self, raw):
        return normalize(self, raw)

    def from_int(self, k: int):
        return RingElement(self, k)


@dataclass(frozen=True)
class ResidueRing:
    """Z/n for a modulus n >= 2."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidRing(f"modulus {self.modulus} is below 2")

    def __str__(self):
        return f"Z/{self.modulus}"

    def zero(self):
        return RingElement(self, 0)

    def one(self):
        return RingElement(self, 1 % self.modulus)

    def element(self, raw):
        return normalize(self, raw)

    def from_int(self, k: int):
        return RingElement(self, k % self.modulus)


@dataclass(frozen=True)
class QuotientRing:
    """base[x1, ..., xn] / <relations>, for base Q or Fp.

    With no variables this is just the base field; with no relations it
    is the free polynomial ring.  Relations are stored as canonical
    free-ring polynomials; their reduced Groebner basis is computed once
    and cached, and every element payload is a normal form modulo it.
    """

    base: Rationals | PrimeField
    variables: tuple = ()
    relations: tuple = ()
    order: str = "grevlex"

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InvalidRing("variable names must be distinct")
        for rel in self.relations:
            for mono, _ in rel:
                if len(mono) != len(self.variables):
                    raise InvalidRing("relation arity does not match variables")

    @cached_property
    def ctx(self) -> PolyContext:
        return PolyContext(self.base, len(self.variables), self.order)

    @cached_property
    def relation_basis(self) -> tuple:
        basis, _ = poly.reduced_groebner(self.ctx, list(self.relations))
        return basis

    @cached_property
    def is_trivial(self) -> bool:
        """True when 1 = 0 here, i.e. the relations generate everything."""
        return any(f and poly.mono_deg(f[0][0]) == 0 for f in self.relation_basis)

    def __str__(self):
        base = str(self.base)
        if not self.variables:
            return base
        vars_part = f"[{','.join(self.variables)}]"
        if not self.relations:
            return base + vars_part
        rels = ", ".join(render_poly(r, self.variables) for r in self.relations)
        return f"{base}{vars_part}/({rels})"

    def zero(self):
        return RingElement(self, ())

    def one(self):
        return normalize(self, 1)

    def element(self, raw):
        return normalize(self, raw)

    def from_int(self, k: int):
        return normalize(self, k)

    def var(self, name: str):
        if name not in self.variables:
            raise UnknownVariable(f"{name} not declared in {self}")
        return normalize(self, poly.var_poly(self.ctx, self.variables.index(name)))

    def gens(self):
        return tuple(self.var(v) for v in self.variables)


RingDesc = object  # IntegerRing | ResidueRing | QuotientRing


def polynomial_ring(base, names, order: str = "grevlex") -> QuotientRing:
    """Free polynomial ring over Q or Fp."""
    return QuotientRing(base, tuple(names), (), order)


def quotient_by(ring: QuotientRing, relations) -> QuotientRing:
    """Quotient a polynomial ring by additional relations (RingElements
    of that ring, or of the underlying free ring)."""
    rels = ring.relations + tuple(r.payload for r in relations if r.payload)
    return QuotientRing(ring.base, ring.variables, rels, ring.order)


def ring_is_trivial(ring) -> bool:
    if isinstance(ring, QuotientRing):
        return ring.is_trivial
    return False  # Z and Z/n (n >= 2) are never trivial


# ---------------------------------------------------------------------------
# elements

@dataclass(frozen=True)
class RingElement:
    """An element in canonical form; equality is payload equality."""

    ring: RingDesc
    payload: int | Poly

    @property
    def is_zero(self) -> bool:
        return self.payload == 0 or self.payload == ()

    def sort_key(self):
        return self.payload if isinstance(self.payload, int) else tuple(
            (m, (c.numerator, c.denominator) if isinstance(c, _Q) else c)
            for m, c in self.payload)

    def __str__(self):
        if isinstance(self.payload, int):
            return str(self.payload)
        return render_poly(self.payload, self.ring.variables)

    def __repr__(self):
        return f"<{self} : {self.ring}>"

    def __add__(self, other):
        return ring_arith("add", self, _coerce(self.ring, other))

    def __radd__(self, other):
        return ring_arith("add", _coerce(self.ring, other), self)

    def __sub__(self, other):
        return ring_arith("sub", self, _coerce(self.ring, other))

    def __rsub__(self, other):
        return ring_arith("sub", _coerce(self.ring, other), self)

    def __mul__(self, other):
        return ring_arith("mul", self, _coerce(self.ring, other))

    def __rmul__(self, other):
        return ring_arith("mul", _coerce(self.ring, other), self)

    def __neg__(self):
        return ring_arith("neg", self, self)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not ring operations")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return self.ring.one() if result is None else result


def _coerce(ring, value):
    if isinstance(value, RingElement):
        return value
    return normalize(ring, value)


def normalize(ring, raw) -> RingElement:
    """Canonical form of a raw element expression; idempotent."""
    if isinstance(raw, RingElement):
        if raw.ring != ring:
            raise RingMismatch(f"element of {raw.ring} used in {ring}")
        return raw
    if isinstance(ring, IntegerRing):
        if isinstance(raw, _Q):
            if raw.denominator != 1:
                raise ValueError(f"{raw} is not an integer")
            raw = raw.numerator
        if not isinstance(raw, int):
            raise TypeError(f"cannot read {raw!r} as an integer")
        return RingElement(ring, raw)
    if isinstance(ring, ResidueRing):
        if isinstance(raw, _Q):
            if raw.denominator != 1:
                raise ValueError(f"{raw} is not an integer")
            raw = raw.numerator
        if not isinstance(raw, int):
            raise TypeError(f"cannot read {raw!r} as a residue")
        return RingElement(ring, raw % ring.modulus)
    if isinstance(ring, QuotientRing):
        ctx = ring.ctx
        if isinstance(raw, (int, _Q)):
            p = poly.const_poly(ctx, raw)
        elif isinstance(raw, dict):
            p = poly.poly_from_dict(ctx, {m: ctx.field.coerce(c)
                                          for m, c in raw.items()})
        elif isinstance(raw, tuple):
            p = poly.poly_from_dict(ctx, dict(raw))
        else:
            raise TypeError(f"cannot read {raw!r} as a polynomial")
        return RingElement(ring, poly.normal_form(ctx, p, ring.relation_basis))
    raise TypeError(f"unknown ring {ring!r}")


def ring_arith(op: str, a: RingElement, b: RingElement) -> RingElement:
    """Canonical add/sub/mul/neg; operands must share a ring."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    ring = a.ring
    if isinstance(ring, IntegerRing):
        x, y = a.payload, b.payload
        val = {"add": x + y, "sub": x - y, "mul": x * y, "neg": -x}[op]
        return RingElement(ring, val)
    if isinstance(ring, ResidueRing):
        n = ring.modulus
        x, y = a.payload, b.payload
        val = {"add": x + y, "sub": x - y, "mul": x * y, "neg": -x}[op]
        return RingElement(ring, val % n)
    ctx = ring.ctx
    if op == "add":
        return RingElement(ring, poly.p_add(ctx, a.payload, b.payload))
    if op == "sub":
        return RingElement(ring, poly.p_sub(ctx, a.payload, b.payload))
    if op == "neg":
        return RingElement(ring, poly.p_neg(ctx, a.payload))
    # products of normal forms need re-reduction; sums do not
    prod = poly.p_mul(ctx, a.payload, b.payload)
    return RingElement(ring, poly.normal_form(ctx, prod, ring.relation_basis))


def is_unit(a: RingElement):
    """Inverse witness b with a*b == 1, or None.

    For quotient rings this is the ideal-membership test 1 in
    <a> + relations; the cofactor of a is the inverse.
    """
    ring = a.ring
    if isinstance(ring, IntegerRing):
        return a if a.payload in (1, -1) else None
    if isinstance(ring, ResidueRing):
        if math.gcd(a.payload, ring.modulus) != 1:
            return None
        return RingElement(ring, pow(a.payload, -1, ring.modulus))
    ctx = ring.ctx
    gens = [a.payload] + list(ring.relations)
    cof = poly.one_cofactors(ctx, gens)
    if cof is None:
        return None
    inv = RingElement(ring, poly.normal_form(ctx, cof[0], ring.relation_basis))
    if a * inv != ring.one():
        raise AssertionError("inverse witness failed to verify")
    return inv


# ---------------------------------------------------------------------------
# rendering (shared with the script front end)

def _render_coeff(c) -> str:
    if isinstance(c, _Q) and c.denominator != 1:
        return f"({c.numerator}/{c.denominator})"
    if isinstance(c, _Q):
        return str(c.numerator)
    return str(c)


def render_poly(p: Poly, variables) -> str:
    if not p:
        return "0"
    parts = []
    for mono, coeff in p:
        factors = []
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        neg = (coeff < 0) if not isinstance(coeff, tuple) else False
        mag = -coeff if neg else coeff
        body = _render_coeff(mag)
        if factors and body == "1":
            body = "*".join(factors)
        elif factors:
            body = body + "*" + "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass(frozen=True)
class RingHom:
    """A ring map given by generator images, verified at construction.

    relation_checks records the normal form of every domain relation
    image (all zero by construction); it is evidence, not data.
    """

    domain: RingDesc
    codomain: RingDesc
    generator_images: tuple = ()
    relation_checks: tuple = field(default=(), compare=False, repr=False)

    def __call__(self, a: RingElement) -> RingElement:
        return hom_apply(self, a)

    def __str__(self):
        if isinstance(self.domain, QuotientRing) and self.domain.variables:
            body = ", ".join(f"{v} -> {img}" for v, img in
                             zip(self.domain.variables, self.generator_images))
            return f"{{{body}}} : {self.domain} -> {self.codomain}"
        return f"canonical : {self.domain} -> {self.codomain}"


def _coeff_image(base, codomain, c) -> RingElement:
    """Image of a base-field coefficient under any hom out of the ring."""
    if isinstance(base, PrimeField):
        return codomain.from_int(int(c))
    # rational coefficient: the codomain is a Q-algebra or trivial
    if isinstance(codomain, QuotientRing) and isinstance(codomain.base, Rationals):
        return normalize(codomain, c)
    return codomain.zero()  # trivial codomain: everything is zero


def _base_compatible(domain, codomain) -> None:
    """Raise NotWellDefined unless a hom can exist on coefficients."""
    if isinstance(domain, IntegerRing):
        return
    if isinstance(domain, ResidueRing):
        n1 = codomain.from_int(domain.modulus)
        if not n1.is_zero:
            raise NotWellDefined(
                f"{domain.modulus}*1 is {n1} != 0 in {codomain}")
        return
    base = domain.base
    if isinstance(base, PrimeField):
        p1 = codomain.from_int(base.p)
        if not p1.is_zero:
            raise NotWellDefined(f"char {base.p} incompatible with {codomain}")
        return
    # rational base: need a Q-algebra codomain (or a trivial codomain)
    if isinstance(codomain, QuotientRing) and isinstance(codomain.base, Rationals):
        return
    if codomain.one().is_zero if isinstance(codomain, QuotientRing) else False:
        return
    raise NotWellDefined(f"no map from Q into {codomain}")


def _relation_terms(domain: QuotientRing, codomain) -> list:
    """Each domain relation as a dict from exponent tuple to the image of
    its coefficient, so coefficients are mapped once per hom search."""
    zero = {(0,) * len(domain.variables): codomain.zero()}
    return [{mono: _coeff_image(domain.base, codomain, c) for mono, c in rel}
            or zero for rel in domain.relations]


def _top_exponents(domain: QuotientRing) -> list:
    """Largest exponent of each generator over all relations."""
    return [max((mono[k] for rel in domain.relations for mono, _ in rel),
                default=0) for k in range(len(domain.variables))]


def _powers(a: RingElement, top: int) -> list:
    """[1, a, a^2, ..., a^top]."""
    out = [a.ring.one()]
    for _ in range(top):
        out.append(out[-1] * a)
    return out


def _substitute(rels: list, pw: list) -> list:
    """Substitute the first remaining generator into partially evaluated
    relations.

    Each relation maps the exponents of the generators not yet substituted
    to a codomain coefficient; pw[e] is the first generator's image to the
    e.  Terms that agree on the remaining exponents are summed, so once
    every generator is substituted each relation is {(): its image}.
    """
    out = []
    for rel in rels:
        acc = {}
        for mono, c in rel.items():
            e, rest = mono[0], mono[1:]
            term = c * pw[e] if e else c
            prev = acc.get(rest)
            acc[rest] = term if prev is None else prev + term
        out.append(acc)
    return out


def _failed_relation(rels: list):
    """Index of the first fully substituted relation whose image is not
    zero, or None when the assignment is a hom."""
    return next((i for i, rel in enumerate(rels) if not rel[()].is_zero),
                None)


def make_hom(domain, codomain, images=()) -> RingHom:
    """Build and verify a homomorphism from generator images."""
    images = tuple(normalize(codomain, i) if not isinstance(i, RingElement)
                   else i for i in images)
    for img in images:
        if img.ring != codomain:
            raise RingMismatch(f"image {img!r} not in {codomain}")
    if isinstance(domain, (IntegerRing, ResidueRing)):
        if images:
            raise NotWellDefined(f"{domain} carries no generators")
        _base_compatible(domain, codomain)
        return RingHom(domain, codomain)
    if len(images) != len(domain.variables):
        raise NotWellDefined(
            f"expected {len(domain.variables)} images, got {len(images)}")
    _base_compatible(domain, codomain)
    rels = _relation_terms(domain, codomain)
    for img, top in zip(images, _top_exponents(domain)):
        rels = _substitute(rels, _powers(img, top))
    bad = _failed_relation(rels)
    if bad is not None:
        raise NotWellDefined(
            f"relation {render_poly(domain.relations[bad], domain.variables)}"
            f" maps to {rels[bad][()]} != 0")
    return RingHom(domain, codomain, images, tuple(rel[()] for rel in rels))


def identity_hom(ring) -> RingHom:
    if isinstance(ring, QuotientRing):
        return make_hom(ring, ring, ring.gens())
    return make_hom(ring, ring)


def hom_apply(phi: RingHom, a: RingElement) -> RingElement:
    if a.ring != phi.domain:
        raise RingMismatch(f"{a!r} is not in the domain of {phi}")
    codomain = phi.codomain
    if isinstance(phi.domain, (IntegerRing, ResidueRing)):
        return codomain.from_int(a.payload)
    base, images = phi.domain.base, phi.generator_images
    powers = {}  # (generator index, exponent) -> image ** exponent
    total = codomain.zero()
    for mono, coeff in a.payload:
        term = _coeff_image(base, codomain, coeff)
        for k, e in enumerate(mono):
            if e:
                pw = powers.get((k, e))
                if pw is None:
                    pw = powers[k, e] = images[k] ** e
                term = term * pw
        total = total + term
    return total


def hom_compose(outer: RingHom, inner: RingHom) -> RingHom:
    """(outer o inner); re-verified at construction."""
    if inner.codomain != outer.domain:
        raise RingMismatch("codomain of inner must match domain of outer")
    images = tuple(hom_apply(outer, img) for img in inner.generator_images)
    return make_hom(inner.domain, outer.codomain, images)


# ---------------------------------------------------------------------------
# finite enumeration

def ring_elements(ring) -> list:
    """All elements of a finite ring, in a deterministic order."""
    if isinstance(ring, ResidueRing):
        return [RingElement(ring, k) for k in range(ring.modulus)]
    if isinstance(ring, QuotientRing):
        if isinstance(ring.base, Rationals):
            if ring.is_trivial:
                return [ring.zero()]
            raise CodomainNotFinite(f"{ring} is infinite")
        monos = poly.quotient_monomial_basis(ring.ctx, ring.relation_basis)
        if monos is None:
            raise CodomainNotFinite(f"{ring} has an infinite monomial basis")
        p = ring.base.p
        out = []
        for coeffs in itertools.product(range(p), repeat=len(monos)):
            payload = poly.poly_from_dict(
                ring.ctx, {m: c for m, c in zip(monos, coeffs)})
            out.append(RingElement(ring, payload))
        return out
    raise CodomainNotFinite(f"{ring} is infinite")


def enumerate_homs(domain, codomain) -> list:
    """All homomorphisms into a finite ring, in lexicographic assignment
    order over the codomain's element enumeration.

    This checks |codomain|^generators assignments.  Each element's powers
    are computed once, each prefix of an assignment is substituted once
    for all of its completions, and a rejected assignment costs no more
    than its relation images.
    """
    elements = ring_elements(codomain)
    if isinstance(domain, (IntegerRing, ResidueRing)):
        try:
            return [make_hom(domain, codomain)]
        except NotWellDefined:
            return []
    if isinstance(domain.base, Rationals):
        if len(elements) == 1:  # trivial codomain admits exactly one map
            zero = elements[0]
            return [make_hom(domain, codomain,
                             tuple(zero for _ in domain.variables))]
        return []
    try:
        _base_compatible(domain, codomain)
    except NotWellDefined:
        return []
    top = max(_top_exponents(domain), default=0)
    table = [_powers(a, top) for a in elements]
    nvars = len(domain.variables)
    homs = []

    def extend(rels, prefix):
        if len(prefix) == nvars:
            if _failed_relation(rels) is None:
                homs.append(RingHom(domain, codomain, prefix,
                                    tuple(rel[()] for rel in rels)))
            return
        for a, pw in zip(elements, table):
            extend(_substitute(rels, pw), prefix + (a,))

    extend(_relation_terms(domain, codomain), ())
    return homs
