"""Localization away from a single element: R[1/f].

Fractions r/f^n are the primary representation; equality is the genuine
localization equivalence (an extra f-power may be needed to absorb zero
divisors and nilpotents) and is decided by the saturation procedure.
For polynomial quotient bases the ring also has a derived presentation
base[y]/(relations + <y*f - 1>), which is what lets homs and Groebner
machinery treat R[1/f] as just another finitely presented ring.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import poly
from .errors import (BaseMismatch, InvalidWitness, NotWellDefined,
                     ResourceExceeded, RingMismatch, UnsupportedBase)
from .ideals import fin_gen_ideal, ideal_member, radical_member, \
    saturates, saturation_member
from .limits import current_limits
from .rings import (QuotientRing, RingElement, RingHom, _coeff_image,
                    is_unit, normalize)


@dataclass(frozen=True)
class Fraction:
    """num / f^exp over the base ring; compare with frac_eq, never ==."""

    ring: object
    f: RingElement
    num: RingElement
    exp: int = 0

    def __post_init__(self):
        if self.exp < 0:
            raise ValueError("negative denominator exponent")
        if self.num.ring != self.ring or self.f.ring != self.ring:
            raise RingMismatch("fraction parts from different rings")

    def __str__(self):
        return f"{self.num} / ({self.f})^{self.exp}"

    def __repr__(self):
        return f"<{self}>"

    def __add__(self, other):
        return frac_arith("add", self, other)

    def __sub__(self, other):
        return frac_arith("sub", self, other)

    def __mul__(self, other):
        return frac_arith("mul", self, other)

    def __neg__(self):
        return Fraction(self.ring, self.f, -self.num, self.exp)


@dataclass(frozen=True)
class LocalizedRing:
    """R[1/f]; carries the presentation when the base is a quotient ring."""

    ring: object
    f: RingElement

    def __post_init__(self):
        if self.f.ring != self.ring:
            raise RingMismatch("f must be an element of the base ring")

    def __str__(self):
        return f"{self.ring}[1/({self.f})]"

    @property
    def inverse_variable(self) -> str:
        return self.presentation.variables[-1]

    @cached_property
    def presentation(self) -> QuotientRing:
        """base[y]/(relations + <y*f - 1>) (Rabinowitsch presentation),
        with y renamed y1, y2, ... if the base already has a y."""
        base = self.ring
        if not isinstance(base, QuotientRing):
            raise UnsupportedBase(f"{base} has no polynomial presentation")
        name = "y"
        k = 0
        while name in base.variables:
            k += 1
            name = f"y{k}"
        ctx = base.ctx.extended()
        y = poly.var_poly(ctx, ctx.nvars - 1)
        rels = [poly.p_extend(r) for r in base.relations]
        rels.append(poly.p_sub(ctx, poly.p_mul(ctx, y, poly.p_extend(self.f.payload)),
                               poly.const_poly(ctx, 1)))
        return QuotientRing(base.base, base.variables + (name,),
                            tuple(rels), base.order)

    def fraction(self, num, exp: int = 0) -> Fraction:
        return Fraction(self.ring, self.f, normalize(self.ring, num), exp)

    def from_base(self, r) -> Fraction:
        """The canonical map r |-> r/1."""
        return self.fraction(r, 0)

    def zero(self) -> Fraction:
        return self.fraction(self.ring.zero())

    def one(self) -> Fraction:
        return self.fraction(self.ring.one())


def localize(ring, f) -> LocalizedRing:
    return LocalizedRing(ring, normalize(ring, f))


def _check_same(a: Fraction, b: Fraction):
    if a.ring != b.ring or a.f != b.f:
        raise BaseMismatch(f"fractions over {a.ring}[1/{a.f}] vs "
                           f"{b.ring}[1/{b.f}]")


def frac_eq(a: Fraction, b: Fraction) -> bool:
    """r/f^n == r'/f^m iff (r*f^m - r'*f^n)*f^k == 0 for some k."""
    _check_same(a, b)
    diff = a.num * b.f ** b.exp - b.num * a.f ** a.exp
    return saturates(diff, a.f)


def frac_witness(a: Fraction, b: Fraction):
    """Least k certifying frac_eq, or None when the fractions differ."""
    _check_same(a, b)
    diff = a.num * b.f ** b.exp - b.num * a.f ** a.exp
    return saturation_member(diff, a.f)


def frac_arith(op: str, a: Fraction, b: Fraction) -> Fraction:
    _check_same(a, b)
    f = a.f
    if op == "add":
        num = a.num * f ** b.exp + b.num * f ** a.exp
        return Fraction(a.ring, f, num, a.exp + b.exp)
    if op == "sub":
        num = a.num * f ** b.exp - b.num * f ** a.exp
        return Fraction(a.ring, f, num, a.exp + b.exp)
    if op == "mul":
        return Fraction(a.ring, f, a.num * b.num, a.exp + b.exp)
    if op == "neg":
        return Fraction(a.ring, f, -a.num, a.exp)
    raise ValueError(f"unknown op {op!r}")


def frac_reduce(a: Fraction) -> Fraction:
    """Greedily lower the exponent while num is a multiple of f.

    Purely cosmetic: equality never goes through this.
    """
    num, exp = a.num, a.exp
    fi = fin_gen_ideal(a.ring, [a.f])
    while exp > 0:
        cof = ideal_member(num, fi)
        if cof is None:
            break
        num = cof[0]
        exp -= 1
    return Fraction(a.ring, a.f, num, exp)


def frac_is_unit(a: Fraction):
    """Inverse fraction witness, or None.

    Over a quotient ring this runs as a plain unit test in the
    presentation ring; over Z and Z/n it reduces to the radical
    membership g in sqrt(<num>) with an explicit exponent witness.
    """
    ring, g = a.ring, a.f
    if isinstance(ring, QuotientRing):  # unit test in the presentation ring
        L = LocalizedRing(ring, g)
        e = to_presentation(L, a)
        w = is_unit(e)
        if w is None:
            return None
        return from_presentation(L, w)
    # integer-like: a = num/g^n invertible iff some g^k lands in <num>
    ideal = fin_gen_ideal(ring, [a.num])
    if not radical_member(g, ideal):
        return None
    cap = current_limits().max_exponent
    power = ring.one()
    for k in range(cap + 1):
        cof = ideal_member(power, ideal)
        if cof is not None:
            # g^k == c*num, hence (num/g^n) * (c*g^n / g^k) == 1;
            # an empty cofactor list means num == 0 and g nilpotent,
            # i.e. the localized ring is trivial and 0 inverts 0
            c = cof[0] if cof else ring.zero()
            return Fraction(ring, g, c * g ** a.exp, k)
        power = power * g
    raise ResourceExceeded(f"no inverse exponent <= {cap}")


# ---------------------------------------------------------------------------
# the universal property and the canonical maps

@dataclass(frozen=True)
class CanonicalMap:
    """r |-> r/1 : R -> R[1/f]."""

    target: LocalizedRing

    @property
    def source(self):
        return self.target.ring

    def __call__(self, r: RingElement) -> Fraction:
        if r.ring != self.source:
            raise RingMismatch(f"{r!r} not in {self.source}")
        return self.target.from_base(r)


def canonical_map(L: LocalizedRing) -> CanonicalMap:
    return CanonicalMap(L)


def _mul_like(x, y):
    return frac_arith("mul", x, y) if isinstance(x, Fraction) else x * y


def _is_one_like(x) -> bool:
    if isinstance(x, Fraction):
        one = Fraction(x.ring, x.f, x.ring.one(), 0)
        return frac_eq(x, one)
    return x == x.ring.one()


@dataclass(frozen=True)
class InducedMap:
    """psi : R[1/f] -> A determined by phi : R -> A and an inverse witness
    w for phi(f); psi(r/f^n) = phi(r) * w^n.

    phi may be a RingHom or any callable on base elements (e.g. another
    canonical map), and w accordingly a ring element or a fraction.
    """

    source: LocalizedRing
    phi: object
    witness: object

    def __call__(self, a: Fraction):
        if a.ring != self.source.ring or a.f != self.source.f:
            raise BaseMismatch(f"{a!r} is not a fraction of {self.source}")
        out = self.phi(a.num)
        for _ in range(a.exp):
            out = _mul_like(out, self.witness)
        return out


def universal_property(L: LocalizedRing, phi, witness) -> InducedMap:
    """The unique map out of R[1/f] extending phi once phi(f) is a unit;
    the witness is checked before anything else."""
    check = _mul_like(phi(L.f), witness)
    if not _is_one_like(check):
        raise InvalidWitness(f"phi(f) * w = {check} != 1")
    return InducedMap(L, phi, witness)


@dataclass(frozen=True)
class DoubleLocalizationMap:
    """chi : R[1/f_i] -> R[1/(f_i f_j)] multiplying through by the other
    element: r/f_i^n |-> r*f_j^n / (f_i f_j)^n (and symmetrically)."""

    source: LocalizedRing
    target: LocalizedRing
    other: RingElement

    def __call__(self, a: Fraction) -> Fraction:
        if a.ring != self.source.ring or a.f != self.source.f:
            raise BaseMismatch(f"{a!r} is not a fraction of {self.source}")
        return self.target.fraction(a.num * self.other ** a.exp, a.exp)


def double_localization_maps(ring, fi, fj):
    """(chi_left, chi_right) into R[1/(f_i f_j)]."""
    fi, fj = normalize(ring, fi), normalize(ring, fj)
    target = localize(ring, fi * fj)
    left = DoubleLocalizationMap(localize(ring, fi), target, fj)
    right = DoubleLocalizationMap(localize(ring, fj), target, fi)
    return left, right


# ---------------------------------------------------------------------------
# the derived presentation

def to_presentation(L: LocalizedRing, a: Fraction) -> RingElement:
    """r/f^n |-> r * y^n reduced in base[y]/(relations + <y*f - 1>)."""
    if a.ring != L.ring or a.f != L.f:
        raise BaseMismatch(f"{a!r} is not a fraction of {L}")
    pres = L.presentation
    y = pres.var(L.inverse_variable)
    return normalize(pres, poly.p_extend(a.num.payload)) * y ** a.exp


def from_presentation(L: LocalizedRing, e: RingElement) -> Fraction:
    """Substitute y = 1/f: sum_k g_k * y^k |-> (sum_k g_k f^(K-k)) / f^K."""
    pres = L.presentation
    if e.ring != pres:
        raise RingMismatch(f"{e!r} is not in the presentation of {L}")
    base = L.ring
    if not e.payload:
        return L.zero()
    slices = {}
    for mono, coeff in e.payload:
        k = mono[-1]
        slices.setdefault(k, {})[mono[:-1]] = coeff
    top = max(slices)
    num = base.zero()
    for k, terms in slices.items():
        g = normalize(base, dict(terms))
        num = num + g * L.f ** (top - k)
    return L.fraction(num, top)


# ---------------------------------------------------------------------------
# homs into a localized ring

@dataclass(frozen=True)
class LocRingHom:
    """A hom from a tower ring into R[1/f], generator images as fractions.

    Verified at construction: relations (and the characteristic) must map
    to zero up to frac_eq.
    """

    domain: object
    target: LocalizedRing
    generator_images: tuple = ()
    relation_checks: tuple = field(default=(), compare=False, repr=False)

    def __call__(self, a: RingElement) -> Fraction:
        return loc_hom_apply(self, a)

    def __str__(self):
        if self.domain.variables:
            body = ", ".join(f"{v} -> {img}" for v, img in
                             zip(self.domain.variables, self.generator_images))
            return f"{{{body}}} : {self.domain} -> {self.target}"
        return f"canonical : {self.domain} -> {self.target}"


def _subst_frac(domain, terms, images, L: LocalizedRing) -> Fraction:
    """Substitute fraction images into (exponents, coefficient) terms."""
    total = L.zero()
    for mono, coeff in terms:
        term = L.from_base(_coeff_image(domain, L.ring, coeff))
        for img, e in zip(images, mono):
            for _ in range(e):
                term = frac_arith("mul", term, img)
        total = frac_arith("add", total, term)
    return total


def loc_hom_apply(h: LocRingHom, a: RingElement) -> Fraction:
    if a.ring != h.domain:
        raise RingMismatch(f"{a!r} not in {h.domain}")
    return _subst_frac(h.domain, h.domain.terms(a.payload),
                       h.generator_images, h.target)


def make_loc_hom(domain, L: LocalizedRing, images=()) -> LocRingHom:
    images = tuple(images)
    for img in images:
        if not isinstance(img, Fraction) or img.ring != L.ring or img.f != L.f:
            raise RingMismatch(f"image {img!r} is not a fraction of {L}")
    if len(images) != len(domain.variables):
        raise NotWellDefined(
            f"expected {len(domain.variables)} images, got {len(images)}")
    zero = L.zero()
    char = domain.characteristic
    if char and not frac_eq(L.from_base(L.ring.from_int(char)), zero):
        raise NotWellDefined(f"char {char} incompatible with {L}")
    if (domain.is_q_algebra and not L.ring.is_q_algebra
            and not frac_eq(L.one(), zero)):
        raise NotWellDefined(f"no map from Q into {L}")
    checks = []
    for rel in domain.relations:
        image = _subst_frac(domain, rel, images, L)
        if not frac_eq(image, zero):
            raise NotWellDefined(f"relation maps to {image} != 0 in {L}")
        checks.append(image)
    return LocRingHom(domain, L, images, tuple(checks))


def compose_canonical(L: LocalizedRing, psi: RingHom) -> LocRingHom:
    """(-/1) o psi : A -> R[1/f] for psi : A -> R."""
    if psi.codomain != L.ring:
        raise RingMismatch("psi must land in the base of the localization")
    images = tuple(L.from_base(img) for img in psi.generator_images)
    return make_loc_hom(psi.domain, L, images)
