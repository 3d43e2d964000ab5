"""The Zariski lattice of a ring, with a decidable order.

An element D(f1, ..., fn) is a finite generator list; two lists are the
same lattice element exactly when the radicals of the ideals they
generate agree, which the radical-membership procedure decides.  Join is
concatenation, meet is pairwise products, bottom is the empty list and
top is D(1).  Equality must go through zar_eq: the generator lists are
only normalized syntactically (no canonical form for radicals is
attempted), so lattice elements are unsuitable as dict keys for semantic
purposes.

The lattice of a localized ring R[1/f] is represented separately with
fraction generators.  Its order is decided back in R by absorbing one
denominator factor: r/f^n lies under D(b1, ..., bm) iff r*f lies in
sqrt(<b1, ..., bm>), which is exactly what makes the pushdown map
sending D(r/f^n) to the meet of D(r) and D(f) a support.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import RingMismatch, UnsupportedBase
from .ideals import fin_gen_ideal, radical_member, \
    unimodular_certificate
from .localization import Fraction, LocalizedRing, frac_arith, from_presentation
from .rings import RingElement, RingHom, hom_apply, normalize


# ---------------------------------------------------------------------------
# lattice elements over a plain ring

@dataclass(frozen=True)
class ZarElt:
    """D(generators); the empty tuple is bottom."""

    ring: object
    generators: tuple

    def __str__(self):
        return f"D({', '.join(str(g) for g in self.generators)})"


def _normalize_gens(ring, gens):
    seen = set()
    out = []
    for g in gens:
        g = normalize(ring, g)
        if g.is_zero or g.payload in seen:
            continue
        seen.add(g.payload)
        out.append(g)
    out.sort(key=lambda e: e.sort_key())
    return tuple(out)


def zar_elt(ring, gens) -> ZarElt:
    return ZarElt(ring, _normalize_gens(ring, gens))


def support_D(f: RingElement) -> ZarElt:
    """The universal support R -> L_R at a single element."""
    return zar_elt(f.ring, [f])


def zar_bottom(ring) -> ZarElt:
    return ZarElt(ring, ())


def zar_top(ring) -> ZarElt:
    return zar_elt(ring, [ring.one()])


def _check_ring(u: ZarElt, v: ZarElt):
    if u.ring != v.ring:
        raise RingMismatch(f"lattice elements over {u.ring} vs {v.ring}")


def zar_join(u: ZarElt, v: ZarElt) -> ZarElt:
    _check_ring(u, v)
    return zar_elt(u.ring, u.generators + v.generators)


def zar_meet(u: ZarElt, v: ZarElt) -> ZarElt:
    _check_ring(u, v)
    return zar_elt(u.ring, [f * g for f in u.generators for g in v.generators])


def zar_leq(u: ZarElt, v: ZarElt) -> bool:
    """u <= v iff every generator of u lies in sqrt(<generators of v>)."""
    _check_ring(u, v)
    if u.generators == v.generators:
        return True
    ideal = fin_gen_ideal(v.ring, v.generators)
    return all(radical_member(g, ideal) for g in u.generators)


def zar_eq(u: ZarElt, v: ZarElt) -> bool:
    return zar_leq(u, v) and zar_leq(v, u)


def zar_eq_top(u: ZarElt):
    """Bezout certificate iff u is the top element (1 in <generators>)."""
    if not u.generators:
        # bottom is D(0); the empty join is top only in the trivial ring,
        # where 1 in <0> holds with a zero cofactor
        if u.ring.is_trivial:
            return unimodular_certificate([u.ring.zero()])
        return None
    return unimodular_certificate(u.generators)


def lattice_morphism(phi: RingHom, u: ZarElt) -> ZarElt:
    """The unique lattice map under phi: D(f1, ..) |-> D(phi f1, ..)."""
    if u.ring != phi.domain:
        raise RingMismatch(f"{u} is not over the domain of {phi}")
    return zar_elt(phi.codomain, [hom_apply(phi, g) for g in u.generators])


# ---------------------------------------------------------------------------
# lattice elements over a localized ring

@dataclass(frozen=True)
class LocalZarElt:
    """D(fractions) in the lattice of R[1/f]."""

    loc: LocalizedRing
    generators: tuple

    def __str__(self):
        return f"D({', '.join(str(g) for g in self.generators)})"


def _normalize_frac_gens(loc, gens):
    seen = set()
    out = []
    for g in gens:
        if not isinstance(g, Fraction) or g.ring != loc.ring or g.f != loc.f:
            raise RingMismatch(f"{g!r} is not a fraction of {loc}")
        key = (g.num.payload, g.exp)
        if g.num.is_zero or key in seen:
            continue
        seen.add(key)
        out.append(g)
    out.sort(key=lambda fr: (fr.num.sort_key(), fr.exp))
    return tuple(out)


def loc_zar_elt(loc: LocalizedRing, gens) -> LocalZarElt:
    return LocalZarElt(loc, _normalize_frac_gens(loc, gens))


def loc_support(fr: Fraction) -> LocalZarElt:
    return loc_zar_elt(LocalizedRing(fr.ring, fr.f), [fr])


def loc_bottom(loc: LocalizedRing) -> LocalZarElt:
    return LocalZarElt(loc, ())


def loc_top(loc: LocalizedRing) -> LocalZarElt:
    return loc_zar_elt(loc, [loc.one()])


def _check_loc(u: LocalZarElt, v: LocalZarElt):
    if u.loc != v.loc:
        raise RingMismatch(f"lattice elements over {u.loc} vs {v.loc}")


def loc_join(u: LocalZarElt, v: LocalZarElt) -> LocalZarElt:
    _check_loc(u, v)
    return loc_zar_elt(u.loc, u.generators + v.generators)


def loc_meet(u: LocalZarElt, v: LocalZarElt) -> LocalZarElt:
    _check_loc(u, v)
    return loc_zar_elt(u.loc, [frac_arith("mul", a, b)
                               for a in u.generators for b in v.generators])


def loc_leq(u: LocalZarElt, v: LocalZarElt) -> bool:
    """Decided in the base ring: denominators are units, so only the
    numerators matter, and a/1 falls under sqrt(<b1, .., bm>)[1/f] iff
    a*f does so already in R."""
    _check_loc(u, v)
    ring, f = u.loc.ring, u.loc.f
    ideal = fin_gen_ideal(ring, [b.num for b in v.generators])
    return all(radical_member(a.num * f, ideal) for a in u.generators)


def loc_eq(u: LocalZarElt, v: LocalZarElt) -> bool:
    return loc_leq(u, v) and loc_leq(v, u)


def loc_eq_top(v: LocalZarElt) -> bool:
    """Top iff f itself falls under the numerators' radical."""
    ring, f = v.loc.ring, v.loc.f
    return radical_member(f, fin_gen_ideal(ring, [b.num for b in v.generators]))


# ---------------------------------------------------------------------------
# restriction and pushdown

def restrict(L: LocalizedRing, u: ZarElt) -> LocalZarElt:
    """Apply the lattice map of the canonical morphism: D(g) |-> D(g/1)."""
    if u.ring != L.ring:
        raise RingMismatch(f"{u} is not over the base of {L}")
    return loc_zar_elt(L, [L.from_base(g) for g in u.generators])


def pushdown(L: LocalizedRing, v) -> ZarElt:
    """Map the lattice of R[1/f] into the part of L_R below D(f):
    D(r/f^n) |-> D(r) /\\ D(f) = D(r*f), extended over joins.

    Accepts fraction-generator elements; a ZarElt over the presentation
    ring is converted generator-wise via from_presentation first.
    """
    if isinstance(v, ZarElt):
        v = lattice_from_presentation(L, v)
    if v.loc != L:
        raise RingMismatch(f"{v} is not over {L}")
    return zar_elt(L.ring, [g.num * L.f for g in v.generators])


def lattice_from_presentation(L: LocalizedRing, u: ZarElt) -> LocalZarElt:
    """Convert presentation-ring generators into fraction form."""
    pres = L.presentation
    if u.ring != pres:
        raise UnsupportedBase(f"{u} is not over the presentation of {L}")
    return loc_zar_elt(L, [from_presentation(L, g) for g in u.generators])
