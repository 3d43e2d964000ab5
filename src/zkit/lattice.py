"""The Zariski lattice of a ring, with a decidable order.

An element D(f1, ..., fn) is a finite generator list; two lists are the
same lattice element exactly when the radicals of the ideals they
generate agree, which the radical-membership procedure decides.  Join is
concatenation, meet is pairwise products, bottom is the empty list and
top is D(1).  Equality must go through zar_eq: the generator lists are
only normalized syntactically (no canonical form for radicals is
attempted), so lattice elements are unsuitable as dict keys for semantic
purposes.

R[1/f] is a ring like any other, so its lattice is a ZarElt over it.
Its order is decided back in R: u <= v iff pushdown(u) <= pushdown(v),
pushdown sending D(r/f^n) to D(r) /\\ D(f) = D(r*f).  The denominators
being units, r/f^n lies under D(b/f^k, ...) iff r*f lies in sqrt(<b,
...>), and (r*f)^k in <b> gives (r*f)^(k+1) in <b*f>.
"""
from __future__ import annotations

from .errors import RingMismatch
from .ideals import fin_gen_ideal, radical_member, unimodular_certificate
from .localization import LocalizedRing, canonical_map
from .records import record
from .rings import RingElement, RingHom, hom_apply, normalize


# ---------------------------------------------------------------------------
# lattice elements over a plain ring

@record(frozen=True)
class ZarElt:
    """D(generators); the empty tuple is bottom."""

    ring: object
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ring:
                raise RingMismatch(f"{g!r} is not an element of {self.ring}")

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
    """u <= v iff every generator of u lies in sqrt(<generators of v>);
    a generator of v needs no decision.  R[1/f] compares pushdowns."""
    _check_ring(u, v)
    if u.generators == v.generators:
        return True
    if isinstance(u.ring, LocalizedRing):
        return zar_leq(pushdown(u.ring, u), pushdown(u.ring, v))
    ideal = fin_gen_ideal(v.ring, v.generators)
    own = {g.payload for g in v.generators}
    return all(g.payload in own or radical_member(g, ideal)
               for g in u.generators)


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
# restriction and pushdown

def restrict(L: LocalizedRing, u: ZarElt) -> ZarElt:
    """The lattice map of the canonical hom R -> R[1/f]: D(g) |-> D(g/1)."""
    return lattice_morphism(canonical_map(L), u)


def pushdown(L: LocalizedRing, v: ZarElt) -> ZarElt:
    """Map the lattice of R[1/f] into the part of L_R below D(f):
    D(r/f^n) |-> D(r) /\\ D(f) = D(r*f), extended over joins."""
    if v.ring != L:
        raise RingMismatch(f"{v} is not over {L}")
    return zar_elt(L.ring, [L.written(g.payload).num * L.f
                            for g in v.generators])
