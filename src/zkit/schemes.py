"""Compact opens of affine schemes and their points.

An affine scheme Sp(R) is a ring R regarded through its points: the
B-valued points are the homs R -> B.  By Yoneda, a compact open
subfunctor of Sp(R) is exactly an element of the Zariski lattice L_R,
and a global function on Sp(R) is exactly an element of R; so a compact
open here is the ZarElt u itself, and evaluating a function at a point
is hom_apply.  The points of u are the homs phi with D(phi(u1), ...,
phi(un)) equal to the top of the codomain's lattice, and each such point
carries the Bezout certificate that witnesses this.

Standard opens D(f) are affine: their points correspond to homs out of
the localization presentation R[1/f], in both directions explicitly.
Arbitrary compact opens get a finite affine cover by reading off their
generator list, and the qcqs report packages that cover together with
executed glue-preserves-membership trials; one report decides each
distinct point once, for sampling and for every trial.
"""
from __future__ import annotations

import random
from .errors import (InvariantViolated, NotUnimodular, ResourceExceeded,
                     RingMismatch, UnsupportedBase)
from .gluing import (UnimodularCover, glue_hom, make_cover, make_hom_family)
from .ideals import BezoutCertificate, unimodular_certificate
from .lattice import (ZarElt, lattice_morphism, support_D, zar_elt, zar_eq,
                      zar_eq_top)
from .localization import LocalizedRing
from .records import record
from .rings import (RingHom, _coefficient_images, _evaluate,
                    _index_arithmetic, enumerate_homs, hom_apply, make_hom)


@record(frozen=True)
class SchemePoint:
    """A B-valued point of a compact open, with its membership witness."""

    open: ZarElt
    hom: RingHom
    witness: BezoutCertificate

    def __str__(self):
        return f"{self.hom} in {self.open}"


# ---------------------------------------------------------------------------
# points

def point_membership(u: ZarElt, phi: RingHom):
    """The point of u at phi, certificate included, or None when the
    pulled-back lattice element is not everything.  A phi out of another
    ring is a RingMismatch (from lattice_morphism)."""
    cert = zar_eq_top(lattice_morphism(phi, u))
    if cert is None:
        return None
    return SchemePoint(u, phi, cert)


def points_over(u: ZarElt, codomain) -> list:
    """All codomain-valued points of u, in enumeration order.

    The homs come from rings.enumerate_homs, under
    Limits.max_assignments.  u is pulled back on indices into
    codomain.elements(), as the enumeration walks: u's generators are
    compiled once to terms with coefficient indices and evaluated at
    each hom's image indices, with the codomain's sums and products
    memoized (rings._index_arithmetic).  Many homs pull u back to the
    same element (D(1) for the whole scheme), so membership is decided
    once per distinct set of nonzero image indices and its certificate
    shared: each point's witness is what point_membership(u, phi)
    returns.
    """
    domain = u.ring
    homs = enumerate_homs(domain, codomain)
    if not homs:
        return []
    elements = codomain.elements()
    index, add, mul = _index_arithmetic(codomain, elements)
    coeff = _coefficient_images(domain, codomain)
    gens = [[(mono, index[coeff(c)]) for mono, c in domain.terms(g.payload)]
            for g in u.generators]
    zero = index[codomain.zero().payload]
    certs = {}  # nonzero pulled-back indices -> certificate or None
    pts = []
    for phi in homs:
        images = [index[g.payload] for g in phi.generator_images]
        key = frozenset(v for v in _evaluate(gens, images, add, mul)
                        if v != zero)
        if key not in certs:
            certs[key] = zar_eq_top(zar_elt(codomain,
                                            [elements[i] for i in key]))
        if certs[key] is not None:
            pts.append(SchemePoint(u, phi, certs[key]))
    return pts


# ---------------------------------------------------------------------------
# the standard-open bijection

def point_from_localized_hom(L: LocalizedRing, psi: RingHom) -> SchemePoint:
    """A hom out of the presentation of R[1/f] gives a point of D(f):
    forget the inverse variable and keep the generator images."""
    pres = L.presentation
    if psi.domain != pres:
        raise RingMismatch(f"{psi} does not start at the presentation of {L}")
    base = L.ring
    images = psi.generator_images[:len(base.variables)]
    phi = make_hom(base, psi.codomain, images)
    pt = point_membership(support_D(L.f), phi)
    if pt is None:
        raise InvariantViolated("presentation hom failed to give a point")
    return pt


def point_to_localized_hom(pt: SchemePoint, L: LocalizedRing) -> RingHom:
    """A point of D(f) gives a hom out of the presentation of R[1/f]:
    the Bezout certificate on the singleton <phi(f)> is an inverse, and
    it becomes the image of the inverse variable.  A point over another
    ring than L's base is a RingMismatch (from zar_eq)."""
    if not zar_eq(pt.open, support_D(L.f)):
        raise UnsupportedBase(f"{pt.open} is not the standard open at {L.f}")
    phi = pt.hom
    cert = unimodular_certificate([hom_apply(phi, L.f)])
    if cert is None:
        raise InvariantViolated("point witness lost: phi(f) is not a unit")
    w = cert.cofactors[0]
    return make_hom(L.presentation, phi.codomain,
                    phi.generator_images + (w,))


# ---------------------------------------------------------------------------
# affine covers

@record(frozen=True)
class AffineCover:
    """A finite cover of a compact open by the standard opens D(f_i) of
    its generators (each affine, as Sp(R[1/f_i]): localize(ring, f_i));
    top_certificate is present exactly when the open is everything.
    join_matches compares u with zar_elt of u's own generators, which
    always holds: it checks no covering condition, and is kept because
    it is part of the output."""

    open: ZarElt
    opens: tuple
    join_matches: bool
    top_certificate: object
    degenerate: bool

    @property
    def n(self) -> int:
        return len(self.opens)


def affine_cover(u: ZarElt) -> AffineCover:
    """Read the cover off the generator list: u = join of the D(f_i)."""
    gens = u.generators
    return AffineCover(
        open=u,
        opens=tuple(support_D(f) for f in gens),
        join_matches=zar_eq(zar_elt(u.ring, gens), u),
        top_certificate=zar_eq_top(u),
        degenerate=not gens,
    )


# ---------------------------------------------------------------------------
# locality evidence (glue preserves membership)

@record(frozen=True)
class LocalityTrial:
    """One executed glue-preserves-membership experiment."""

    ring: str
    cover_elements: tuple
    point: str
    components_member: bool
    glued_member: bool
    glued_equals_point: bool

    @property
    def ok(self) -> bool:
        return (self.components_member and self.glued_member
                and self.glued_equals_point)


def _decide(u: ZarElt, phi: RingHom, decided: dict):
    """point_membership(u, phi), decided once per distinct point of u:
    decided maps (value ring, image payloads) to the point or None."""
    key = (phi.codomain, tuple([i.payload for i in phi.generator_images]))
    if key in decided:
        return decided[key]
    pt = decided[key] = point_membership(u, phi)
    return pt


def locality_trial(pt: SchemePoint, cover: UnimodularCover,
                   rng: random.Random, decided: dict) -> LocalityTrial:
    """Restrict a point of u (a SchemePoint, so membership is already
    witnessed) along a cover of its value ring, pad the components'
    denominators by random powers 0..2 of f_i, glue back generator by
    generator, and check that the result is still a point of u (and is
    the original point).  The homs are decided through decided (see
    _decide), which qcqs_certificate shares across its trials."""
    u, psi = pt.open, pt.hom
    domain = u.ring
    homs = []
    for L in cover.localized:
        pads = [rng.randrange(0, 3) for _ in psi.generator_images]
        homs.append(make_hom(domain, L, [
            L.fraction(img * L.f ** pad, pad)
            for img, pad in zip(psi.generator_images, pads)]))
    components_member = all(_decide(u, h, decided) is not None
                            for h in homs)
    glued = glue_hom(make_hom_family(cover, domain, homs))
    glued_member = _decide(u, glued, decided) is not None
    return LocalityTrial(
        ring=str(cover.ring),
        cover_elements=tuple(str(f) for f in cover.elements),
        point=str(psi),
        components_member=components_member,
        glued_member=glued_member,
        glued_equals_point=glued.generator_images == psi.generator_images,
    )


def _candidate_points(u: ZarElt, rng: random.Random, decided: dict,
                      budget: int = 40):
    """Points of u with small value rings, for sampling: the members of
    u among the ring's sample_homs, each decided through decided."""
    return [pt for phi in u.ring.sample_homs(rng, budget)
            if (pt := _decide(u, phi, decided)) is not None]


def _candidate_cover(ring, rng: random.Random) -> UnimodularCover:
    """A small unimodular cover of the value ring; (h, 1-h) always works."""
    for _ in range(8):
        h = ring.random_element(rng)
        try:
            if rng.random() < 0.5:
                return make_cover(ring, [h, ring.one() - h])
            g = ring.random_element(rng)
            return make_cover(ring, [h, ring.one() - h * g, g])
        except (NotUnimodular, ResourceExceeded):
            continue
    return make_cover(ring, [ring.one()])


@record(frozen=True)
class QcqsReport:
    """The affine cover of a compact open plus executed locality evidence."""

    open: ZarElt
    cover: AffineCover
    trials: tuple
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.cover.join_matches and all(t.ok for t in self.trials)


def qcqs_certificate(u: ZarElt, *, seed: int = 0,
                     trials: int = 5) -> QcqsReport:
    """Bundle the affine cover with sampled glue-preserves-membership
    runs over the value rings where points of u could be found.

    The candidates, each trial's component homs and its glued hom are
    decided through one dict per call (see _decide), so each distinct
    point is decided once, and a glued hom equal to its sampled point
    gets the candidate's SchemePoint back."""
    rng = random.Random(seed)
    cover = affine_cover(u)
    decided = {}
    points = _candidate_points(u, rng, decided)
    records = []
    note = ""
    if not points:
        note = "no qualifying point found for locality sampling"
    else:
        for _ in range(trials):
            pt = rng.choice(points)
            test_cover = _candidate_cover(pt.hom.codomain, rng)
            records.append(locality_trial(pt, test_cover, rng, decided))
    if cover.degenerate:
        note = (note + "; " if note else "") + "empty open: degenerate cover"
    return QcqsReport(u, cover, tuple(records), note)
