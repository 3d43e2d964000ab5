"""Compact opens of affine schemes and their points.

An affine scheme is a ring R regarded through its points: the B-valued
points are the homs R -> B.  A compact open of it is a lattice element
u over R; its points are the homs phi with D(phi(u1), ..., phi(un))
equal to the top of the codomain's lattice, and each such point carries
the Bezout certificate that witnesses this.

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
from .lattice import (ZarElt, lattice_morphism, support_D, zar_bottom,
                      zar_elt, zar_eq, zar_eq_top, zar_top)
from .localization import LocalizedRing
from .records import record
from .rings import (RingElement, RingHom, _coefficient_images, _evaluate,
                    _index_arithmetic, enumerate_homs, hom_apply, make_hom,
                    normalize)


@record(frozen=True)
class AffineScheme:
    """A ring seen through its functor of points."""

    ring: object

    def __str__(self):
        return f"Sp({self.ring})"


@record(frozen=True)
class CompactOpen:
    """A compact open of an affine scheme, i.e. a lattice element of its
    coordinate ring; equality of opens is zar_eq of the elements."""

    scheme: AffineScheme
    element: ZarElt

    def __post_init__(self):
        if self.element.ring != self.scheme.ring:
            raise RingMismatch("lattice element over the wrong ring")

    def __str__(self):
        return f"{self.element} of {self.scheme}"


@record(frozen=True)
class SchemePoint:
    """A B-valued point of a compact open, with its membership witness."""

    open: CompactOpen
    hom: RingHom
    witness: BezoutCertificate

    @property
    def values(self):
        return self.hom.codomain

    def __str__(self):
        return f"{self.hom} in {self.open.element}"


def whole_scheme(ring) -> CompactOpen:
    return CompactOpen(AffineScheme(ring), zar_top(ring))


def empty_open(ring) -> CompactOpen:
    return CompactOpen(AffineScheme(ring), zar_bottom(ring))


def standard_open(ring, f) -> CompactOpen:
    return CompactOpen(AffineScheme(ring), support_D(normalize(ring, f)))


def compact_open(ring, gens) -> CompactOpen:
    return CompactOpen(AffineScheme(ring), zar_elt(ring, gens))


# ---------------------------------------------------------------------------
# points

def point_membership(V: CompactOpen, phi: RingHom):
    """The point of V at phi, certificate included, or None when the
    pulled-back lattice element is not everything."""
    if phi.domain != V.scheme.ring:
        raise RingMismatch(f"{phi} does not start at {V.scheme}")
    cert = zar_eq_top(lattice_morphism(phi, V.element))
    if cert is None:
        return None
    return SchemePoint(V, phi, cert)


def points_over(V: CompactOpen, codomain) -> list:
    """All codomain-valued points of V, in enumeration order.

    The homs come from rings.enumerate_homs, under
    Limits.max_assignments.  V is pulled back on indices into
    codomain.elements(), as the enumeration walks: V's generators are
    compiled once to terms with coefficient indices and evaluated at
    each hom's image indices, with the codomain's sums and products
    memoized (rings._index_arithmetic).  Many homs pull V back to the
    same element (D(1) for the whole scheme), so membership is decided
    once per distinct set of nonzero image indices and its certificate
    shared: each point's witness is what point_membership(V, phi)
    returns.
    """
    domain = V.scheme.ring
    homs = enumerate_homs(domain, codomain)
    if not homs:
        return []
    elements = codomain.elements()
    index, add, mul = _index_arithmetic(codomain, elements)
    coeff = _coefficient_images(domain, codomain)
    gens = [[(mono, index[coeff(c)]) for mono, c in domain.terms(g.payload)]
            for g in V.element.generators]
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
            pts.append(SchemePoint(V, phi, certs[key]))
    return pts


def function_eval(r: RingElement, pt: SchemePoint) -> RingElement:
    """Evaluate a global function at a point: functions on Sp(R) are
    represented by R itself, and evaluation is application of the hom."""
    return hom_apply(pt.hom, r)


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
    pt = point_membership(standard_open(base, L.f), phi)
    if pt is None:
        raise InvariantViolated("presentation hom failed to give a point")
    return pt


def point_to_localized_hom(pt: SchemePoint, L: LocalizedRing) -> RingHom:
    """A point of D(f) gives a hom out of the presentation of R[1/f]:
    the Bezout certificate on the singleton <phi(f)> is an inverse, and
    it becomes the image of the inverse variable."""
    base = L.ring
    if pt.open.scheme.ring != base:
        raise RingMismatch(f"{pt} is not a point over {base}")
    if not zar_eq(pt.open.element, support_D(L.f)):
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
    join_matches re-verifies the covering condition and top_certificate
    is present exactly when the open is everything."""

    open: CompactOpen
    opens: tuple
    join_matches: bool
    top_certificate: object
    degenerate: bool

    @property
    def n(self) -> int:
        return len(self.opens)


def affine_cover(V: CompactOpen) -> AffineCover:
    """Read the cover off the generator list: u = join of the D(f_i)."""
    ring = V.scheme.ring
    gens = V.element.generators
    opens = tuple(standard_open(ring, f) for f in gens)
    join = zar_elt(ring, gens)
    return AffineCover(
        open=V,
        opens=opens,
        join_matches=zar_eq(join, V.element),
        top_certificate=zar_eq_top(V.element),
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


def _decide(V: CompactOpen, phi: RingHom, decided: dict):
    """point_membership(V, phi), decided once per distinct point of V:
    decided maps (value ring, image payloads) to the point or None."""
    key = (phi.codomain, tuple([i.payload for i in phi.generator_images]))
    if key in decided:
        return decided[key]
    pt = decided[key] = point_membership(V, phi)
    return pt


def locality_trial(pt: SchemePoint, cover: UnimodularCover,
                   rng: random.Random,
                   decided: dict | None = None) -> LocalityTrial:
    """Restrict a point of V (a SchemePoint, so membership is already
    witnessed) along a cover of its value ring, pad the components'
    denominators by random powers 0..2 of f_i, glue back generator by
    generator, and check that the result is still a point of V (and is
    the original point).  The homs are decided through decided (see
    _decide), which qcqs_certificate shares across its trials; without
    it, the trial decides its own."""
    if decided is None:
        decided = {}
    V, psi = pt.open, pt.hom
    domain = V.scheme.ring
    homs = []
    for L in cover.localized:
        pads = [rng.randrange(0, 3) for _ in psi.generator_images]
        homs.append(make_hom(domain, L, [
            L.fraction(img * L.f ** pad, pad)
            for img, pad in zip(psi.generator_images, pads)]))
    components_member = all(_decide(V, h, decided) is not None
                            for h in homs)
    glued = glue_hom(make_hom_family(cover, domain, homs))
    glued_member = _decide(V, glued, decided) is not None
    return LocalityTrial(
        ring=str(cover.ring),
        cover_elements=tuple(str(f) for f in cover.elements),
        point=str(psi),
        components_member=components_member,
        glued_member=glued_member,
        glued_equals_point=glued.generator_images == psi.generator_images,
    )


def _candidate_points(V: CompactOpen, rng: random.Random, decided: dict,
                      budget: int = 40):
    """Points of V with small value rings, for sampling: the members of
    V among the ring's sample_homs, each decided through decided."""
    return [pt for phi in V.scheme.ring.sample_homs(rng, budget)
            if (pt := _decide(V, phi, decided)) is not None]


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

    open: CompactOpen
    cover: AffineCover
    trials: tuple
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.cover.join_matches and all(t.ok for t in self.trials)


def qcqs_certificate(V: CompactOpen, *, seed: int = 0,
                     trials: int = 5) -> QcqsReport:
    """Bundle the affine cover with sampled glue-preserves-membership
    runs over the value rings where points of V could be found.

    The candidates, each trial's component homs and its glued hom are
    decided through one dict per call (see _decide), so each distinct
    point is decided once, and a glued hom equal to its sampled point
    gets the candidate's SchemePoint back."""
    rng = random.Random(seed)
    cover = affine_cover(V)
    decided = {}
    points = _candidate_points(V, rng, decided)
    records = []
    note = ""
    if not points:
        note = "no qualifying point found for locality sampling"
    else:
        for _ in range(trials):
            pt = rng.choice(points)
            test_cover = _candidate_cover(pt.values, rng)
            records.append(locality_trial(pt, test_cover, rng, decided))
    if cover.degenerate:
        note = (note + "; " if note else "") + "empty open: degenerate cover"
    return QcqsReport(V, cover, tuple(records), note)
