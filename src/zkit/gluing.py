"""Unimodular covers and gluing along them.

A cover of R is a list f1, ..., fn generating the unit ideal, carried
together with its Bezout certificate.  A family of fractions x_i over
the R[1/f_i] is compatible when each pair agrees in the double
localization R[1/(f_i f_j)]; the witnesses are the saturation exponents.

glue_element inverts the restriction map: align the denominators to a
common power N, take the largest pairwise witness exponent k (any k at
or past the witnesses works, and k >= 1 keeps N + k >= 1), find
cofactors of the f_i^(N+k) (the ring's own, see ideals.power_certificate)
and recombine.  The result is verified against the input family before
it is returned, in the cover's own rings R[1/f_i] (cover.localized,
built once per cover), and restricting a global element then gluing
gives back that element on the nose.  Over a free polynomial ring these
checks and the pairwise ones compare in R itself, a domain, and build
no presentation (see localization).

A hom A -> R out of A = k[x]/I is its generator images, so homs are
glued generator by generator: the written images of each generator
form a CompatibleFamily, glue_element glues each one, and make_hom
checks the relations of A on the glued images.
"""
from __future__ import annotations

from functools import cached_property

from .errors import (IncompatibleFamily, InvariantViolated, NotUnimodular,
                     RingMismatch)
from .ideals import (BezoutCertificate, power_certificate,
                     saturation_member, unimodular_certificate)
from .localization import (Fraction, FractionMap, canonical_map, localize,
                           localized_name)
from .records import record
from .rings import (RingElement, RingHom, _powers, hom_apply, hom_compose,
                    make_hom, normalize)


@record(frozen=True)
class UnimodularCover:
    """f1, ..., fn with a verified certificate that 1 in <f1, ..., fn>."""

    ring: object
    elements: tuple
    certificate: BezoutCertificate

    def __len__(self):
        return len(self.elements)

    def __str__(self):
        return f"cover {self.ring} by [{', '.join(map(str, self.elements))}]"

    @cached_property
    def localized(self) -> tuple:
        return tuple(localize(self.ring, f) for f in self.elements)


def make_cover(ring, elements) -> UnimodularCover:
    elts = tuple(normalize(ring, f) for f in elements)
    if not elts:
        raise NotUnimodular("a cover needs at least one element")
    cert = unimodular_certificate(elts)
    if cert is None:
        raise NotUnimodular(f"1 is not in <{', '.join(map(str, elts))}>")
    return UnimodularCover(ring, elts, cert)


# ---------------------------------------------------------------------------
# compatibility

@record(frozen=True)
class CompatCheck:
    """Outcome of a pairwise compatibility scan."""

    ok: bool
    witnesses: tuple = ()          # (i, j, k) saturation exponents
    failing_pair: tuple = None


def pair_differences(elements):
    """((i, j), r_i f_j^N - r_j f_i^N) for each pair i < j, in the order
    (0, 1), (0, 2), (1, 2), ..., with the fractions aligned to the largest
    exponent N: r_i = num_i * f_i^(N - exp_i).

    chi_l(x_i) == chi_r(x_j) in R[1/(f_i f_j)] iff a power (f_i f_j)^k
    kills the difference, and the least such k is the pair witness.  The
    aligned form is the one the gluing algorithm consumes directly
    (witnesses on unaligned representatives can be off by unit factors
    that matter in rings with zero divisors).
    """
    if not elements:
        return
    ring = elements[0].ring
    one, mul, sub = ring.one().payload, ring.mul, ring.sub  # on payloads
    n = max(x.exp for x in elements)
    aligned, powers = [], []
    for x in elements:
        pw = _powers(x.f.payload, n, one, mul)
        aligned.append(mul(x.num.payload, pw[n - x.exp]))
        powers.append(pw[n])
    for j in range(len(elements)):
        for i in range(j):
            diff = sub(mul(aligned[i], powers[j]), mul(aligned[j], powers[i]))
            yield (i, j), RingElement(ring, diff)


def check_compatibility(cover: UnimodularCover, elements) -> CompatCheck:
    """Decide all pairwise double-localization conditions."""
    elements = tuple(elements)
    if len(elements) != len(cover):
        raise IncompatibleFamily("family size does not match the cover")
    for x, f in zip(elements, cover.elements):
        if not isinstance(x, Fraction) or x.ring != cover.ring or x.f != f:
            raise RingMismatch(f"{x!r} is not a fraction over "
                               f"{localized_name(cover.ring, f)}")
    witnesses = []
    for (i, j), diff in pair_differences(elements):
        k = saturation_member(diff, elements[i].f * elements[j].f)
        if k is None:
            return CompatCheck(False, tuple(witnesses), (i, j))
        witnesses.append((i, j, k))
    return CompatCheck(True, tuple(witnesses))


@record(frozen=True)
class CompatibleFamily:
    """A cover-indexed family of fractions with verified pair witnesses."""

    cover: UnimodularCover
    elements: tuple
    witnesses: tuple

    def __str__(self):
        return f"[{', '.join(map(str, self.elements))}] over {self.cover}"


def make_family(cover: UnimodularCover, elements) -> CompatibleFamily:
    check = check_compatibility(cover, elements)
    if not check.ok:
        i, j = check.failing_pair
        raise IncompatibleFamily(
            f"components {i} and {j} disagree in the double localization")
    return CompatibleFamily(cover, tuple(elements), check.witnesses)


def restrict_element(cover: UnimodularCover, g) -> CompatibleFamily:
    """The canonical family (g/1, ..., g/1)."""
    g = normalize(cover.ring, g)
    return make_family(cover, tuple(L.from_base(g) for L in cover.localized))


def glue_element(fam: CompatibleFamily) -> RingElement:
    """The unique global element restricting to the family."""
    cover = fam.cover
    ring = cover.ring
    fs = cover.elements
    n_exp = max((x.exp for x in fam.elements), default=0)
    aligned = [x.num * fs[i] ** (n_exp - x.exp)
               for i, x in enumerate(fam.elements)]
    k = max([w[2] for w in fam.witnesses] + [0 if n_exp else 1])
    cof = power_certificate(cover.certificate, n_exp + k).cofactors
    g = ring.zero()
    for b, r, f in zip(cof, aligned, fs):
        g = g + b * r * f ** k
    for x, L in zip(fam.elements, cover.localized):
        if not L.equal(L.from_base(g), x):
            raise IncompatibleFamily(
                "glued element fails to restrict to the family")
    return g


# ---------------------------------------------------------------------------
# pullback of covers

def pullback_cover(cover: UnimodularCover, phi: RingHom):
    """Push a cover of R along phi : R -> A; returns the cover of A by
    the phi(f_i) (certificate re-verified) and the maps R[1/f_i] ->
    A[1/phi(f_i)], r/f^n |-> phi(r)/phi(f)^n, that close the squares
    with the canonical maps."""
    if phi.domain != cover.ring:
        raise RingMismatch("cover and hom live over different rings")
    images = tuple(hom_apply(phi, f) for f in cover.elements)
    cofs = tuple(hom_apply(phi, a) for a in cover.certificate.cofactors)
    cert = BezoutCertificate(images, cofs)
    if not cert.verify():
        raise InvariantViolated("pulled back certificate failed to verify")
    new_cover = UnimodularCover(phi.codomain, images, cert)
    one = phi.codomain.one()
    maps = tuple(FractionMap(src, dst, phi, one)
                 for src, dst in zip(cover.localized, new_cover.localized))
    return new_cover, maps


# ---------------------------------------------------------------------------
# hom-level families

@record(frozen=True)
class CompatibleHomFamily:
    """Homs phi_i : A -> R[1/f_i] and, for each generator of A, the
    CompatibleFamily of its written images phi_i(generator)."""

    cover: UnimodularCover
    domain: object
    homs: tuple
    families: tuple   # one CompatibleFamily per domain generator


def make_hom_family(cover: UnimodularCover, domain, homs) -> CompatibleHomFamily:
    homs = tuple(homs)
    if len(homs) != len(cover):
        raise IncompatibleFamily("family size does not match the cover")
    for h, L in zip(homs, cover.localized):
        if h.domain != domain or h.codomain != L:
            raise RingMismatch(f"{h!r} is not a hom {domain} -> {L}")
    families = tuple(
        make_family(cover, [L.written(h.generator_images[g].payload)
                            for h, L in zip(homs, cover.localized)])
        for g in range(len(domain.variables)))
    return CompatibleHomFamily(cover, domain, homs, families)


def restrict_hom(cover: UnimodularCover, psi: RingHom) -> CompatibleHomFamily:
    """sigma at the hom level: compose psi with each canonical map."""
    if psi.codomain != cover.ring:
        raise RingMismatch("psi must land in the covered ring")
    homs = tuple(hom_compose(canonical_map(L), psi)
                 for L in cover.localized)
    return make_hom_family(cover, psi.domain, homs)


def glue_hom(fam: CompatibleHomFamily) -> RingHom:
    """Glue each generator's family and assemble the hom A -> R.

    glue_element raises IncompatibleFamily when a glued image fails to
    restrict to its family, and make_hom raises NotWellDefined when a
    domain relation fails on the glued images (an incompatibility the
    pairwise checks cannot see).
    """
    return make_hom(fam.domain, fam.cover.ring,
                    [glue_element(f) for f in fam.families])
