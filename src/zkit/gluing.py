"""Unimodular covers and gluing along them.

A cover of R is a list f1, ..., fn generating the unit ideal, carried
together with its Bezout certificate.  A family of fractions x_i over
the R[1/f_i] is compatible when each pair agrees in the double
localization R[1/(f_i f_j)]; the witnesses are the saturation exponents.

glue_element inverts the restriction map.  Over a domain (is_domain)
R -> R[1/f] is injective for f != 0, so the glued element is the exact
quotient num_i / f_i^e_i of a member with f_i != 0
(rings._exact_quotient), and no power certificate is formed.  Over the
other rings it aligns the denominators to a common power N, takes the
largest pairwise witness exponent k (any k at or past the witnesses
works, and k >= 1 keeps N + k >= 1), finds cofactors of the f_i^(N+k)
(the ring's own, see ideals.power_certificate) and recombines.  Either
way the result is checked in R before it is returned, by the predicate
verify decides (restricts): the least exponent with which it restricts
to each member is found once, and is what a glue certificate carries.
Gluing a global element's restrictions gives back that element on the
nose.

A hom A -> R out of A = k[x]/I is its generator images, so homs are
glued generator by generator: the written images of each generator
form a CompatibleFamily, glue_element glues each one, and make_hom
checks the relations of A on the glued images.
"""
from __future__ import annotations

from functools import cached_property

from .errors import (IncompatibleFamily, NotUnimodular, ResourceExceeded,
                     RingMismatch)
from .ideals import (BezoutCertificate, power_certificate, saturation_cap,
                     saturation_member, unimodular_certificate)
from .localization import Fraction, canonical_map, localize, localized_name
from .records import record
from .rings import (RingElement, RingHom, _exact_quotient, _is_times_power,
                    _power, hom_compose, make_hom, normalize)


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


def check_compatibility(cover: UnimodularCover, elements) -> CompatCheck:
    """Decide all pairwise double-localization conditions, for i < j in
    the order (0, 1), (0, 2), (1, 2), ...  With the fractions aligned to
    the largest exponent N, r_i = num_i * f_i^(N - exp_i), chi_l(x_i) ==
    chi_r(x_j) in R[1/(f_i f_j)] iff a power (f_i f_j)^k kills r_i f_j^N
    - r_j f_i^N, and the least such k is the pair witness, on the
    aligned form that glue_element consumes (witnesses on unaligned
    representatives can be off by unit factors that matter in rings with
    zero divisors).  Each f_i^k is formed once, and only to multiply a
    factor that is not 0.

    Over a domain with every f_i != 0 no power (f_i f_j)^k kills a
    nonzero element, so the pair (i, j) holds exactly when x_i == x_j in
    Frac(R), with witness 0: the first failing pair is (0, j) for the
    first j with x_j != x_0."""
    elements = tuple(elements)
    if len(elements) != len(cover):
        raise IncompatibleFamily("family size does not match the cover")
    for x, f in zip(elements, cover.elements):
        if not isinstance(x, Fraction) or x.ring != cover.ring or x.f != f:
            raise RingMismatch(f"{x!r} is not a fraction over "
                               f"{localized_name(cover.ring, f)}")
    ring = cover.ring
    if ring.is_domain and not any(f.is_zero for f in cover.elements):
        x = elements[0]
        den = x.f ** x.exp
        j = next((j for j, y in enumerate(elements[1:], 1)
                  if y.num * den != x.num * y.f ** y.exp), len(elements))
        witnesses = tuple((i, m, 0) for m in range(j) for i in range(m))
        if j < len(elements):
            return CompatCheck(False, witnesses, (0, j))
        return CompatCheck(True, witnesses)
    mul, weight, n = ring.mul, ring.power_weight, max(x.exp for x in elements)
    powers = {}  # (i, k) -> the payload of f_i^k

    def times(r, i, k):  # r * f_i^k on payloads
        if k and not ring.is_zero(r):
            if (i, k) not in powers:
                powers[i, k] = _power(elements[i].f.payload, k, mul, weight)
            r = mul(r, powers[i, k])
        return r

    aligned = [times(x.num.payload, i, n - x.exp)
               for i, x in enumerate(elements)]
    witnesses = []
    for j in range(len(elements)):
        for i in range(j):
            diff = RingElement(ring, ring.sub(times(aligned[i], j, n),
                                              times(aligned[j], i, n)))
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


def glue_element(fam: CompatibleFamily) -> tuple:
    """The unique global element g restricting to the family, and the
    least k with restricts(g, x, k) for each member x
    (restriction_exponents), the exponents a glue certificate carries.

    Over a domain g is the exact quotient num / f^e of the member x =
    num/f^e with f != 0 and the least e, or None when f^e does not
    divide num.  Over the other rings the pair witnesses give g
    f_i^(N+k) == num_i f_i^(N-e_i) f_i^k for the recombined g."""
    cover, ring = fam.cover, fam.cover.ring
    if ring.is_domain:
        x = min((x for x in fam.elements if not x.f.is_zero),
                key=lambda x: x.exp)
        g = _exact_quotient(x.num, x.f, x.exp)
    else:
        n_exp, k = _alignment(fam)
        cof = power_certificate(cover.certificate, n_exp + k).cofactors
        g = ring.zero()
        for b, x, f in zip(cof, fam.elements, cover.elements):
            g = g + b * (x.num * f ** (n_exp - x.exp)) * f ** k
    return g, restriction_exponents(fam, g)


def restricts(g: RingElement, x: Fraction, k: int) -> bool:
    """(g f^e - num) f^k == 0 in R for x = num/f^e: g restricts to x in
    R[1/f] with exponent k.  Decided as num f^k == g f^(e+k) by
    rings._is_times_power; over a domain with f != 0 only k = 0 matters,
    and no power is formed.  f^k is not formed for num = 0 either."""
    num, f = x.num, x.f
    if x.ring.is_domain and not f.is_zero:
        k = 0
    elif k and not num.is_zero:
        num = num * f ** k
    return _is_times_power(num, g, f, x.exp + k)


def _alignment(fam: CompatibleFamily) -> tuple:
    """(N, k): the largest member exponent and the largest pair witness,
    k >= 1 when N = 0 so that N + k >= 1."""
    n_exp = max((x.exp for x in fam.elements), default=0)
    return n_exp, max([w[2] for w in fam.witnesses] + [0 if n_exp else 1])


def restriction_exponents(fam: CompatibleFamily, g) -> tuple:
    """The least k with restricts(g, x, k) for each member x = num/f^e of
    fam, sought up to N - e + k for (N, k) = _alignment(fam), where the
    pair witnesses promise one (restricts is monotone in k); with f = 0
    every k >= 1 holds, R[1/0] being the zero ring.  A g of None, or a
    member with no k there, is IncompatibleFamily; a least k past
    ideals.saturation_cap, which verify refuses, is ResourceExceeded."""
    n_exp, top_k = _alignment(fam)
    least = (None,) if g is None else tuple(
        next((k for k in range(n_exp - x.exp + top_k + 1)
              if (k and x.f.is_zero) or restricts(g, x, k)), None)
        for x in fam.elements)
    if None in least:
        raise IncompatibleFamily(
            "glued element fails to restrict to the family")
    cap, why = saturation_cap(g.ring)
    if max(least) > cap:
        raise ResourceExceeded(
            f"gluing.restriction_exponents: no exponent up to {why}")
    return least


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
                    [glue_element(f)[0] for f in fam.families])
