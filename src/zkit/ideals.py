"""Finitely generated ideals and the decision procedures built on them.

Membership, radical membership, saturation and unimodularity are decided
here for every ring in the tower.  Positive answers come with explicit
witnesses (cofactors, exponents, Bezout certificates) that re-verify by
plain ring arithmetic; this is what the lattice and gluing layers lean on.

The ring-specific engines are the ideal primitives of the ring protocol
(see rings): Buchberger in the ambient free ring for polynomial
quotient rings (the ring's own relations are always adjoined), and a gcd
surrogate for Z and Z/n.  This module turns their answers into
witnesses and checks them.  Witnesses are built on demand: a refuted
membership or unimodularity test builds no cofactor, and a positive
membership answer lifts only the combination it returns, by the reverse
pass over the Groebner run's trace (see poly).  One unit-cofactor test
in A[1/a], A the ring's ambient domain, decides radical membership and
builds the radical witness when asked (see radical_witness).  A runs it
itself (rings: local_unit_cofactors): over a polynomial ring one
Buchberger run in A[t] with t*a - 1 adjoined decides, no A[1/a] is
built, and only a witness writes cofactors back with t = 1/a.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolated, ResourceExceeded, RingMismatch
from .limits import current_limits
from .localization import localize
from .records import record
from .rings import RingElement, normalize


# ---------------------------------------------------------------------------
# ideals

@record(frozen=True)
class FinGenIdeal:
    """A finitely generated ideal; zero generators are normalized away.

    The empty generator tuple denotes the zero ideal.  Cofactor vectors
    returned by the membership procedures align with .generators.
    """

    ring: object
    generators: tuple


def fin_gen_ideal(ring, generators) -> FinGenIdeal:
    gens = []
    for g in generators:
        g = normalize(ring, g)
        if not g.is_zero:
            gens.append(g)
    return FinGenIdeal(ring, tuple(gens))


@record(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis (or gcd surrogate) with its lift.

    basis lives in the ambient ring: the free polynomial ring for
    quotient-ring ideals, Z for Z and Z/n.  lift(q), for payloads q
    aligned with basis and not all zero, gives the cofactors of
    sum(q_i * basis_i) over the ideal generators followed by the ring
    relations (the ring protocol's ideal_basis); it is None for an empty
    basis.  No cofactor is stored: each call lifts its one combination.
    """

    ideal: FinGenIdeal
    ambient: object
    basis: tuple
    lift: tuple


@record(frozen=True)
class BezoutCertificate:
    """Cofactors a_i with sum(a_i * f_i) == 1; re-verifiable by .verify()."""

    generators: tuple
    cofactors: tuple

    @property
    def ring(self):
        return self.generators[0].ring if self.generators else None

    def verify(self) -> bool:
        if not self.generators or len(self.cofactors) != len(self.generators):
            return False  # no ring to check the sum in, or a cut list
        ring = self.generators[0].ring
        total = ring.zero()
        for a, f in zip(self.cofactors, self.generators):
            total = total + a * f
        return total == ring.one()


GROEBNER_CACHE_SIZE = 1024  # ideals whose bases groebner keeps


@lru_cache(maxsize=GROEBNER_CACHE_SIZE)
def groebner(ideal: FinGenIdeal) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, cached per ideal (the
    GROEBNER_CACHE_SIZE most recently used).

    For quotient rings the computation runs in the ambient free ring
    with the ring's relations adjoined; for Z and Z/n the surrogate is
    the single gcd generator (with cofactors from extended Euclid).
    """
    ring = ideal.ring
    ambient = ring.ambient
    basis, lift = ring.ideal_basis(e.payload for e in ideal.generators)
    return GroebnerBasis(
        ideal, ambient, tuple(RingElement(ambient, b) for b in basis), lift)


def ideal_member(a: RingElement, ideal: FinGenIdeal):
    """Cofactors c with sum(c_i * gen_i) == a when a is in the ideal,
    else None."""
    ring = ideal.ring
    if a.ring != ring:
        raise RingMismatch(f"{a!r} not in {ring}")
    gb = groebner(ideal)
    quotients, rem = gb.ambient.divide(a.payload,
                                       [b.payload for b in gb.basis])
    if rem:  # a nonzero remainder
        return None
    n = len(ideal.generators)
    if not any(quotients):  # a == 0
        return (ring.zero(),) * n
    # a == sum_i q_i * basis_i: lift that one combination to the generators
    return tuple(normalize(ring, c) for c in gb.lift(quotients)[:n])


def _radical_unit_test(a: RingElement, ideal: FinGenIdeal):
    """(f, cofactors) of radical_witness's test: f is a in the ring's
    ambient domain A, and the written unit cofactors in A[1/f] of the
    generators, relations and characteristic are None exactly when a is
    outside the radical."""
    ring = ideal.ring
    if a.ring != ring:
        raise RingMismatch(f"{a!r} not in {ring}")
    A = ring.ambient
    f = RingElement(A, a.payload)  # a canonical payload in A as well
    gens = ([e.payload for e in ideal.generators] + list(ring.relations)
            + [A.from_int(ring.characteristic).payload])
    return f, A.local_unit_cofactors(gens, f)


def radical_member(a: RingElement, ideal: FinGenIdeal) -> bool:
    """Decide whether a^k lies in the ideal for some k >= 1: the unit
    test of radical_witness, which builds no cofactor."""
    return _radical_unit_test(a, ideal)[1] is not None


def radical_witness(a: RingElement, ideal: FinGenIdeal):
    """(k, cofactors) with a^k == sum(c_i * gen_i), or None.

    The ring is its ambient domain A modulo its relations and its
    characteristic, so a is in the radical iff these and the generators
    g_i give 1 = sum(num_i / a^e_i * g_i) in A[1/a]; then a^k =
    sum(num_i * a^(k - e_i) * g_i) in A, a domain, and so in the ring,
    for k the largest e_i (at least 1), refused past the exponent cap.
    """
    f, cof = _radical_unit_test(a, ideal)
    if cof is None:
        return None
    written = cof()
    k = max([1] + [e for _, e in written])
    cap = current_limits().max_exponent
    if k > cap:
        raise ResourceExceeded(
            f"ideals.radical_witness: exponent {k} exceeds max_exponent={cap}")
    return k, tuple(normalize(ideal.ring, (num * f ** (k - e)).payload)
                    for num, e in written[:len(ideal.generators)])


def saturates(a: RingElement, f: RingElement) -> bool:
    """Decide whether a * f^k == 0 for some k >= 0: whether a/1 == 0 in
    R[1/f], whose kernel these elements are."""
    if a.ring != f.ring:
        raise RingMismatch(f"{a.ring} vs {f.ring}")
    if a.is_zero:
        return True
    L = localize(a.ring, f)
    return L.equal(L.from_base(a), 0)


def saturation_cap(ring) -> tuple:
    """(cap, text): the largest k of a * f^k == 0 over ring that a search
    tries or verify accepts, max(max_exponent, saturation_bound), and the
    text that names it in a refusal."""
    top, bound = current_limits().max_exponent, ring.saturation_bound
    cap = max(top, bound)
    return cap, f"{cap} = max(max_exponent={top}, saturation_bound={bound})"


def saturation_member(a: RingElement, f: RingElement):
    """Least k with a * f^k == 0, or None when no power works.

    The decision runs first (it does not search); the least-exponent
    scan afterwards is capped (saturation_cap) and raises
    ResourceExceeded when it fails to reach the witness.
    """
    if not saturates(a, f):
        return None
    cap, why = saturation_cap(a.ring)
    acc = a
    for k in range(cap + 1):
        if acc.is_zero:
            return k
        acc = acc * f
    raise ResourceExceeded(f"ideals.saturation_member: exponent {cap + 1} "
                           f"exceeded {why} with no saturation exponent")


def unimodular_certificate(elements):
    """Bezout certificate for 1 in <elements>, or None.

    Cofactors align with the input list (zero generators included); the
    certificate is re-verified before being returned.
    """
    elements = tuple(elements)
    if not elements:
        return None
    ring = elements[0].ring
    for e in elements:
        if e.ring != ring:
            raise RingMismatch("mixed rings in unimodularity test")
    return _bezout(ring, elements)


def power_certificate(cert: BezoutCertificate, m: int) -> BezoutCertificate:
    """From sum(a_i f_i) == 1 derive sum(b_i f_i^m) == 1.

    The b_i are the ring's own unit cofactors of the f_i^m (the same
    step unimodular_certificate takes), re-verified; the input
    certificate shows that they exist, since the m-th powers of a cover
    generate the unit ideal again.  Their size is that of the ring's
    cofactors, not a power of the a_i.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    if m == 1:
        return cert
    fs = cert.generators
    out = _bezout(fs[0].ring, tuple(f ** m for f in fs))
    if out is None:
        raise InvariantViolated("the powers of a cover generate no unit ideal")
    return out


def _bezout(ring, elements: tuple):
    """The ring's unit cofactors of elements, as a re-verified
    certificate aligned with them (a zero element gets a zero
    cofactor), or None when 1 is not in their ideal."""
    nonzero = [(i, e) for i, e in enumerate(elements) if not e.is_zero]
    cof = ring.unit_cofactors(e.payload for _, e in nonzero)
    if cof is None:
        return None
    full = [ring.zero()] * len(elements)
    for (i, _), c in zip(nonzero, cof()):
        full[i] = RingElement(ring, c)
    cert = BezoutCertificate(elements, tuple(full))
    if not cert.verify():
        raise InvariantViolated("Bezout certificate failed re-verification")
    return cert
