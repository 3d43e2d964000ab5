"""Finitely generated ideals and the decision procedures built on them.

Membership, radical membership, saturation and unimodularity are decided
here for every ring in the tower.  Positive answers come with explicit
witnesses (cofactors, exponents, Bezout certificates) that re-verify by
plain ring arithmetic; this is what the lattice and gluing layers lean on.

The ring-specific engines are the ideal primitives of the ring protocol
(see rings): Buchberger with cofactor tracking in the ambient free ring
for polynomial quotient rings (the ring's own relations are always
adjoined), and a gcd surrogate for Z and Z/n.  This module turns their
answers into witnesses and checks them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolated, ResourceExceeded, RingMismatch
from .limits import current_limits
from .rings import RingElement, normalize


# ---------------------------------------------------------------------------
# ideals

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis (or gcd surrogate) with its lifting data.

    basis lives in the ambient ring: the free polynomial ring for
    quotient-ring ideals, the ring itself for Z and Z/n.  lift[i][j]
    expresses basis[i] over ideal generators followed by ring relations.
    """

    ideal: FinGenIdeal
    ambient: object
    basis: tuple
    lift: tuple


@dataclass(frozen=True)
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
        ideal, ambient, tuple(RingElement(ambient, b) for b in basis),
        tuple(tuple(RingElement(ambient, c) for c in row) for row in lift))


def ideal_member(a: RingElement, ideal: FinGenIdeal):
    """Cofactors c with sum(c_i * gen_i) == a when a is in the ideal,
    else None."""
    ring = ideal.ring
    if a.ring != ring:
        raise RingMismatch(f"{a!r} not in {ring}")
    gb = groebner(ideal)
    ambient = gb.ambient
    quotients, rem = ambient.divide(a.payload, [b.payload for b in gb.basis])
    if rem:  # a nonzero remainder
        return None
    # a == sum_i q_i * basis_i, and basis_i == sum_j lift[i][j] * gen_j
    total = [ambient.zero()] * len(ideal.generators)
    for q, row in zip(quotients, gb.lift):
        if q:
            q = RingElement(ambient, q)
            total = [t + q * c for t, c in zip(total, row)]
    return tuple(normalize(ring, t.payload) for t in total)


def radical_member(a: RingElement, ideal: FinGenIdeal) -> bool:
    """Decide whether a^k lies in the ideal for some k >= 1."""
    ring = ideal.ring
    if a.ring != ring:
        raise RingMismatch(f"{a!r} not in {ring}")
    if a.is_zero:
        return True
    return ring.radical_member(a.payload,
                               [e.payload for e in ideal.generators])


def radical_witness(a: RingElement, ideal: FinGenIdeal):
    """(k, cofactors) with a^k == sum(c_i * gen_i), or None.

    Searches k = 1.. up to the exponent cap once radical_member says yes;
    raises ResourceExceeded if no witness is found under the cap.
    """
    if not radical_member(a, ideal):
        return None
    cap = current_limits().max_exponent
    power = a
    for k in range(1, cap + 1):
        cof = ideal_member(power, ideal)
        if cof is not None:
            return k, cof
        power = power * a
    raise ResourceExceeded(f"no radical witness with exponent <= {cap}")


def saturates(a: RingElement, f: RingElement) -> bool:
    """Decide whether a * f^k == 0 for some k >= 0."""
    if a.ring != f.ring:
        raise RingMismatch(f"{a.ring} vs {f.ring}")
    if a.is_zero:
        return True
    return a.ring.saturates(a.payload, f.payload)


def saturation_member(a: RingElement, f: RingElement):
    """Least k with a * f^k == 0, or None when no power works.

    The decision runs first (it does not search); the least-exponent
    scan afterwards is capped and raises ResourceExceeded when it fails
    to reach the witness.
    """
    if not saturates(a, f):
        return None
    cap = max(current_limits().max_exponent, a.ring.saturation_bound)
    acc = a
    for k in range(cap + 1):
        if acc.is_zero:
            return k
        acc = acc * f
    raise ResourceExceeded(f"no saturation exponent <= {cap}")


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
    nonzero = [(i, e) for i, e in enumerate(elements) if not e.is_zero]
    cof = ring.unit_cofactors(e.payload for _, e in nonzero)
    if cof is None:
        return None
    full = [ring.zero()] * len(elements)
    for (i, _), c in zip(nonzero, cof):
        full[i] = RingElement(ring, c)
    cert = BezoutCertificate(elements, tuple(full))
    if not cert.verify():
        raise InvariantViolated("Bezout certificate failed re-verification")
    return cert


def power_certificate(cert: BezoutCertificate, m: int) -> BezoutCertificate:
    """From sum(a_i f_i) == 1 derive sum(b_i f_i^m) == 1.

    Telescoping, one generator at a time.  Given sum(c_j g_j) == 1 with
    g_i == f_i, let x = c_i f_i and s = 1 + x + ... + x^(m-1).  Then

        1 = x^m + (1 - x) * s,    1 - x = sum_{j != i} c_j g_j,

    so c_i <- c_i^m, g_i <- f_i^m and c_j <- c_j * s (j != i) is again a
    certificate.  After every index has had its turn, every generator is
    f_i^m.  Each turn costs m multiplications for x and s, one m-th
    power and n - 1 rescaled cofactors; no ideal computation is run, so
    every ring kind takes this one path.  The result is re-verified.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    if m == 1:
        return cert
    fs = cert.generators
    one = fs[0].ring.one()
    b = list(cert.cofactors)
    for i, f in enumerate(fs):
        x = b[i] * f
        if not x.is_zero:  # x == 0 gives s == 1: the others stay as they are
            s = one
            for _ in range(m - 1):
                s = one + x * s
            b = [c if j == i else c * s for j, c in enumerate(b)]
        b[i] = b[i] ** m
    out = BezoutCertificate(tuple(f ** m for f in fs), tuple(b))
    if not out.verify():
        raise InvariantViolated("power certificate failed re-verification")
    return out
