"""Finitely generated ideals and the decision procedures built on them.

Membership, radical membership, saturation and unimodularity are decided
here for every ring in the tower.  Positive answers come with explicit
witnesses (cofactors, exponents, Bezout certificates) that re-verify by
plain ring arithmetic; this is what the lattice and gluing layers lean on.

For polynomial quotient rings the engine is Buchberger with cofactor
tracking in the ambient free ring (the ring's own relations are always
adjoined).  For Z and Z/n a gcd surrogate plays the same role.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import poly
from .errors import ResourceExceeded, RingMismatch
from .limits import current_limits
from .rings import (IntegerRing, QuotientRing, ResidueRing, RingElement,
                    normalize, polynomial_ring)


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
        g = normalize(ring, g) if not isinstance(g, RingElement) else g
        if g.ring != ring:
            raise RingMismatch(f"generator {g!r} not in {ring}")
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
    order: str


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


def _ext_gcd_list(values):
    """gcd of a list with cofactors: g = sum(c_i * v_i), g >= 0."""
    g, coeffs = 0, []
    for v in values:
        if g == 0:
            g, coeffs = abs(v), [0] * len(coeffs) + [1 if v >= 0 else -1]
            continue
        d = math.gcd(g, v)
        if d == g:
            coeffs.append(0)
            continue
        # d = s*g + t*v via the extended Euclid step
        s, t = _ext_gcd_pair(g, v)
        coeffs = [c * s for c in coeffs] + [t]
        g = d
    return g, coeffs


def _ext_gcd_pair(a, b):
    """(s, t) with s*a + t*b == gcd(a, b) for a >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


@lru_cache(maxsize=None)
def groebner(ideal: FinGenIdeal) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, cached per ideal.

    For quotient rings the computation runs in the ambient free ring
    with the ring's relations adjoined; for Z and Z/n the surrogate is
    the single gcd generator (with cofactors from extended Euclid).
    """
    ring = ideal.ring
    if isinstance(ring, IntegerRing):
        g, coeffs = _ext_gcd_list([e.payload for e in ideal.generators])
        basis = (RingElement(ring, g),) if g else ()
        lift = ((tuple(RingElement(ring, c) for c in coeffs),) if g else ())
        return GroebnerBasis(ideal, ring, basis, lift, "n/a")
    if isinstance(ring, ResidueRing):
        n = ring.modulus
        g, coeffs = _ext_gcd_list([e.payload for e in ideal.generators] + [n])
        gmod = g % n
        if gmod == 0:
            return GroebnerBasis(ideal, ring, (), (), "n/a")
        lift = (tuple(RingElement(ring, c % n) for c in coeffs[:-1]),)
        return GroebnerBasis(ideal, ring, (RingElement(ring, gmod),), lift, "n/a")
    ambient = polynomial_ring(ring.base, ring.variables, ring.order)
    gens = [e.payload for e in ideal.generators] + list(ring.relations)
    basis, cofs = poly.reduced_groebner(ambient.ctx, gens, track=True)
    basis_elts = tuple(RingElement(ambient, b) for b in basis)
    lift = tuple(tuple(RingElement(ambient, c) for c in row) for row in cofs)
    return GroebnerBasis(ideal, ambient, basis_elts, lift, ring.order)


def ideal_member(a: RingElement, ideal: FinGenIdeal):
    """Cofactors c with sum(c_i * gen_i) == a when a is in the ideal,
    else None."""
    ring = ideal.ring
    if a.ring != ring:
        raise RingMismatch(f"{a!r} not in {ring}")
    gens = ideal.generators
    if isinstance(ring, (IntegerRing, ResidueRing)):
        gb = groebner(ideal)
        n = ring.modulus if isinstance(ring, ResidueRing) else None
        if not gb.basis:
            return tuple(ring.zero() for _ in gens) if a.is_zero else None
        g = gb.basis[0].payload
        if a.payload % g != 0:
            return None
        q = a.payload // g
        cof = tuple(ring.element(q * c.payload) for c in gb.lift[0])
        return cof
    gb = groebner(ideal)
    ctx = gb.ambient.ctx
    basis_polys = [b.payload for b in gb.basis]
    lift_polys = [[c.payload for c in row] for row in gb.lift]
    total = poly.cofactors_of(ctx, a.payload, basis_polys, lift_polys,
                              len(gens) + len(ring.relations))
    if total is None:
        return None
    return tuple(normalize(ring, c) for c in total[:len(gens)])


def _int_radical_member(a: int, d: int) -> bool:
    """a in sqrt(<d>) over Z: d == 0 reduces to a == 0, else check
    d | a^bitlen(d) (no prime exponent in d exceeds log2 d)."""
    if d == 0:
        return a == 0
    return pow(a, d.bit_length(), d) == 0


def radical_member(a: RingElement, ideal: FinGenIdeal) -> bool:
    """Decide whether a^k lies in the ideal for some k >= 1."""
    ring = ideal.ring
    if a.ring != ring:
        raise RingMismatch(f"{a!r} not in {ring}")
    if a.is_zero:
        return True
    if isinstance(ring, IntegerRing):
        d, _ = _ext_gcd_list([e.payload for e in ideal.generators])
        return _int_radical_member(a.payload, d)
    if isinstance(ring, ResidueRing):
        d, _ = _ext_gcd_list([e.payload for e in ideal.generators]
                             + [ring.modulus])
        return _int_radical_member(a.payload, d)
    # Rabinowitsch: a in sqrt(I) iff 1 in I + relations + <1 - t*a>
    ctx = ring.ctx.extended()
    gens = [poly.p_extend(e.payload) for e in ideal.generators]
    gens += [poly.p_extend(r) for r in ring.relations]
    t = poly.var_poly(ctx, ctx.nvars - 1)
    gens.append(poly.p_sub(ctx, poly.const_poly(ctx, 1),
                           poly.p_mul(ctx, t, poly.p_extend(a.payload))))
    basis, _ = poly.reduced_groebner(ctx, gens, stop_at_one=True)
    return len(basis) == 1 and poly.mono_deg(basis[0][0][0]) == 0


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


@lru_cache(maxsize=None)
def _saturation_basis(ring: QuotientRing, f_payload):
    """Groebner basis of relations + <1 - t*f> in the extended free ring;
    cached per (ring, f) so fraction equality tests share it."""
    ctx = ring.ctx.extended()
    gens = [poly.p_extend(r) for r in ring.relations]
    t = poly.var_poly(ctx, ctx.nvars - 1)
    gens.append(poly.p_sub(ctx, poly.const_poly(ctx, 1),
                           poly.p_mul(ctx, t, poly.p_extend(f_payload))))
    basis, _ = poly.reduced_groebner(ctx, gens, stop_at_one=True)
    return ctx, basis


def saturates(a: RingElement, f: RingElement) -> bool:
    """Decide whether a * f^k == 0 for some k >= 0."""
    if a.ring != f.ring:
        raise RingMismatch(f"{a.ring} vs {f.ring}")
    ring = a.ring
    if a.is_zero:
        return True
    if isinstance(ring, IntegerRing):
        return f.payload == 0  # a*f = 0 with a != 0 forces f == 0 in Z
    if isinstance(ring, ResidueRing):
        n = ring.modulus
        power = a.payload
        for _ in range(n.bit_length() + 1):
            if power % n == 0:
                return True
            power = power * f.payload
        return False
    ctx, basis = _saturation_basis(ring, f.payload)
    return not poly.normal_form(ctx, poly.p_extend(a.payload), basis)


def saturation_member(a: RingElement, f: RingElement):
    """Least k with a * f^k == 0, or None when no power works.

    The decision runs first (it does not search); the least-exponent
    scan afterwards is capped and raises ResourceExceeded when it fails
    to reach the witness.
    """
    if not saturates(a, f):
        return None
    ring = a.ring
    cap = current_limits().max_exponent
    if isinstance(ring, ResidueRing):
        cap = max(cap, ring.modulus.bit_length() + 1)
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
    cof = None
    if isinstance(ring, IntegerRing):
        g, coeffs = _ext_gcd_list([e.payload for _, e in nonzero])
        if g == 1:
            cof = [ring.element(c) for c in coeffs]
    elif isinstance(ring, ResidueRing):
        n = ring.modulus
        g, coeffs = _ext_gcd_list([e.payload for _, e in nonzero] + [n])
        if g == 1:
            cof = [ring.element(c) for c in coeffs[:-1]]
    else:
        gens = [e.payload for _, e in nonzero] + list(ring.relations)
        raw = poly.one_cofactors(ring.ctx, gens)
        if raw is not None:
            cof = [normalize(ring, c) for c in raw[:len(nonzero)]]
    if cof is None:
        return None
    full = [ring.zero()] * len(elements)
    for (i, _), c in zip(nonzero, cof):
        full[i] = c
    cert = BezoutCertificate(elements, tuple(full))
    if not cert.verify():
        raise AssertionError("Bezout certificate failed re-verification")
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
        raise AssertionError("power certificate failed re-verification")
    return out
