"""Localization away from a single element: R[1/f] as a ring kind.

R[1/f] answers the ring protocol (see rings): its elements are
RingElements with canonical payloads, so == decides equality, its
lattice is a ZarElt over it and homs into it are RingHoms.  Each base
kind builds its own localization (ring.localization(f)); R[1/f] builds
none and raises UnsupportedBase naming the product to localize R at
instead.  The payloads are

- over Z, the pair (num, exp) of the fraction num/f^exp with the least
  exponent, unique because Z is a domain (Z[1/0] is the zero ring);
- over Z/n, (num, 0) with num in Z/m for the largest divisor m of n
  coprime to f, since (Z/n)[1/f] is Z/m (the zero ring when m = 1);
- over k[x]/I, the payload of num*y^exp in the Rabinowitsch
  presentation k[x, y]/(I + <y*f - 1>) (rings._rabinowitsch), whose
  arithmetic it is;
- over the field k itself (rings.FieldRing), the field payload of
  num*f^(-exp), since k[1/f] is k for f != 0 (and the zero ring, with
  payload 0, for f = 0); no basis is computed.

The kernel of R -> R[1/f] is the set of elements that some power of f
kills, so ideals.saturates decides a * f^k == 0 as a/1 == 0 here.

Radical membership is decided back in R on numerators, the denominators
being units: a/f^k lies in sqrt(<b_i/f^k_i>) iff a*f lies in
sqrt(<b_i>) in R.  Over Z and Z/n, extended Euclid gives g = gcd(b_i,
n) = sum a_i b_i.  The ideal is the unit ideal iff g | f^e for some e,
the least such e being found by dividing gcd(g, f) out of g as m is
found from n; then c_i = a_i f^k_i / g = a_i f^k_i (f^e / g) / f^e
gives 1 = sum c_i b_i/f^k_i.

Fraction is the written form num/f^exp that scripts, glue families and
certificates carry; L.element reads one, L.written writes a payload.
"""
from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache, partial

from . import poly
from .errors import (BaseMismatch, InvalidWitness, RingMismatch,
                     UnsupportedBase)
from .ideals import fin_gen_ideal, radical_member
from .records import record
from .rings import (QuotientRing, RingElement, RingHom, _ext_gcd_list,
                    _rabinowitsch, _Ring, make_hom, normalize)


@record(frozen=True)
class Fraction:
    """num / f^exp over the base ring as written; read it with
    L.element, compare two with frac_eq."""

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


@record(frozen=True)
class LocalizedRing(_Ring):
    """R[1/f]; localize picks the subclass that holds the payload
    arithmetic (_make, add, sub, mul, neg, written) for the base kind."""

    ring: object
    f: RingElement  # an element of ring, as localize makes sure

    def __str__(self):
        return f"{self.ring}[1/({self.f})]"

    @property
    def is_q_algebra(self) -> bool:
        return self.ring.is_q_algebra

    @cached_property
    def is_trivial(self) -> bool:
        """True when f is nilpotent, so that 1 = 0 here."""
        return self.one().is_zero

    @property
    def presentation(self) -> QuotientRing:
        raise UnsupportedBase(f"{self.ring} has no polynomial presentation")

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    from_int = _Ring.element

    def canonical(self, raw):
        """A written Fraction of this ring, or a raw base value r as r/1."""
        if isinstance(raw, Fraction):
            if raw.ring != self.ring or raw.f != self.f:
                raise BaseMismatch(f"{raw!r} is not a fraction of {self}")
            return self._make(raw.num.payload, raw.exp)
        return self._make(self.ring.canonical(raw), 0)

    def fraction(self, num, exp: int = 0) -> Fraction:
        return Fraction(self.ring, self.f, normalize(self.ring, num), exp)

    def from_base(self, r) -> Fraction:
        """r/1, the written image of r under the canonical map."""
        return self.fraction(r, 0)

    def render(self, x) -> str:
        fr = self.written(x)
        return str(fr) if fr.exp else str(fr.num)

    def radical_member(self, a, gens) -> bool:
        ideal = fin_gen_ideal(self.ring, [self.written(g).num for g in gens])
        return radical_member(self.written(a).num * self.f, ideal)

    def localization(self, g):
        """R[1/f][1/g] is R[1/(f*num)] for g = num/f^e, and only base
        rings are localized: raise UnsupportedBase naming that product."""
        num = self.written(g.payload).num
        raise UnsupportedBase(f"{self} is a localization already: localize "
                              f"{self.ring} at ({self.f}) * ({num}) instead")


class LocalizedIntegers(LocalizedRing):
    """Z[1/f] and (Z/n)[1/f], on (num, exp) pairs (module docstring)."""

    @cached_property
    def _modulus(self) -> int:
        """m for Z/n (1 when f is nilpotent), 0 for Z."""
        return _strip(self.ring.modulus, self.f.payload)[0]

    def _make(self, num: int, exp: int):
        f, m = self.f.payload, self._modulus
        if m:
            return num * pow(f, -exp, m) % m, 0
        if not f:  # Z[1/0] is the zero ring
            return 0, 0
        while exp and num % f == 0:
            num //= f
            exp -= 1
        return num, exp

    def _aligned(self, x, y, op):
        (a, i), (b, j) = x, y
        f, k = self.f.payload, max(i, j)
        return self._make(op(a * f ** (k - i), b * f ** (k - j)), k)

    def add(self, x, y):
        return self._aligned(x, y, operator.add)

    def sub(self, x, y):
        return self._aligned(x, y, operator.sub)

    def mul(self, x, y):
        return self._make(x[0] * y[0], x[1] + y[1])

    def neg(self, x):
        return self._make(-x[0], x[1])

    def is_zero(self, x) -> bool:
        return not x[0]

    def unit_cofactors(self, gens):  # see the module docstring
        written = [self.written(g) for g in gens]
        if self.is_trivial:  # 1 = 0: every cofactor is 0
            return [self.zero().payload] * len(written)
        f = self.f.payload
        g, coeffs = _ext_gcd_list([w.num.payload for w in written]
                                  + [self.ring.modulus])
        rest, e = _strip(g, f)
        if rest != 1:  # g is no unit here
            return None
        scale = f ** e // g  # 1/g == scale / f^e
        return [self._make(a * scale * f ** w.exp, e)
                for a, w in zip(coeffs, written)]

    def written(self, x) -> Fraction:
        return self.fraction(x[0], x[1])


def _strip(n: int, f: int):
    """(r, e) for n >= 0: r is n with every prime that n shares with f
    divided out (0 for n = 0), and e the least exponent with n | r * f^e."""
    e = 0
    while n > 1 and (g := math.gcd(n, f)) > 1:
        n //= g
        e += 1
    return n, e


class _Presented(LocalizedRing):
    """(k[x]/I)[1/f], with the Rabinowitsch presentation; its payloads
    are those of its payload ring, which does the arithmetic."""

    def sort_key(self, x):
        return self.ring.sort_key(x)

    @property
    def inverse_variable(self) -> str:
        return self.presentation.variables[-1]

    @cached_property
    def presentation(self) -> QuotientRing:
        """base[y]/(relations + <y*f - 1>) (Rabinowitsch presentation),
        with y renamed y1, y2, ... if the base already has a y."""
        base = self.ring
        name = "y"
        k = 0
        while name in base.variables:
            k += 1
            name = f"y{k}"
        _, rels = _rabinowitsch(base, (), self.f.payload)
        return QuotientRing(base.base, base.variables + (name,), tuple(rels),
                            base.order)

    @cached_property
    def _payloads(self):
        return self.presentation

    def add(self, x, y):
        return self._payloads.add(x, y)

    def sub(self, x, y):
        return self._payloads.sub(x, y)

    def mul(self, x, y):
        return self._payloads.mul(x, y)

    def neg(self, x):
        return self._payloads.neg(x)

    def unit_cofactors(self, gens):
        gens = list(gens)
        if self.is_trivial:  # 1 = 0: every cofactor is 0
            return [()] * len(gens)
        return self._payloads.unit_cofactors(gens)


class LocalizedQuotient(_Presented):
    """(k[x]/I)[1/f]; payloads are normal forms in its presentation (see
    the module docstring)."""

    def _make(self, num, exp: int):
        pres = self.presentation
        ctx, p = pres.ctx, poly.p_extend(num)
        if exp:
            y = (0,) * (ctx.nvars - 1) + (exp,)
            p = poly.p_term_mul(ctx, p, y, ctx.field.one)
        return poly.normal_form(ctx, p, pres.relation_basis)

    def written(self, x) -> Fraction:
        return _inverse_substituted(self, x)


class LocalizedField(_Presented):
    """k[1/c] for the field k (rings.FieldRing), on k's own payloads: k
    itself when c != 0, where num/c^exp is num * c^(-exp), and the zero
    ring when c = 0.  The presentation is built only when asked for."""

    @cached_property
    def _payloads(self):
        return self.ring

    def _make(self, num, exp: int):
        k, c = self.ring, self.f.payload
        if not c:
            return ()  # k[1/0] is the zero ring
        if not exp or not num:
            return num
        return k._scalar(k.base.div(num[0][1], c[0][1] ** exp))

    def written(self, x) -> Fraction:
        return Fraction(self.ring, self.f, RingElement(self.ring, x), 0)


LOCALIZATION_CACHE_SIZE = 1024  # (ring, f) pairs whose R[1/f] is kept


@lru_cache(maxsize=LOCALIZATION_CACHE_SIZE)
def _localization(ring, f: RingElement) -> LocalizedRing:
    """ring.localization(f), one per (ring, f) among the
    LOCALIZATION_CACHE_SIZE most recently used, so that what it computes
    once (its modulus, its presentation and that one's basis) is
    computed once."""
    return ring.localization(f)


def localize(ring, f) -> LocalizedRing:
    return _localization(ring, normalize(ring, f))


def frac_eq(a: Fraction, b: Fraction) -> bool:
    """r/f^n == r'/f^m in R[1/f] (BaseMismatch across R or f)."""
    L = _localization(a.ring, a.f)
    return L.canonical(a) == L.canonical(b)


# ---------------------------------------------------------------------------
# the universal property and the canonical maps

def canonical_map(L: LocalizedRing) -> RingHom:
    """r |-> r/1 : R -> R[1/f]."""
    return make_hom(L.ring, L, [L.element(L.from_base(v))
                                for v in L.ring.gens()])


@record(frozen=True)
class InducedMap:
    """psi : R[1/f] -> A, psi(r/f^n) = phi(r) * w^n, for phi : R -> A (a
    RingHom or any callable on base elements, such as another canonical
    map) and an inverse w of phi(f); on elements and written fractions."""

    source: LocalizedRing
    phi: object
    witness: object

    def __call__(self, a):
        fr = self.source.written(normalize(self.source, a).payload)
        return self.phi(fr.num) * self.witness ** fr.exp


def universal_property(L: LocalizedRing, phi, witness) -> InducedMap:
    """The unique map out of R[1/f] extending phi once phi(f) is a unit;
    the witness is checked before anything else."""
    check = phi(L.f) * witness
    if check != check.ring.one():
        raise InvalidWitness(f"phi(f) * w = {check} != 1")
    return InducedMap(L, phi, witness)


@record(frozen=True)
class FractionMap:
    """r/f^n |-> phi(r) * c^n / g^n : R[1/f] -> A[1/g] on written
    fractions, for phi : R -> A with phi(f) * c == g: the double
    localization maps and the squares of pulled-back covers."""

    source: LocalizedRing
    target: LocalizedRing
    phi: object
    factor: RingElement

    def __call__(self, a: Fraction) -> Fraction:
        if a.ring != self.source.ring or a.f != self.source.f:
            raise BaseMismatch(f"{a!r} is not a fraction of {self.source}")
        return self.target.fraction(self.phi(a.num) * self.factor ** a.exp,
                                    a.exp)


def double_localization_maps(ring, fi, fj):
    """(chi_left, chi_right) : R[1/f_i], R[1/f_j] -> R[1/(f_i f_j)],
    multiplying through by the other element: r/f_i^n |-> r*f_j^n /
    (f_i f_j)^n, and symmetrically."""
    fi, fj = normalize(ring, fi), normalize(ring, fj)
    target, same = localize(ring, fi * fj), partial(normalize, ring)
    return (FractionMap(localize(ring, fi), target, same, fj),
            FractionMap(localize(ring, fj), target, same, fi))


# ---------------------------------------------------------------------------
# the presentation

def to_presentation(L: LocalizedRing, a: Fraction) -> RingElement:
    """r/f^n |-> r * y^n reduced in base[y]/(relations + <y*f - 1>)."""
    pres = L.presentation
    fr = L.written(normalize(L, a).payload)
    y = pres.var(L.inverse_variable)
    return normalize(pres, poly.p_extend(fr.num.payload)) * y ** fr.exp


def from_presentation(L: LocalizedRing, e: RingElement) -> Fraction:
    """Substitute y = 1/f: sum_k g_k * y^k |-> (sum_k g_k f^(K-k)) / f^K."""
    if e.ring != L.presentation:
        raise RingMismatch(f"{e!r} is not in the presentation of {L}")
    return _inverse_substituted(L, e.payload)


def _inverse_substituted(L: LocalizedRing, x) -> Fraction:
    """The fraction of a polynomial in base[t], t its last variable and
    standing for 1/f: the written form of a LocalizedQuotient payload
    and of an element of the presentation."""
    base, f = L.ring, L.f
    slices = {}
    for mono, coeff in x:
        slices.setdefault(mono[-1], {})[mono[:-1]] = coeff
    top = max(slices, default=0)
    num = base.zero()
    for k, terms in slices.items():
        num = num + normalize(base, terms) * f ** (top - k)
    return Fraction(base, f, num, top)
