"""The tower of supported computable commutative rings.

Four kinds of ring are supported: the integers, residue rings Z/n,
quotients of polynomial rings over Q or a prime field by a finitely
generated ideal, and the localization R[1/f] of any of these at one
element.  Every element is kept in a canonical form (integers, residues
in [0, n), the normal form modulo the reduced Groebner basis of the
defining relations, or a canonical fraction, see localization), so ring
equality is plain payload equality.

Every kind answers one protocol, so the layers above never ask which
kind of ring they hold.  Z and Z/n share one implementation in which Z
is the modulus-0 case; their payloads are ints and their ideals are
principal, so a gcd with extended-Euclid cofactors stands in for a
Groebner basis.  Quotient rings compute with Buchberger in the free
polynomial ring, with the relations adjoined; the quotient with no
variables and no relations is the field itself (FieldRing), which
computes on its one coefficient instead.  R[1/f] answers the part of
the protocol that lattices and homs into it use.

- variables, relations: generator names and defining relations as
  free-ring polynomials; both () for Z, Z/n and R[1/f].
- leading_monomials: those of the relations' reduced Groebner basis; a
  payload's monomials are the ones none of them divides.
- characteristic: n for Z/n and p over Fp, 0 for Z and over Q.
- is_q_algebra: whether Q maps in (quotients over Q, localized or not).
- is_trivial: whether 1 == 0 (never for Z and Z/n).
- is_domain: True for Z, a field and a free polynomial ring, which are
  domains; False for the other kinds, where no answer is sought.
- zero(), one(), from_int(k), element(raw), gens().
- canonical(raw): a raw value (int, Fraction, a monomial dict, for
  quotients a term tuple, for R[1/f] a written localization.Fraction)
  read as a canonical payload (Q coefficients as in poly.Rationals).
- is_zero(x), sort_key(x), render(x): payload tests, order, and the
  text str() prints (the canonical text below; num / (f)^k for R[1/f]).
- localization(f): R[1/f] for an element f of this ring.
- unit_monomials: each variable name -> its exponent tuple.
- add, sub, mul, neg: arithmetic on canonical payloads.
- power_weight: a payload's weight in the term-pair cap of _power, which
  forms every power; None for one bounded coefficient (Z/n, Fp).
- terms(payload): the payload as (exponent tuple, coefficient) pairs;
  an integer is one term with no exponents.
- elements(): every element of a finite ring, in a fixed order;
  CodomainNotFinite otherwise, ResourceExceeded when there are more
  than Limits.max_assignments of them.
- ambient: the domain A that ideal computations run in, the ring being
  A modulo its relations and its characteristic: the free polynomial
  ring of a quotient (the field itself for a field), Z for Z and Z/n.
  R[1/f] has none and raises UnsupportedBase (see localization).
- ideal_basis(gens): (basis, lift): the reduced Groebner basis (or the
  gcd) of the generators plus relations, in the ambient ring, and a
  function that takes multipliers q aligned with basis, not all zero,
  and returns cofactors c over the generators followed by the relations
  with sum(c_j * g_j) == sum(q_i * basis_i).  Nothing is lifted until it
  is called (for quotients, by a reverse pass over the Groebner run's
  trace, see poly); lift is None when the basis is empty.
- divide(x, basis): quotients and remainder of x by such a basis;
  over a domain, also by one nonzero element (_exact_quotient).
- unit_cofactors(gens): None when 1 is not in <gens>, else a function of
  no arguments that builds cofactors c with sum(c_i * gens_i) == 1.  A
  decision only asks whether it is None, and so builds no cofactor.
- local_unit_cofactors(gens, f): the same test in R[1/f], for payloads
  gens of R and an element f of R; the function builds written
  cofactors (num_i, e_i), num_i in R, with sum(num_i / f^e_i * gens_i)
  == 1 in R[1/f].  Quotient rings run the Rabinowitsch test itself and
  build no R[1/f]; the other kinds ask their (cheap) localization.
- saturation_bound: an exponent that a k with a * f^k == 0 (see
  ideals.saturates) never needs to exceed (n's bit length + 1 for Z/n),
  or 0 when the ring gives none.
- random_element(rng), sample_homs(rng, budget): a small random
  element, and homs into small value rings, for the locality trials
  that schemes.qcqs_certificate samples (Z, Z/n and quotients only).

zero, one, from_int, element, gens and elements give RingElements; the
other methods take and return payloads.  Homomorphisms are finite data:
one codomain element per domain variable.  Construction verifies
well-definedness (every relation maps to zero, and the characteristic
is compatible) and keeps only the images.  Homs are evaluated on
payloads: evaluate substitutes the images' payloads for the generators
with the codomain's payload arithmetic, mapping each coefficient once
per call, and make_hom (on the relations) and hom_apply both call it.
enumerate_homs walks on indices into the codomain's elements instead.

Results and certificates write elements in one canonical text, which
terms_to_str prints: a sum of monomials in descending term order with
no repeated or zero terms, such as 6 * x^2 - 5/3 or -(3 * x^2) + y,
each coefficient as the payload holds it (any integer over Z, [0, n)
over Z/n, [1, p) over Fp, lowest terms over Q); over a quotient ring no
monomial is divisible by a leading monomial of the relation basis.
read_terms scans a text back, and serialize.element_from_str accepts
exactly this text.
"""
from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction as _Q
from functools import cached_property
from operator import add

from . import poly
from .errors import (CodomainNotFinite, InvalidRing, InvariantViolated,
                     NotWellDefined, ResourceExceeded, RingMismatch,
                     UnknownVariable)
from .limits import current_limits
from .poly import Poly, PolyContext, PrimeField, Rationals
from .records import record


# ---------------------------------------------------------------------------
# powers

def _check_digits(c, k: int = 1) -> None:
    """Refuse c^k, for a coefficient c (a fraction by its larger part),
    past Python's int-to-text digit limit (none when that is 0)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = k * (max(abs(c.numerator), c.denominator).bit_length() - 1)
    if limit and bits * 3 >= limit * 10:  # log10(2) > 3/10
        raise ResourceExceeded(
            f"a power of at least {bits * 3 // 10} digits is "
            f"past sys.get_int_max_str_digits() = {limit}")


def _coefficient_weight(c) -> int:
    """c's size in 64-bit words, at least 1; past 32 words, where c can
    pass a digit limit (at least 640 digits), after _check_digits."""
    words = ((abs(c.numerator) | c.denominator).bit_length() + 63) >> 6
    if words > 32:
        _check_digits(c)
    return words


def _weight(terms) -> int:
    """len(terms) times the weight of its largest coefficient."""
    return len(terms) * _coefficient_weight(max(
        [max(abs(c.numerator), c.denominator) for _, c in terms], default=0))


def _power(x, e: int, mul, weight=None):
    """x^e for e >= 1 by square-and-multiply under mul: the one routine
    that forms powers.  Given weight (a ring's power_weight), a product
    a * b past max_assignments weight(a) * weight(b) term pairs is
    refused, the cap read once per power; indices multiply plainly."""
    if weight is not None and e > 1:
        cap, plain = current_limits().max_assignments, mul

        def mul(a, b):
            if (pairs := weight(a) * weight(b)) > cap:
                raise ResourceExceeded(f"rings.power: {pairs} term pairs "
                                       f"exceed max_assignments={cap}")
            return plain(a, b)
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


# ---------------------------------------------------------------------------
# ring descriptions

class _Ring:
    """What all ring kinds share."""

    variables = ()
    relations = ()
    leading_monomials = ()
    is_domain = False
    power_weight = None

    def element(self, raw):
        return normalize(self, raw)

    def is_zero(self, x) -> bool:
        return not x

    def sort_key(self, x):
        return x

    @cached_property
    def unit_monomials(self) -> dict:
        """Each variable name -> its exponent tuple."""
        n = len(self.variables)
        return {v: tuple(int(i == k) for i in range(n))
                for k, v in enumerate(self.variables)}

    def gens(self):
        return tuple(self.var(v) for v in self.variables)

    def render(self, x) -> str:
        return terms_to_str(self.terms(x), self.variables)

    def local_unit_cofactors(self, gens, f):
        L = self.localization(f)
        cof = L.unit_cofactors([L._make(g, 0) for g in gens])
        if cof is None:
            return None
        return lambda: [(w.num, w.exp) for w in map(L.written, cof())]


class _Integers(_Ring):
    """Z/n with n = self.modulus, and Z itself as n = 0."""

    is_q_algebra = False
    is_trivial = False  # Z and Z/n (n >= 2) never are

    @property
    def characteristic(self) -> int:
        return self.modulus

    @property
    def ambient(self):
        return IntegerRing()

    @property
    def saturation_bound(self) -> int:
        return self.modulus.bit_length() + 1

    def _reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def zero(self):
        return RingElement(self, 0)

    def one(self):
        return RingElement(self, 1)

    def from_int(self, k: int):
        return RingElement(self, self._reduce(k))

    def canonical(self, raw) -> int:
        if isinstance(raw, dict):  # a term dict; its one monomial is ()
            raw = raw.get((), 0)
        if isinstance(raw, _Q):
            if raw.denominator != 1:
                raise ValueError(f"{raw} is not an integer")
            raw = raw.numerator
        if not isinstance(raw, int):
            raise TypeError(f"cannot read {raw!r} in {self}")
        return self._reduce(raw)

    def add(self, x, y):
        return self._reduce(x + y)

    def sub(self, x, y):
        return self._reduce(x - y)

    def mul(self, x, y):
        return self._reduce(x * y)

    def neg(self, x):
        return self._reduce(-x)

    def terms(self, x):
        return (((), x),) if x else ()

    def localization(self, f):
        from .localization import LocalizedIntegers  # built on this module
        return LocalizedIntegers(self, f)

    def elements(self) -> list:
        if not self.modulus:
            raise CodomainNotFinite(f"{self} is infinite")
        _check_assignments("elements", self.modulus, f"elements of {self}")
        return [RingElement(self, k) for k in range(self.modulus)]

    def ideal_basis(self, gens):
        """The gcd of the generators and n, lifted by extended Euclid."""
        g, coeffs = _ext_gcd_list(list(gens) + [self.modulus])
        g = self._reduce(g)
        if g == 0:
            return (), None
        row = [self._reduce(c) for c in coeffs[:-1]]
        return (g,), lambda quotients: [self._reduce(quotients[0] * c)
                                        for c in row]

    def divide(self, x, basis):
        if not basis:
            return [], x
        (g,) = basis
        return [x // g], x % g

    def unit_cofactors(self, gens):
        g, coeffs = _ext_gcd_list(list(gens) + [self.modulus])
        if g != 1:
            return None
        return lambda: [self._reduce(c) for c in coeffs[:-1]]

    def random_element(self, rng):
        return self.element(rng.randrange(self.modulus) if self.modulus
                            else rng.randrange(-6, 7))

    def sample_homs(self, rng, budget: int) -> list:
        """The hom into Z/m for budget random m in [2, 40) (for Z), or
        for every divisor m >= 2 of n (for Z/n)."""
        if self.modulus:
            ms = [m for m in range(2, self.modulus + 1)
                  if self.modulus % m == 0]
        else:
            ms = [rng.randrange(2, 40) for _ in range(budget)]
        return [make_hom(self, ResidueRing(m)) for m in ms]


@record(frozen=True)
class IntegerRing(_Integers):
    """The ring of integers."""

    modulus = 0
    is_domain = True
    power_weight = staticmethod(_coefficient_weight)

    def __str__(self):
        return "Z"


@record(frozen=True)
class ResidueRing(_Integers):
    """Z/n for a modulus n >= 2."""

    modulus: int

    def __post_init__(self):
        if type(self.modulus) is not int:
            raise InvalidRing(f"modulus {self.modulus!r} is not an integer")
        if self.modulus < 2:
            raise InvalidRing(f"modulus {self.modulus} is below 2")

    def __str__(self):
        return f"Z/{self.modulus}"


def _check_assignments(where: str, count: int, what: str,
                       exp: int = 1) -> None:
    """Raise ResourceExceeded before an enumeration of count^exp items,
    named whole when short and as count^exp otherwise."""
    cap = current_limits().max_assignments
    # past cap's bit length, count^exp >= 2^exp > cap: no power formed
    if count > 1 and exp > cap.bit_length() or count ** exp > cap:
        size = (count ** exp if exp == 1 or exp * count.bit_length() <= 256
                else f"{count}^{exp}")
        raise ResourceExceeded(
            f"{where}: {size} {what} exceed max_assignments={cap}")


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


@record(frozen=True)
class QuotientRing(_Ring):
    """base[x1, ..., xn] / <relations>, for base Q or Fp.

    With no variables and no relations this is the base field, built as
    a FieldRing; with no relations it is the free polynomial ring.  Relations are stored as canonical
    free-ring polynomials; their reduced Groebner basis is computed once
    and cached, and every element payload is a normal form modulo it.
    """

    base: Rationals | PrimeField
    variables: tuple = ()
    relations: tuple = ()
    order: str = "grevlex"

    saturation_bound = 0

    def __new__(cls, base=None, variables=(), relations=(), order="grevlex"):
        # copy and pickle call this with no arguments: keep cls then
        if base is not None and not variables and not relations:
            cls = FieldRing
        return super().__new__(cls)

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InvalidRing("variable names must be distinct")
        for rel in self.relations:
            for mono, _ in rel:
                if len(mono) != len(self.variables):
                    raise InvalidRing("relation arity does not match variables")

    @cached_property
    def ctx(self) -> PolyContext:
        return PolyContext(self.base, len(self.variables), self.order)

    @cached_property
    def relation_basis(self) -> tuple:
        rels = [r for r in self.relations if r]
        if len(rels) > 1:
            return poly.buchberger(self.ctx, rels)[0]
        # no relation (a free ring, such as every ambient ring), or one,
        # whose principal ideal's reduced basis is itself made monic
        return tuple(self.base.lift(r, 1, r[0][1]) for r in rels)

    @cached_property
    def leading_monomials(self) -> tuple:
        return tuple(g[0][0] for g in self.relation_basis)

    @cached_property
    def is_trivial(self) -> bool:
        """True when 1 = 0 here, i.e. the relations generate everything."""
        return any(f and poly.mono_deg(f[0][0]) == 0 for f in self.relation_basis)

    @cached_property
    def is_q_algebra(self) -> bool:
        return self.base.characteristic == 0

    @cached_property
    def is_domain(self) -> bool:
        return not self.relations

    @cached_property
    def characteristic(self) -> int:
        return self.base.characteristic

    @cached_property
    def power_weight(self):  # none for Fp itself: one bounded coefficient
        return _weight if self.variables or self.is_q_algebra else None

    @cached_property
    def ambient(self) -> QuotientRing:
        return polynomial_ring(self.base, self.variables, self.order)

    def __str__(self):
        base = str(self.base)
        if not self.variables:
            return base
        vars_part = f"[{','.join(self.variables)}]"
        if not self.relations:
            return base + vars_part
        rels = ", ".join(terms_to_str(r, self.variables) for r in self.relations)
        return f"{base}{vars_part}/({rels})"

    def zero(self):
        return RingElement(self, ())

    def one(self):
        return normalize(self, 1)

    def from_int(self, k: int):
        return normalize(self, k)

    def var(self, name: str):
        if name not in self.variables:
            raise UnknownVariable(f"{name} not declared in {self}")
        return normalize(self, poly.var_poly(self.ctx, self.variables.index(name)))

    def canonical(self, raw) -> Poly:
        ctx = self.ctx
        if isinstance(raw, (int, _Q)):
            p = poly.const_poly(ctx, raw)
        elif isinstance(raw, (dict, tuple)):
            coerce = ctx.field.coerce
            p = poly.poly_from_dict(ctx, {m: coerce(c) for m, c in (
                raw.items() if isinstance(raw, dict) else raw)})
        else:
            raise TypeError(f"cannot read {raw!r} as a polynomial")
        return poly.normal_form(ctx, p, self.relation_basis)

    def add(self, x, y):
        return poly.p_add(self.ctx, x, y)

    def sub(self, x, y):
        return poly.p_sub(self.ctx, x, y)

    def mul(self, x, y):
        # products of normal forms need re-reduction; sums do not
        return poly.normal_form(self.ctx, poly.p_mul(self.ctx, x, y),
                                self.relation_basis)

    def neg(self, x):
        return poly.p_neg(self.ctx, x)

    def terms(self, x):
        return x

    def sort_key(self, x):
        return tuple([(m, (c.numerator, c.denominator)) for m, c in x])

    def localization(self, f):
        from .localization import LocalizedQuotient  # built on this module
        return LocalizedQuotient(self, f)

    def elements(self) -> list:
        if self.is_q_algebra:
            if self.is_trivial:
                return [self.zero()]
            raise CodomainNotFinite(f"{self} is infinite")
        # p^top > max_assignments, so past top monomials the count is
        # a lower bound and the search stops
        top = current_limits().max_assignments.bit_length()
        monos = poly.quotient_monomial_basis(self.ctx, self.relation_basis,
                                             top)
        if monos is None:
            raise CodomainNotFinite(f"{self} has an infinite monomial basis")
        more = "or more " if len(monos) > top else ""
        _check_assignments("elements", self.base.p,
                           f"{more}elements of {self}", len(monos))
        return [RingElement(self, poly.poly_from_dict(self.ctx,
                                                      dict(zip(monos, c))))
                for c in itertools.product(range(self.base.p),
                                           repeat=len(monos))]

    def ideal_basis(self, gens):
        basis, trace = poly.buchberger(
            self.ctx, list(gens) + list(self.relations), track=True)
        return basis, (trace.lift if basis else None)

    def divide(self, x, basis):
        return poly.p_divmod(self.ctx, x, list(basis))

    def unit_cofactors(self, gens):
        gens = list(gens)
        cof = poly.one_cofactors(self.ctx, gens + list(self.relations))
        if cof is None:
            return None
        return lambda: [poly.normal_form(self.ctx, c, self.relation_basis)
                        for c in cof()[:len(gens)]]

    def local_unit_cofactors(self, gens, f):
        """One Buchberger run on gens + relations + <t*f - 1>
        (_rabinowitsch); a cofactor c(t) is written by its normal form
        modulo the monic t*f - 1 with t = 1/f (_inverse_substituted)."""
        gens = list(gens)
        if f.is_zero:  # R[1/0] is the zero ring: every cofactor is 0
            return lambda: [(self.zero(), 0)] * len(gens)
        ctx, ext = _rabinowitsch(self, gens, f.payload)
        cof = poly.one_cofactors(ctx, ext)
        if cof is None:
            return None
        rel = ext[-1]
        monic = (ctx.field.lift(rel, 1, rel[0][1]),)
        return lambda: [
            _inverse_substituted(self, f, poly.normal_form(ctx, c, monic))
            for c in cof()[:len(gens)]]

    def random_element(self, rng):
        payload = {}
        for _ in range(rng.randrange(1, 3)):
            mono = tuple(rng.randrange(0, 2) for _ in self.variables)
            payload[mono] = rng.randrange(-3, 4)
        return self.element(payload)

    def sample_homs(self, rng, budget: int) -> list:
        """Over Fp, every hom into Fp.  Over Q, budget random
        endomorphisms sending each variable to a constant c in [-3, 3]
        or, with probability 0.3, to itself plus c (those that are not
        well defined are skipped)."""
        if not self.is_q_algebra:
            return enumerate_homs(self, QuotientRing(self.base))
        homs = []
        for _ in range(budget):
            images = []
            for name in self.variables:
                c = self.from_int(rng.choice((0, 1, -1, 2, -2, 3, -3)))
                images.append(self.var(name) + c if rng.random() < 0.3
                              else c)
            try:
                homs.append(make_hom(self, self, tuple(images)))
            except NotWellDefined:
                continue
        return homs


class FieldRing(QuotientRing):
    """The field k (Q or Fp) as a ring: what QuotientRing(k) builds.

    Payloads keep the shape of a constant polynomial, ((), c) for c != 0
    and () for 0, so printing, serialization and certificates read them
    as before.  Arithmetic and the ideal primitives work on the one
    coefficient c, with no Groebner engine: every nonzero element is a
    unit, so an ideal is (1) as soon as one generator is nonzero, and
    its cofactors are the inverse of the first nonzero generator and
    zeros elsewhere, which is what the engine returns.
    """

    is_trivial = False

    def _scalar(self, c) -> Poly:
        return (((), c),) if c else ()

    def canonical(self, raw) -> Poly:
        if isinstance(raw, dict):
            raw = raw.get((), 0)
        elif isinstance(raw, tuple):
            raw = dict(raw).get((), 0)
        elif not isinstance(raw, (int, _Q)):
            raise TypeError(f"cannot read {raw!r} in {self}")
        return self._scalar(self.base.coerce(raw))

    def add(self, x, y):
        if not x:
            return y
        if not y:
            return x
        return self._scalar(self.base.add(x[0][1], y[0][1]))

    def sub(self, x, y):
        if not y:
            return x
        if not x:
            return self.neg(y)
        return self._scalar(self.base.sub(x[0][1], y[0][1]))

    def mul(self, x, y):
        if not x or not y:
            return ()
        return (((), self.base.mul(x[0][1], y[0][1])),)

    def neg(self, x):
        return (((), self.base.neg(x[0][1])),) if x else ()

    def localization(self, f):
        from .localization import LocalizedField  # built on this module
        return LocalizedField(self, f)

    local_unit_cofactors = _Ring.local_unit_cofactors  # k[1/c] is k or 0

    def ideal_basis(self, gens):
        cof = self.unit_cofactors(gens)
        if cof is None:
            return (), None
        cof = cof()
        return (self._scalar(self.base.one),), \
            lambda quotients: [self.mul(quotients[0], c) for c in cof]

    def divide(self, x, basis):
        # a basis here is () or one nonzero c: (1,) from ideal_basis
        if not basis:
            return [], x
        inverse = self._scalar(self.base.invert(basis[0][0][1]))
        return [self.mul(x, inverse)], ()

    def unit_cofactors(self, gens):
        gens = list(gens)
        for i, g in enumerate(gens):
            if g:
                return lambda: [(((), self.base.invert(g[0][1])),)
                                if j == i else () for j in range(len(gens))]
        return None


def _rabinowitsch(ring: QuotientRing, gens, f):
    """(ctx, gens + relations + <t*f - 1>) in the free ring with one more
    variable t; 1 is in their ideal iff f in sqrt(<gens> + relations),
    and a reduces to 0 by its Groebner basis iff a * f^k lies in
    <gens> + relations.  With no gens these are the relations of
    R[1/f]'s presentation (localization).  t*f - 1 is f's terms shifted
    by t, an order-preserving shift, followed by the constant -1, the
    least monomial."""
    ctx = ring.ctx.extended()
    ext = [poly.p_extend(g) for g in (*gens, *ring.relations)]
    fld = ctx.field
    ext.append(tuple([(m + (1,), c) for m, c in f])
               + (((0,) * ctx.nvars, fld.neg(fld.one)),))
    return ctx, ext


def _inverse_substituted(ring, f: RingElement, x):
    """(num, top) with x == num / f^top for x a polynomial in ring[t], t
    its last variable and standing for 1/f: sum_k g_k * t^k is
    (sum_k g_k * f^(top - k)) / f^top."""
    slices = {}
    for mono, coeff in x:
        slices.setdefault(mono[-1], {})[mono[:-1]] = coeff
    top = max(slices, default=0)
    num = ring.zero()
    for k, terms in slices.items():
        num = num + normalize(ring, terms) * f ** (top - k)
    return num, top


def _is_times_power(y: RingElement, x: RingElement, f: RingElement,
                    d: int) -> bool:
    """y == x * f^d, f^d formed under the term-pair cap (_power), but not
    over a polynomial ring that is a domain: x * f^d leads with lm(x) +
    d * lm(f), and y must then be x times f^d by _exact_quotient."""
    ring = y.ring
    if not d or f.is_zero or x.is_zero:
        return y == (x if not d else ring.zero())
    if not (ring.is_domain and ring.variables):
        return y == x * f ** d
    if y.is_zero:
        return False
    lead = tuple(map(add, ring.terms(x.payload)[0][0],
                     [e * d for e in ring.terms(f.payload)[0][0]]))
    return (ring.terms(y.payload)[0][0] == lead
            and _exact_quotient(y, f, d) == x)


def _exact_quotient(y: RingElement, f: RingElement, d: int):
    """The q with y == q * f^d, for f != 0 in a domain, or None when f^d
    does not divide y: f divides y d times (the ring's divide), each
    division leaving remainder 0, and no power of f is formed."""
    ring, q, basis = y.ring, y.payload, (f.payload,)
    for _ in range(d):
        (q,), rem = ring.divide(q, basis)
        if rem:
            return None
    return RingElement(ring, q)


RingDesc = object  # IntegerRing | ResidueRing | QuotientRing | LocalizedRing


def polynomial_ring(base, names, order: str = "grevlex") -> QuotientRing:
    """Free polynomial ring over Q or Fp."""
    return QuotientRing(base, tuple(names), (), order)


def quotient_by(ring: QuotientRing, relations) -> QuotientRing:
    """Quotient a polynomial ring by additional relations (RingElements
    of that ring, or of the underlying free ring)."""
    rels = ring.relations + tuple(r.payload for r in relations if r.payload)
    return QuotientRing(ring.base, ring.variables, rels, ring.order)


# ---------------------------------------------------------------------------
# elements

@record(frozen=True)
class RingElement:
    """An element in canonical form; equality is payload equality."""

    ring: RingDesc
    payload: int | Poly

    @property
    def is_zero(self) -> bool:
        return self.ring.is_zero(self.payload)

    def sort_key(self):
        return self.ring.sort_key(self.payload)

    def __str__(self):
        return self.ring.render(self.payload)

    def __repr__(self):
        return f"<{self} : {self.ring}>"

    def _other(self, other):
        """The payload of other, read into this element's ring."""
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other.payload
        return self.ring.canonical(other)

    def __add__(self, other):
        return RingElement(self.ring, self.ring.add(self.payload, self._other(other)))

    def __radd__(self, other):
        return RingElement(self.ring, self.ring.add(self._other(other), self.payload))

    def __sub__(self, other):
        return RingElement(self.ring, self.ring.sub(self.payload, self._other(other)))

    def __rsub__(self, other):
        return RingElement(self.ring, self.ring.sub(self._other(other), self.payload))

    def __mul__(self, other):
        return RingElement(self.ring, self.ring.mul(self.payload, self._other(other)))

    def __rmul__(self, other):
        return RingElement(self.ring, self.ring.mul(self._other(other), self.payload))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.payload))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not ring operations")
        if not k:
            return self.ring.one()
        return RingElement(self.ring, _power(self.payload, k, self.ring.mul,
                                             self.ring.power_weight))


def normalize(ring, raw) -> RingElement:
    """Canonical form of a raw element expression; idempotent."""
    if isinstance(raw, RingElement):
        if raw.ring != ring:
            raise RingMismatch(f"element of {raw.ring} used in {ring}")
        return raw
    return RingElement(ring, ring.canonical(raw))


def is_unit(a: RingElement):
    """Inverse witness b with a*b == 1, or None.

    This is the test 1 in <a> (plus the relations); the cofactor of a is
    the inverse, and it is checked before it is returned.
    """
    cof = a.ring.unit_cofactors([a.payload])
    if cof is None:
        return None
    inv = RingElement(a.ring, cof()[0])
    if a * inv != a.ring.one():
        raise InvariantViolated("inverse witness failed to verify")
    return inv


# ---------------------------------------------------------------------------
# canonical text

def terms_to_str(terms, variables) -> str:
    """The canonical text (module docstring) of (exponent tuple,
    coefficient) pairs in descending term order; ResourceExceeded when
    a number in it has more digits than Python prints."""
    parts = []
    try:
        for mono, c in terms:
            num, den = c.numerator, c.denominator  # an int is num/1
            neg = num < 0
            if neg:
                num = -num
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(variables, mono) if e]
            if den != 1:
                factors.insert(0, f"{num}/{den}")
            elif num != 1 or not factors:
                factors.insert(0, str(num))
            body = " * ".join(factors)
            if parts:
                parts.append(f" - {body}" if neg else f" + {body}")
            elif neg:
                parts.append(f"-({body})" if len(factors) > 1 else f"-{body}")
            else:
                parts.append(body)
    except ValueError:  # str() of an int past Python's digit limit
        big = max(num, den, *mono)
        digits = int(big.bit_length() * math.log10(2)) + 1
        digits -= big < 10 ** (digits - 1)
        raise ResourceExceeded(
            f"cannot print a number of {digits} digits, past "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}"
        ) from None
    return "".join(parts) or "0"


# One factor of a canonical text with what joins it to the text before
# it: nothing, "-" or "-(" at the start, " * " inside a term, and " + "
# or " - " between terms; then a coefficient, or a variable with its
# exponent, and the ")" that may close a first term.  The scan takes
# more than the language: a ")" anywhere, variables in any order, any
# exponent, coefficient or term order, repeated and zero terms.  The
# payload must print back to the text, and that rejects all of these.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a variable
_FACTOR = re.compile(r"(-\(?| [-+*] |)(?:([0-9]+)(?:/([0-9]+))?"
                     rf"|({_NAME.pattern})(?:\^([0-9]+))?)\)?")


def read_terms(ring, text: str):
    """The term dict text spells over ring, or None when it is not a
    signed sum of products of a coefficient and variables."""
    variables = ring.variables
    terms = []  # (coefficient, exponents) per term, in text order
    pos = 0
    for m in _FACTOR.finditer(text):
        if m.start() != pos:
            return None
        pos = m.end()
        join, num, den, name, power = m.groups()
        if join == " * ":
            if not terms or name is None:  # a coefficient must come first
                return None
        else:
            # a sign or nothing opens the text, " + " or " - " a later term
            if (len(join) == 3) != bool(terms):
                return None
            coeff = -1 if "-" in join else 1
            if den is not None:
                if not (ring.is_q_algebra and int(den)):
                    return None
                coeff *= _Q(int(num), int(den))
            elif num is not None:
                coeff *= int(num)
            exps = [0] * len(variables)
            terms.append((coeff, exps))
            if name is None:
                continue
        try:
            k = variables.index(name)
        except ValueError:  # not a variable of ring
            return None
        exps[k] += int(power) if power is not None else 1
    if pos != len(text) or not terms:
        return None
    return {tuple(exps): c for c, exps in terms if c}


# ---------------------------------------------------------------------------
# homomorphisms

@record(frozen=True)
class RingHom:
    """A ring map given by generator images, verified at construction."""

    domain: RingDesc
    codomain: RingDesc
    generator_images: tuple = ()

    def __call__(self, a: RingElement) -> RingElement:
        return hom_apply(self, a)

    def __str__(self):
        if self.domain.variables:
            body = ", ".join(f"{v} -> {img}" for v, img in
                             zip(self.domain.variables, self.generator_images))
            return f"{{{body}}} : {self.domain} -> {self.codomain}"
        return f"canonical : {self.domain} -> {self.codomain}"


def _coefficient_images(domain, codomain):
    """The codomain payload of a domain coefficient under any hom out of
    domain, each distinct coefficient read once per caller; rational
    coefficients only reach a Q-algebra or the zero ring, where they
    map to 0."""
    if domain.is_q_algebra and not codomain.is_q_algebra:
        zero = codomain.zero().payload
        return lambda c: zero
    memo = {}

    def image(c):
        p = memo.get(c)
        if p is None:
            p = memo[c] = codomain.canonical(c)
        return p
    return image


def _base_compatible(domain, codomain) -> None:
    """Raise NotWellDefined unless a hom can exist on coefficients."""
    char = domain.characteristic
    if char and not codomain.from_int(char).is_zero:
        raise NotWellDefined(f"char {char} incompatible with {codomain}")
    if domain.is_q_algebra and not (codomain.is_q_algebra
                                    or codomain.is_trivial):
        raise NotWellDefined(f"no map from Q into {codomain}")


def _evaluate(polys, images, add, mul, weight=None) -> list:
    """The value of each polynomial at the generator images, None for a
    polynomial with no terms.

    A polynomial is a sequence of (exponent tuple, coefficient image)
    terms; images, coefficient images and values are whatever add and
    mul compute on: codomain payloads for evaluate, element indices for
    schemes.points_over.  Each power images[k]^e is computed once per
    call, by _power under weight (the codomain's power_weight).
    """
    powers = {}  # (generator index, exponent) -> images[k] ** e
    out = []
    for terms in polys:
        total = None
        for mono, term in terms:
            for k, e in enumerate(mono):
                if e:
                    pw = powers.get((k, e))
                    if pw is None:
                        pw = powers[k, e] = _power(images[k], e, mul, weight)
                    term = mul(term, pw)
            total = term if total is None else add(total, term)
        out.append(total)
    return out


def evaluate(domain, codomain, images, polys) -> list:
    """The codomain payload of each domain polynomial (exponent tuple,
    coefficient pairs, such as domain.terms(payload) or a relation) with
    generator k sent to the codomain payload images[k].

    This is how every hom computes: make_hom on the relations, hom_apply
    on one element.  Each distinct coefficient is mapped once per call.
    """
    coeff = _coefficient_images(domain, codomain)
    values = _evaluate([[(mono, coeff(c)) for mono, c in p] for p in polys],
                       images, codomain.add, codomain.mul,
                       codomain.power_weight)
    return [codomain.zero().payload if v is None else v for v in values]


def make_hom(domain, codomain, images=()) -> RingHom:
    """Build and verify a homomorphism from generator images."""
    images = tuple(normalize(codomain, i) for i in images)
    if len(images) != len(domain.variables):
        raise NotWellDefined(
            f"expected {len(domain.variables)} images, got {len(images)}")
    _base_compatible(domain, codomain)
    values = evaluate(domain, codomain, [i.payload for i in images],
                      domain.relations)
    bad = next((i for i, v in enumerate(values) if not codomain.is_zero(v)),
               None)
    if bad is not None:
        raise NotWellDefined(
            f"relation {terms_to_str(domain.relations[bad], domain.variables)}"
            f" maps to {codomain.render(values[bad])} != 0")
    return RingHom(domain, codomain, images)


def hom_apply(phi: RingHom, a: RingElement) -> RingElement:
    if a.ring != phi.domain:
        raise RingMismatch(f"{a!r} is not in the domain of {phi}")
    (value,) = evaluate(phi.domain, phi.codomain,
                        [i.payload for i in phi.generator_images],
                        [phi.domain.terms(a.payload)])
    return RingElement(phi.codomain, value)


def hom_compose(outer: RingHom, inner: RingHom) -> RingHom:
    """(outer o inner); re-verified at construction."""
    if inner.codomain != outer.domain:
        raise RingMismatch("codomain of inner must match domain of outer")
    images = tuple(hom_apply(outer, img) for img in inner.generator_images)
    return make_hom(inner.domain, outer.codomain, images)


# ---------------------------------------------------------------------------
# finite enumeration

def _index_arithmetic(codomain, elements):
    """(index of payload, add, mul) on indices into elements.

    Each sum or product of a pair of indices is computed once by the
    codomain's own arithmetic and memoized; the memos fill only with the
    pairs an enumeration asks for, so a large field costs only what is
    used, never a |B|^2 table.
    """
    n = len(elements)
    payloads = [e.payload for e in elements]
    index = {p: i for i, p in enumerate(payloads)}

    def memoized(op):
        memo = {}

        def apply(i, j):
            key = i * n + j
            r = memo.get(key)
            if r is None:
                r = memo[key] = index[op(payloads[i], payloads[j])]
            return r
        return apply

    return index, memoized(codomain.add), memoized(codomain.mul)


def _substitute(rels: list, pw: dict, add, mul) -> list:
    """Substitute the first remaining generator into partially evaluated
    relations, on element indices.

    Each relation maps the exponents of the generators not yet substituted
    to a coefficient index; pw[e] is the index of the first generator's
    image to the e.  Terms that agree on the remaining exponents are
    summed, so once every generator is substituted each relation is
    {(): the index of its image}.
    """
    out = []
    for rel in rels:
        acc = {}
        for mono, c in rel.items():
            e, rest = mono[0], mono[1:]
            term = mul(c, pw[e]) if e else c
            prev = acc.get(rest)
            acc[rest] = term if prev is None else add(prev, term)
        out.append(acc)
    return out


def enumerate_homs(domain, codomain) -> list:
    """All homomorphisms into a finite ring, in lexicographic assignment
    order over the codomain's element enumeration (itertools.product
    order).

    This checks |codomain|^generators assignments, and raises
    ResourceExceeded before trying any when that exceeds
    Limits.max_assignments.  The walk runs on indices into
    codomain.elements(): coefficient images, powers (of the exponents
    that occur in the relations, no others) and partial substitutions
    are ints, and sums and products of index pairs are memoized (see
    _index_arithmetic).  Each prefix of an assignment is substituted
    once for all of its completions; the last generator's terms are
    evaluated per candidate and a candidate is dropped at its first
    relation that is not zero.  Only accepted assignments are mapped
    back to RingElements, each image being an element of
    codomain.elements(), so that schemes.points_over can read the images
    back as indices and pull opens back on them.
    """
    elements = codomain.elements()
    try:
        _base_compatible(domain, codomain)
    except NotWellDefined:
        return []
    nvars = len(domain.variables)
    _check_assignments("rings.enumerate_homs", len(elements),
                       f"assignments into {codomain}", nvars)
    index, add, mul = _index_arithmetic(codomain, elements)
    zero = index[codomain.zero().payload]
    coeff = _coefficient_images(domain, codomain)
    rels = [{mono: index[coeff(c)] for mono, c in rel}
            or {(0,) * nvars: zero} for rel in domain.relations]
    homs = []

    def accept(prefix):
        homs.append(RingHom(domain, codomain,
                            tuple(elements[i] for i in prefix)))

    if not nvars:
        if all(rel[()] == zero for rel in rels):
            accept(())
        return homs
    exps = {e for rel in domain.relations for m, _ in rel for e in m} - {0}
    table = [{e: _power(a, e, mul) for e in exps}
             for a in range(len(elements))]

    def extend(rels, prefix):
        if len(prefix) < nvars - 1:
            for a, pw in enumerate(table):
                extend(_substitute(rels, pw, add, mul), prefix + (a,))
            return
        # the last generator: each relation is univariate in it
        univariate = [[(mono[0], c) for mono, c in rel.items()]
                      for rel in rels]
        for a, pw in enumerate(table):
            for terms in univariate:
                total = None
                for e, c in terms:
                    term = mul(c, pw[e]) if e else c
                    total = term if total is None else add(total, term)
                if total != zero:
                    break
            else:
                accept(prefix + (a,))

    extend(rels, ())
    return homs
