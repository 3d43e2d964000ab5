"""Sparse multivariate polynomials over exact coefficient fields.

A polynomial is a tuple of (monomial, coefficient) pairs sorted in
descending monomial order with no zero coefficients; monomials are
exponent tuples.  The zero polynomial is the empty tuple.  Coefficients
live in one of two fields: the rationals (exact fractions.Fraction
arithmetic) or a prime field (ints reduced mod p).

The Groebner engine (division and Buchberger) computes in the field's
`engine` ring.  Over Fp that is the field itself.  Over Q it is the
integers: Buchberger keeps integer-primitive polynomials (content
divided out, positive leading coefficient), and division takes cleared
denominators (`Rationals.integral`).  One division loop serves both:
eliminating a term c against a leading coefficient a is the engine's
step (m, q) with m*c == q*a, which scales the working polynomial by m
and subtracts q times the shifted divisor.  Over the integers m = a/g
and q = c/g with g = gcd(c, a); over Fp, m = 1 and q = c/a.
Fractions appear only where results leave the engine
(`Rationals.lift`): the monic reduced basis, the cofactors, and the
quotients and remainder of p_divmod and normal_form.

The Buchberger engine optionally tracks cofactors: each basis element
then carries its expression as a combination of the original generators,
which is what turns ideal-membership answers into checkable certificates.
Inside the engine a cofactor vector over Q is kept as integer
polynomials with one common denominator, updated once per reduction.

Each term order has an ascending key (`PolyContext.key`) and a
descending one (`PolyContext.desc_key`), computed once per monomial
wherever monomials are sorted or queued.  Division keeps the working
terms in a heap on the descending key and pops the largest each step;
Buchberger keeps pending S-pairs in a heap of (key of the lcm, insertion
number), which picks the pair with the smallest lcm and, among equal
lcms, the one added first (normal selection).  Both reproduce exactly
what a scan of all terms or all pairs would pick (tests/helpers.py keeps
the scan as the reference).

Buchberger skips S-pairs by the Gebauer-Moeller criteria (J. Symbolic
Comput. 6, 1988).  When an element t enters the basis, a pending pair
(i, j) goes when lm(t) divides lcm(i, j) and both lcm(i, t) and lcm(j, t)
differ from it (B); of the new pairs (k, t), one goes when another's lcm
properly divides its own (M), only the earliest of those sharing an lcm
stays (F), and none of those sharing an lcm stays when one of them has
coprime leading monomials.  The pairs that survive are processed in the
order the scan reference picks them.  Under normal selection every pair
the criteria remove would reduce to zero at the point a criterion-free
run reaches it, so not only the reduced basis, which is unique, but also
every cofactor is the same as without the criteria.  Cyclic-5 reduces
103 S-pairs where it took 733.

Working over Q on integer multiples changes no choice the engine makes:
pairs are chosen by leading monomials only, and each polynomial the
engine reduces is a nonzero integer multiple of the one the Fraction
arithmetic would reduce, with the same terms.  So the S-pair trace and
the pair count are those of the field arithmetic, and the monic basis,
quotients, remainders and cofactors are equal to it exactly.

A coefficient is zero exactly when it is falsy (Fraction or int).
"""
from __future__ import annotations

from fractions import Fraction as _Q
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd, lcm
from operator import add, le, mul, neg, sub

from .errors import (InvalidRing, InvariantViolated, NonInvertibleDenominator,
                     ResourceExceeded)
from .limits import current_limits, stats
from .records import record

Mono = tuple  # exponent tuple
Poly = tuple  # ((mono, coeff), ...) descending, no zero coefficients


# ---------------------------------------------------------------------------
# coefficient fields

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 with the fixed witnesses."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record(frozen=True)
class _Integers:
    """The coefficients of the Q engine: ints, on integer-primitive
    polynomials (content divided out, positive leading coefficient)."""

    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return value
        raise TypeError(f"cannot coerce {value!r} into Z")

    add = staticmethod(add)
    sub = staticmethod(sub)
    mul = staticmethod(mul)
    neg = staticmethod(neg)

    def step(self, c, a):
        """(m, q) with m*c - q*a == 0: eliminating a term c against a
        leading coefficient a scales the working polynomial by m."""
        g = gcd(c, a)
        return a // g, c // g

    def unit(self, f):
        """The content of f, signed like its leading coefficient."""
        g = gcd(*[c for _, c in f])
        return g if f[0][1] > 0 else -g

    def divide_out(self, f, s):
        return tuple([(m, c // s) for m, c in f])

    def unscale(self, vec, d, s):
        """The vector vec/(d*s) as (vec', d') in lowest terms, d' > 0."""
        d *= s
        h = gcd(d, *[c for v in vec for _, c in v])
        if d < 0:
            h = -h
        if h == 1:
            return vec, d
        return [tuple([(m, c // h) for m, c in v]) for v in vec], d // h


_ZZ = _Integers()


@record(frozen=True)
class Rationals:
    """The field of rational numbers; coefficients are fractions.Fraction.

    The Groebner engine works over `engine`, the integers: `integral`
    clears denominators on the way in and `lift` divides on the way out.
    """

    characteristic = 0

    zero = _Q(0)
    one = _Q(1)
    engine = _ZZ

    def coerce(self, value):
        if isinstance(value, _Q):
            return value
        if isinstance(value, int):
            return _Q(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        return a / b

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def integral(self, f):
        """(L, L*f) with L the least common denominator of f."""
        dens = [c.denominator for _, c in f]
        den = lcm(*dens)
        if den == 1:
            return 1, tuple([(m, c.numerator) for m, c in f])
        return den, tuple([(m, c.numerator * (den // d))
                           for (m, c), d in zip(f, dens)])

    def lift(self, f, num, den):
        """The engine polynomial f times num/den, with Fraction
        coefficients."""
        if den == 1:  # Fraction(n) skips the gcd of Fraction(n, d)
            return tuple([(m, _Q(c * num)) for m, c in f])
        return tuple([(m, _Q(c * num, den)) for m, c in f])

    def __str__(self):
        return "Q"


@record(frozen=True)
class PrimeField:
    """The prime field with p elements; coefficients are ints in [0, p).

    The Groebner engine works over the field itself.
    """

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidRing(f"{self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    @property
    def engine(self):
        return self

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, _Q):
            den = value.denominator % self.p
            if den == 0:
                raise NonInvertibleDenominator(
                    f"denominator {value.denominator} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into Fp({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    # the engine's side: the multiplier is always 1, and elements are
    # made monic, so cofactor denominators stay 1

    def step(self, c, a):
        return 1, c * pow(a, -1, self.p) % self.p

    def unit(self, f):
        return f[0][1]

    def divide_out(self, f, s):
        inv, p = pow(s, -1, self.p), self.p
        return tuple([(m, c * inv % p) for m, c in f])

    def unscale(self, vec, d, s):
        s = s * d % self.p
        if s == 1:
            return vec, 1
        return [self.divide_out(v, s) for v in vec], 1

    def integral(self, f):
        return 1, f

    def lift(self, f, num, den):
        if num == den:
            return f
        return self.divide_out(f, den * pow(num, -1, self.p) % self.p)

    def __str__(self):
        return f"Fp({self.p})"


Field = object  # Rationals | PrimeField


# ---------------------------------------------------------------------------
# monomials and orders

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


# Each order has an ascending key (larger key = larger monomial) and a
# descending key (smaller key = larger monomial), so that sorts and heaps
# can put the largest monomial first without reverse=True or a lambda.

def _key_lex(m: Mono):
    return m


def _desc_lex(m: Mono):
    return tuple(map(neg, m))


def _key_grlex(m: Mono):
    return (sum(m), m)


def _desc_grlex(m: Mono):
    return (-sum(m), *map(neg, m))


def _key_grevlex(m: Mono):
    # larger key = larger monomial: compare degree first, then the
    # negated reversed exponents (last variable weighs least).
    return (sum(m), tuple(map(neg, reversed(m))))


def _desc_grevlex(m: Mono):
    return (-sum(m), *reversed(m))


# order name -> (ascending key, descending key)
ORDER_KEYS = {"lex": (_key_lex, _desc_lex),
              "grlex": (_key_grlex, _desc_grlex),
              "grevlex": (_key_grevlex, _desc_grevlex)}


@record(frozen=True)
class PolyContext:
    """Ambient data for polynomial arithmetic: field, arity, term order."""

    field: Field
    nvars: int
    order: str = "grevlex"

    def __post_init__(self):
        if self.order not in ORDER_KEYS:
            raise ValueError(f"unknown monomial order {self.order!r}")

    @cached_property
    def key(self):
        return ORDER_KEYS[self.order][0]

    @cached_property
    def desc_key(self):
        return ORDER_KEYS[self.order][1]

    @cached_property
    def engine(self) -> "PolyContext":
        """The context the Groebner engine computes in: the integers for
        Q, the field itself for Fp."""
        fld = self.field.engine
        if fld is self.field:
            return self
        return PolyContext(fld, self.nvars, self.order)

    def extended(self, extra: int = 1) -> "PolyContext":
        """Context with extra variables appended (they sort smallest in
        grevlex, which keeps Rabinowitsch-style computations cheap)."""
        return PolyContext(self.field, self.nvars + extra, self.order)


# ---------------------------------------------------------------------------
# construction and arithmetic

def poly_from_dict(ctx: PolyContext, d: dict) -> Poly:
    monos = [m for m, c in d.items() if c]
    if len(monos) > 1:
        monos.sort(key=ctx.desc_key)
    return tuple([(m, d[m]) for m in monos])


def const_poly(ctx: PolyContext, c) -> Poly:
    c = ctx.field.coerce(c)
    if c == ctx.field.zero:
        return ()
    return (((0,) * ctx.nvars, c),)


def var_poly(ctx: PolyContext, i: int) -> Poly:
    mono = tuple(1 if j == i else 0 for j in range(ctx.nvars))
    return ((mono, ctx.field.one),)


def p_add(ctx: PolyContext, f: Poly, g: Poly) -> Poly:
    d = dict(f)
    fld = ctx.field
    fadd, zero = fld.add, fld.zero
    for m, c in g:
        s = fadd(d.get(m, zero), c)
        if s:
            d[m] = s
        else:
            d.pop(m, None)
    return poly_from_dict(ctx, d)


def p_neg(ctx: PolyContext, f: Poly) -> Poly:
    fld = ctx.field
    return tuple((m, fld.neg(c)) for m, c in f)


def p_sub(ctx: PolyContext, f: Poly, g: Poly) -> Poly:
    return p_add(ctx, f, p_neg(ctx, g))


def p_scale(ctx: PolyContext, f: Poly, c) -> Poly:
    fld = ctx.field
    if c == fld.zero:
        return ()
    return tuple((m, fld.mul(co, c)) for m, co in f)


def p_term_mul(ctx: PolyContext, f: Poly, mono: Mono, c) -> Poly:
    fld = ctx.field
    if c == fld.zero:
        return ()
    items = [(mono_mul(m, mono), fld.mul(co, c)) for m, co in f]
    # multiplying by a single term preserves the ordering of monomials
    return tuple(items)


def p_mul(ctx: PolyContext, f: Poly, g: Poly) -> Poly:
    """f*g summed in ints: over Q denominators cleared, over Fp reduced once."""
    if not f or not g:
        return ()
    fld = ctx.field
    p = fld.characteristic
    if not p:
        df, f = fld.integral(f)
        dg, g = fld.integral(g)
    d = {}
    get = d.get
    for mf, cf in f:
        for mg, cg in g:
            m = tuple(map(add, mf, mg))
            d[m] = get(m, 0) + cf * cg
    if p:
        return poly_from_dict(ctx, {m: c % p for m, c in d.items()})
    return fld.lift(poly_from_dict(ctx, d), 1, df * dg)


def p_pow(ctx: PolyContext, f: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative exponent")
    result = const_poly(ctx, 1)
    base = f
    while k:
        if k & 1:
            result = p_mul(ctx, result, base)
        base = p_mul(ctx, base, base)
        k >>= 1
    return result


def p_extend(f: Poly, extra: int = 1) -> Poly:
    """Reinterpret f in a context with extra trailing variables."""
    pad = (0,) * extra
    return tuple((m + pad, c) for m, c in f)


def p_eval(ctx: PolyContext, f: Poly, point):
    """Evaluate at a tuple of field values (used by brute-force oracles)."""
    fld = ctx.field
    total = fld.zero
    for m, c in f:
        v = c
        for e, x in zip(m, point):
            for _ in range(e):
                v = fld.mul(v, x)
        total = fld.add(total, v)
    return total


# ---------------------------------------------------------------------------
# division with quotient tracking

def _divide(ctx: PolyContext, f: Poly, divisors, track: bool):
    """The division loop, on engine coefficients (see PolyContext.engine):
    returns (quotients, rem, mult) with

        mult * f == sum(q_i * divisors_i) + rem,

    where no term of rem is divisible by any divisor's leading monomial;
    quotients is None when track is False.

    Eliminating a term c against a leading coefficient a is the field's
    step: (m, q) with m*c == q*a.  The working polynomial is scaled by m,
    and so are the remainder and quotients built so far, before q times
    the shifted divisor is subtracted.  Over Fp, m is 1 and q is c/a;
    over the integers, m = a/g and q = c/g with g = gcd(c, a).

    The working terms sit in a dict (monomial -> coefficient) and their
    monomials in a heap on the descending order key, so the largest term
    is popped without a scan.  A monomial whose coefficient cancels is
    dropped from the dict only; its heap entry is skipped when popped.
    Terms are popped in strictly descending order (every term a step adds
    is smaller than the one it eliminates), so the remainder and each
    quotient come out sorted.
    """
    fld = ctx.field
    dkey = ctx.desc_key
    step, fmul, fsub = fld.step, fld.mul, fld.sub
    # (leading monomial, its degree, leading coefficient or None if one,
    #  tail terms, quotient terms)
    leads = [(d[0][0], sum(d[0][0]), None if d[0][1] == 1 else d[0][1],
              d[1:], []) for d in divisors]
    rem = []
    total = 1
    work = dict(f)
    heap = [(dkey(m), m) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        deg = sum(m)
        for lm, ldeg, lc, tail, quo in leads:
            if ldeg <= deg and all(map(le, lm, m)):
                q = tuple(map(sub, m, lm))
                if lc is None:
                    qc = c
                else:
                    k, qc = step(c, lc)
                    if k != 1:
                        total *= k
                        for wm in work:
                            work[wm] = fmul(work[wm], k)
                        rem = [(rm, fmul(rc, k)) for rm, rc in rem]
                        if track:
                            for ld in leads:
                                ld[4][:] = [(qm, fmul(qk, k))
                                            for qm, qk in ld[4]]
                quo.append((q, qc))
                for tm, tc in tail:
                    mm = tuple(map(add, q, tm))
                    old = work.get(mm)
                    s = fsub(0 if old is None else old, fmul(qc, tc))
                    if s:
                        if old is None:
                            heappush(heap, (dkey(mm), mm))
                        work[mm] = s
                    elif old is not None:
                        del work[mm]
                break
        else:
            rem.append((m, c))
    quotients = [tuple(ld[4]) for ld in leads] if track else None
    return quotients, tuple(rem), total


def p_divmod(ctx: PolyContext, f: Poly, divisors, track: bool = True):
    """Multivariate division: f = sum(q_i * divisors_i) + rem, where no
    term of rem is divisible by any divisor's leading monomial.

    Returns (quotients, rem); quotients is None when track is False.
    The work is done by the engine's loop (_divide) on cleared
    denominators; quotients and remainder come back over ctx.field.
    """
    fld = ctx.field
    den, f = fld.integral(f)
    dens, divs = [], []
    for d in divisors:
        dd, d = fld.integral(d)
        dens.append(dd)
        divs.append(d)
    quots, rem, mult = _divide(ctx.engine, f, divs, track)
    den *= mult
    if track:
        quots = [fld.lift(q, dd, den) for q, dd in zip(quots, dens)]
    return quots, fld.lift(rem, 1, den)


def normal_form(ctx: PolyContext, f: Poly, basis) -> Poly:
    """The remainder of f modulo basis; f itself when no leading
    monomial of basis divides any of its terms."""
    if not basis:
        return f
    leads = [g[0][0] for g in basis]
    if not any(all(map(le, lm, m)) for m, _ in f for lm in leads):
        return f
    _, rem = p_divmod(ctx, f, basis, track=False)
    return rem


# ---------------------------------------------------------------------------
# Buchberger with cofactor tracking
#
# Everything below runs in the engine context.  A cofactor vector is a
# pair (vec, d): the element it belongs to is sum(vec_j * gens_j) / d,
# with vec over the engine's coefficients and d a positive int (always 1
# over Fp, where elements are kept monic).

def _shift(ctx, f: Poly, mono: Mono, c) -> Poly:
    """c times the monomial mono times f (the order is preserved)."""
    if c == 1:
        return tuple([(tuple(map(add, m, mono)), co) for m, co in f])
    fmul = ctx.field.mul
    return tuple([(tuple(map(add, m, mono)), fmul(co, c)) for m, co in f])


def _shift_sub(ctx, f, mf, cf, g, mg, cg):
    """cf*mf*f - cg*mg*g for monomials mf, mg and coefficients cf, cg."""
    return p_sub(ctx, _shift(ctx, f, mf, cf), _shift(ctx, g, mg, cg))


def _combine(ctx, fcof, mult, quots, basiscofs):
    """The cofactors of mult*f - sum(q_k * basis_k), from f's and the
    basis elements', over the lcm of their denominators.  Each component
    is summed in one dict and sorted once."""
    vec, d = fcof
    used = [(q, bc) for q, bc in zip(quots, basiscofs) if q]
    if not used:
        return fcof
    den = lcm(d, *[bc[1] for _, bc in used])
    fld = ctx.field
    fmul, fsub = fld.mul, fld.sub
    scale = fmul(mult, den // d)
    used = [(q if den == bd else p_scale(ctx, q, den // bd), bvec)
            for q, (bvec, bd) in used]
    out = []
    for j, comp in enumerate(vec):
        acc = dict(comp) if scale == 1 else {m: fmul(c, scale)
                                             for m, c in comp}
        for q, bvec in used:
            for bm, bc in bvec[j]:
                for qm, qc in q:
                    m = tuple(map(add, qm, bm))
                    acc[m] = fsub(acc.get(m, 0), fmul(qc, bc))
        out.append(poly_from_dict(ctx, acc))
    return out, den


def _reduce_tracked(ctx, f, fcof, basis, basiscofs, track):
    """Fully reduce f against basis, updating its cofactors.  The
    remainder is a multiple of the true one; insert() normalizes it."""
    if not basis:
        return f, fcof
    quots, rem, mult = _divide(ctx, f, basis, track)
    if track:
        fcof = _combine(ctx, fcof, mult, quots, basiscofs)
    return rem, fcof


def buchberger(ctx: PolyContext, gens, *, track: bool = False,
               stop_at_one: bool = False):
    """Compute a Groebner basis (monic, Buchberger-complete) of gens.

    Returns (basis, cofactors); cofactors is None unless track is set, and
    otherwise satisfies basis[i] == sum_j cofactors[i][j] * gens[j].

    With stop_at_one the computation returns ((1,), cof) as soon as a
    nonzero constant appears, which is all that membership-of-1 style
    decisions need.
    """
    lims = current_limits()
    fld = ctx.field
    ectx = ctx.engine
    eng = ectx.field
    gens = list(gens)
    n = len(gens)

    basis = []
    cofs = [] if track else None

    def insert(f, fcof):
        """Normalize (primitive over Z, monic over Fp) and append; returns
        True if f is a nonzero constant and stop_at_one is set."""
        s = eng.unit(f)
        if s != 1:
            f = eng.divide_out(f, s)
        if track:
            fcof = eng.unscale(fcof[0], fcof[1], s)
        if stop_at_one and mono_deg(f[0][0]) == 0:
            return f, fcof, True
        basis.append(f)
        if track:
            cofs.append(fcof)
        if len(basis) > lims.max_basis:
            raise ResourceExceeded(
                f"basis size exceeded {lims.max_basis}")
        return f, fcof, False

    # seed with inter-reduced generators
    for i, g in enumerate(gens):
        if not g:
            continue
        den, g = fld.integral(g)
        gcof = None
        if track:
            gcof = [()] * n
            gcof[i] = const_poly(ectx, den)
            gcof = (gcof, 1)
        g, gcof = _reduce_tracked(ectx, g, gcof, basis, cofs, track)
        if not g:
            continue
        f, fcof, is_one = insert(g, gcof)
        if is_one:
            return _trivial_basis(fld, f, fcof, track)

    # Normal selection: the pair with the smallest lcm of leading
    # monomials, the earliest added among equal lcms.  Pending pairs sit
    # in a heap of (key of lcm, insertion number), each key computed once
    # when its pair is added; `pending` maps the insertion number of each
    # live pair to (i, j, lcm).  A pair the B criterion deletes leaves the
    # dict only, and its heap entry is skipped when popped.
    heap = []
    pending = {}
    added = count()
    key = ctx.key
    lms = []      # leading monomial of each basis element

    def update(t):
        """Gebauer-Moeller: delete pending pairs by the B criterion, then
        add the new pairs (k, t) that survive the M and F criteria."""
        lm = basis[t][0][0]
        lms.append(lm)
        for n, (i, j, lij) in list(pending.items()):
            if (all(map(le, lm, lij)) and mono_lcm(lms[i], lm) != lij
                    and mono_lcm(lms[j], lm) != lij):
                del pending[n]
        # Group the new pairs by lcm.  F keeps the earliest k of a group;
        # a group holding a coprime pair removes others under M, then
        # goes itself.  Every earlier k takes part, also one whose leading
        # monomial a later element divides: where its pair ties with that
        # element's on the lcm, F keeps the pair a criterion-free run
        # reduces first, so both runs give the same cofactors.
        groups = {}
        for k in range(t):
            lk = lms[k]
            lkt = tuple(map(max, lk, lm))
            coprime = not any(map(min, lk, lm))
            if lkt in groups:
                if coprime:
                    groups[lkt][1] = True
            else:
                groups[lkt] = [k, coprime]
        for lkt, (k, coprime) in groups.items():
            if coprime:
                continue
            deg = sum(lkt)
            # M: another new pair's lcm properly divides this one
            if any(sum(o) < deg and all(map(le, o, lkt)) for o in groups):
                continue
            n = next(added)
            heappush(heap, (key(lkt), n))
            pending[n] = (k, t, lkt)

    for j in range(len(basis)):
        update(j)
    processed = 0
    while heap:
        pair = pending.pop(heappop(heap)[1], None)
        if pair is None:
            continue  # deleted by the B criterion
        processed += 1
        if processed > lims.max_pairs:
            raise ResourceExceeded(f"pair count exceeded {lims.max_pairs}")
        i, j, lcm_ij = pair
        fi, fj = basis[i], basis[j]
        lmi, lmj = lms[i], lms[j]
        mi, mj = mono_div(lcm_ij, lmi), mono_div(lcm_ij, lmj)
        ci, cj = eng.step(fi[0][1], fj[0][1])
        s = _shift_sub(ectx, fi, mi, ci, fj, mj, cj)
        scof = None
        if track:
            (veci, di), (vecj, dj) = cofs[i], cofs[j]
            den = lcm(di, dj)
            ki, kj = ci * (den // di), cj * (den // dj)
            scof = ([_shift_sub(ectx, a, mi, ki, b, mj, kj)
                     for a, b in zip(veci, vecj)], den)
        s, scof = _reduce_tracked(ectx, s, scof, basis, cofs, track)
        if not s:
            continue
        f, fcof, is_one = insert(s, scof)
        if is_one:
            return _trivial_basis(fld, f, fcof, track)
        update(len(basis) - 1)

    return _reduced(ctx, basis, cofs, track)


def _monic(fld, f, fcof):
    """An engine element and its cofactors over fld, made monic."""
    lc = f[0][1]
    if fcof is None:
        return fld.lift(f, 1, lc), None
    vec, d = fcof
    return fld.lift(f, 1, lc), [fld.lift(v, 1, d * lc) for v in vec]


def _trivial_basis(fld, f, fcof, track):
    """Early-exit result for the unit ideal; (1,) is trivially reduced."""
    stats.bases_computed += 1
    if current_limits().check_bases:
        stats.bases_checked += 1
    f, fcof = _monic(fld, f, fcof)
    return (f,), ([fcof] if track else None)


def _reduced(ctx, basis, cofs, track):
    """Minimize and auto-reduce a Buchberger-complete engine basis, and
    make it monic over ctx.field."""
    ectx = ctx.engine
    # drop elements whose leading monomial is divisible by another's;
    # for equal leading monomials keep the first occurrence only
    keep = []
    for i, f in enumerate(basis):
        lm = f[0][0]
        dominated = False
        for j, g in enumerate(basis):
            if j == i:
                continue
            lmj = g[0][0]
            if mono_divides(lmj, lm) and (lmj != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    basis2 = [basis[i] for i in keep]
    cofs2 = [cofs[i] for i in keep] if track else None
    # reduce each tail against the others
    out, outc = [], []
    for i, f in enumerate(basis2):
        others = basis2[:i] + basis2[i + 1:]
        fcof = cofs2[i] if track else None
        if track:
            othercofs = cofs2[:i] + cofs2[i + 1:]
        else:
            othercofs = None
        f, fcof = _reduce_tracked(ectx, f, fcof, others, othercofs, track)
        if f:
            f, fcof = _monic(ctx.field, f, fcof)
            out.append(f)
            if track:
                outc.append(fcof)
    order = sorted(range(len(out)), key=lambda k: ctx.key(out[k][0][0]))
    basis3 = tuple(out[k] for k in order)
    cofs3 = [outc[k] for k in order] if track else None
    lims = current_limits()
    stats.bases_computed += 1
    if lims.check_bases:
        if not is_reduced_basis(ctx, basis3):
            raise InvariantViolated("basis not reduced")
        if not is_groebner(ctx, basis3):
            raise InvariantViolated("Buchberger criterion failed")
        stats.bases_checked += 1
    return basis3, cofs3


def is_groebner(ctx: PolyContext, basis) -> bool:
    """Post-hoc Buchberger criterion: every S-polynomial reduces to zero."""
    basis = list(basis)
    for j in range(len(basis)):
        for i in range(j):
            fi, fj = basis[i], basis[j]
            lcm = mono_lcm(fi[0][0], fj[0][0])
            mi = mono_div(lcm, fi[0][0])
            mj = mono_div(lcm, fj[0][0])
            s = p_sub(ctx,
                      p_term_mul(ctx, fi, mi, ctx.field.invert(fi[0][1])),
                      p_term_mul(ctx, fj, mj, ctx.field.invert(fj[0][1])))
            if normal_form(ctx, s, basis):
                return False
    return True


def is_reduced_basis(ctx: PolyContext, basis) -> bool:
    """Monic, and no leading monomial divides any term of another element."""
    for i, f in enumerate(basis):
        if f[0][1] != ctx.field.one:
            return False
        for j, g in enumerate(basis):
            if i == j:
                continue
            if any(mono_divides(f[0][0], m) for m, _ in g):
                return False
    return True


def one_cofactors(ctx: PolyContext, gens):
    """If 1 lies in the ideal of gens, return cofactors c with
    sum(c_i * gens_i) == 1, else None.

    Relies on the stop_at_one early exit: a constant can only ever enter
    the basis through insert(), and the early exit returns it made
    monic, so the returned basis is exactly (1,) whenever the ideal is
    the whole ring.
    """
    gens = list(gens)
    basis, cofs = buchberger(ctx, gens, track=True, stop_at_one=True)
    if len(basis) == 1 and basis[0] and mono_deg(basis[0][0][0]) == 0:
        return list(cofs[0])
    return None


def quotient_monomial_basis(ctx: PolyContext, basis):
    """Monomials not divisible by any leading monomial of the basis, when
    finitely many (the quotient ring is then a finite-dimensional vector
    space); None otherwise."""
    leads = [f[0][0] for f in basis]
    if any(mono_deg(m) == 0 for m in leads):
        return []  # ideal is the whole ring
    bounds = []
    for i in range(ctx.nvars):
        pure = [m[i] for m in leads
                if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    monos = []

    def rec(prefix):
        if len(prefix) == ctx.nvars:
            m = tuple(prefix)
            if not any(mono_divides(lm, m) for lm in leads):
                monos.append(m)
            return
        for e in range(bounds[len(prefix)]):
            rec(prefix + [e])

    rec([])
    monos.sort(key=ctx.key)
    return monos
