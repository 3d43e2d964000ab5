"""Sparse multivariate polynomials over exact coefficient fields.

A polynomial is a tuple of (monomial, coefficient) pairs sorted in
descending monomial order with no zero coefficients; monomials are
exponent tuples.  The zero polynomial is the empty tuple.  Coefficients
live in one of two fields: the rationals (exact fractions.Fraction
arithmetic) or a prime field (ints reduced mod p).

The Buchberger engine optionally tracks cofactors: each basis element
then carries its expression as a combination of the original generators,
which is what turns ideal-membership answers into checkable certificates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as _Q
from functools import cached_property

from .errors import (InvalidRing, InvariantViolated, NonInvertibleDenominator,
                     ResourceExceeded)
from .limits import current_limits, stats

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


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers; coefficients are fractions.Fraction."""

    characteristic = 0

    zero = _Q(0)
    one = _Q(1)

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

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The prime field with p elements; coefficients are ints in [0, p)."""

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

    def __str__(self):
        return f"Fp({self.p})"


Field = object  # Rationals | PrimeField


# ---------------------------------------------------------------------------
# monomials and orders

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def _key_lex(m: Mono):
    return m


def _key_grlex(m: Mono):
    return (sum(m), m)


def _key_grevlex(m: Mono):
    # larger key = larger monomial: compare degree first, then the
    # negated reversed exponents (last variable weighs least).
    return (sum(m), tuple(-e for e in reversed(m)))


ORDER_KEYS = {"lex": _key_lex, "grlex": _key_grlex, "grevlex": _key_grevlex}


@dataclass(frozen=True)
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
        return ORDER_KEYS[self.order]

    def extended(self, extra: int = 1) -> "PolyContext":
        """Context with extra variables appended (they sort smallest in
        grevlex, which keeps Rabinowitsch-style computations cheap)."""
        return PolyContext(self.field, self.nvars + extra, self.order)


# ---------------------------------------------------------------------------
# construction and arithmetic

def poly_from_dict(ctx: PolyContext, d: dict) -> Poly:
    items = [(m, c) for m, c in d.items() if c != ctx.field.zero]
    items.sort(key=lambda t: ctx.key(t[0]), reverse=True)
    return tuple(items)


def const_poly(ctx: PolyContext, c) -> Poly:
    c = ctx.field.coerce(c)
    if c == ctx.field.zero:
        return ()
    return (((0,) * ctx.nvars, c),)


def var_poly(ctx: PolyContext, i: int) -> Poly:
    mono = tuple(1 if j == i else 0 for j in range(ctx.nvars))
    return ((mono, ctx.field.one),)


def p_is_zero(f: Poly) -> bool:
    return not f


def p_leading(f: Poly):
    return f[0]


def p_total_deg(f: Poly) -> int:
    return max((mono_deg(m) for m, _ in f), default=-1)


def p_add(ctx: PolyContext, f: Poly, g: Poly) -> Poly:
    d = dict(f)
    fld = ctx.field
    for m, c in g:
        s = fld.add(d.get(m, fld.zero), c)
        if s == fld.zero:
            d.pop(m, None)
        else:
            d[m] = s
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
    if not f or not g:
        return ()
    fld = ctx.field
    d = {}
    for mf, cf in f:
        for mg, cg in g:
            m = mono_mul(mf, mg)
            s = fld.add(d.get(m, fld.zero), fld.mul(cf, cg))
            if s == fld.zero:
                d.pop(m, None)
            else:
                d[m] = s
    return poly_from_dict(ctx, d)


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

def p_divmod(ctx: PolyContext, f: Poly, divisors, track: bool = True):
    """Multivariate division: f = sum(q_i * divisors_i) + rem, where no
    term of rem is divisible by any divisor's leading monomial.

    Returns (quotients, rem); quotients is None when track is False.
    """
    fld = ctx.field
    key = ctx.key
    quo = [{} for _ in divisors] if track else None
    rem = {}
    work = dict(f)
    leads = [(d[0][0], d[0][1]) for d in divisors]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(leads):
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                qc = fld.div(c, lc)
                if track:
                    s = fld.add(quo[i].get(q, fld.zero), qc)
                    if s == fld.zero:
                        quo[i].pop(q, None)
                    else:
                        quo[i][q] = s
                for dm, dc in divisors[i][1:]:
                    mm = mono_mul(q, dm)
                    s = fld.sub(work.get(mm, fld.zero), fld.mul(qc, dc))
                    if s == fld.zero:
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            rem[m] = c
    quotients = None
    if track:
        quotients = [poly_from_dict(ctx, q) for q in quo]
    return quotients, poly_from_dict(ctx, rem)


def normal_form(ctx: PolyContext, f: Poly, basis) -> Poly:
    if not basis:
        return f
    _, rem = p_divmod(ctx, f, basis, track=False)
    return rem


# ---------------------------------------------------------------------------
# Buchberger with cofactor tracking

def _vec_unit(n, i, one_poly):
    v = [()] * n
    v[i] = one_poly
    return v


def _vec_sub(ctx, u, v):
    return [p_sub(ctx, a, b) for a, b in zip(u, v)]


def _vec_term_mul(ctx, u, mono, c):
    return [p_term_mul(ctx, a, mono, c) for a in u]


def _vec_scale(ctx, u, c):
    return [p_scale(ctx, a, c) for a in u]


def _vec_poly_mul(ctx, u, q):
    return [p_mul(ctx, a, q) for a in u]


def _reduce_tracked(ctx, f, fcof, basis, basiscofs, track):
    """Fully reduce f against basis, updating its cofactor vector."""
    if not basis:
        return f, fcof
    quots, rem = p_divmod(ctx, f, basis, track=track)
    if track:
        for q, bc in zip(quots, basiscofs):
            if q:
                fcof = _vec_sub(ctx, fcof, _vec_poly_mul(ctx, bc, q))
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
    one = const_poly(ctx, 1)
    gens = list(gens)
    n = len(gens)

    basis = []
    cofs = [] if track else None

    def insert(f, fcof):
        """Monicize and append; returns the constant's cofactors if f is a
        nonzero constant and stop_at_one is set."""
        lc = f[0][1]
        if lc != fld.one:
            f = p_scale(ctx, f, fld.invert(lc))
            if track:
                fcof = _vec_scale(ctx, fcof, fld.invert(lc))
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
        gcof = _vec_unit(n, i, one) if track else None
        g, gcof = _reduce_tracked(ctx, g, gcof, basis, cofs, track)
        if not g:
            continue
        f, fcof, is_one = insert(g, gcof)
        if is_one:
            return _trivial_basis(f, fcof, track)

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    processed = 0
    while pairs:
        processed += 1
        if processed > lims.max_pairs:
            raise ResourceExceeded(f"pair count exceeded {lims.max_pairs}")
        # normal selection: smallest lcm of leading monomials
        best = min(range(len(pairs)),
                   key=lambda k: ctx.key(mono_lcm(basis[pairs[k][0]][0][0],
                                                  basis[pairs[k][1]][0][0])))
        i, j = pairs.pop(best)
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi[0][0], fj[0][0]
        lcm = mono_lcm(lmi, lmj)
        if lcm == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-poly reduces to zero
        mi, mj = mono_div(lcm, lmi), mono_div(lcm, lmj)
        # both basis elements are monic
        s = p_sub(ctx, p_term_mul(ctx, fi, mi, fld.one),
                  p_term_mul(ctx, fj, mj, fld.one))
        scof = None
        if track:
            scof = _vec_sub(ctx, _vec_term_mul(ctx, cofs[i], mi, fld.one),
                            _vec_term_mul(ctx, cofs[j], mj, fld.one))
        s, scof = _reduce_tracked(ctx, s, scof, basis, cofs, track)
        if not s:
            continue
        f, fcof, is_one = insert(s, scof)
        if is_one:
            return _trivial_basis(f, fcof, track)
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))

    return _reduced(ctx, basis, cofs, track)


def _trivial_basis(f, fcof, track):
    """Early-exit result for the unit ideal; (1,) is trivially reduced."""
    stats.bases_computed += 1
    if current_limits().check_bases:
        stats.bases_checked += 1
    return (f,), ([fcof] if track else None)


def _reduced(ctx, basis, cofs, track):
    """Minimize and auto-reduce a Buchberger-complete basis."""
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
        f, fcof = _reduce_tracked(ctx, f, fcof, others, othercofs, track)
        if f:
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
    the basis through insert(), which monicizes first, so the returned
    basis is exactly (1,) whenever the ideal is the whole ring.
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
