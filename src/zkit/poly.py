"""Sparse multivariate polynomials over exact coefficient fields.

A polynomial is a tuple of (monomial, coefficient) pairs sorted in
descending monomial order with no zero coefficients; monomials are
exponent tuples.  The zero polynomial is the empty tuple.  Coefficients
live in one of two fields: the rationals (ints, and exact
fractions.Fraction where not integral) or a prime field (ints mod p).

The Groebner engine (division and Buchberger) computes in the field's
`engine` ring.  Over Fp that is the field itself.  Over Q it is the
integers: Buchberger keeps integer-primitive polynomials (content
divided out, positive leading coefficient), and division takes cleared
denominators (`Rationals.integral`).  One division loop serves both:
eliminating a term c against a leading coefficient a is the engine's
step (m, q) with m*c == q*a, which scales the working polynomial by m
and subtracts q times the shifted divisor.  Over the integers m = a/g
and q = c/g with g = gcd(c, a); over Fp, m = 1 and q = c/a.
Proper fractions appear only where results leave the engine
(`Rationals.lift`): in the monic reduced basis, the cofactors, and the
quotients and remainder of p_divmod and normal_form.

Cofactors are what turn ideal-membership answers into checkable
certificates, and they are built on demand.  A tracked Buchberger run
computes exactly what an untracked one does and records its reduction
trace (`Trace`): for each element it makes, the S-pair with its shifts
and step coefficients or the generator it came from, the steps and
multiplier of its division and its content divisor, and for the
returned basis the inter-reductions and the monic scaling.  No element
carries cofactors.  A caller that reads one combination of the basis
(the quotients of a membership test, or the constant that stop_at_one
found) has it lifted by one reverse pass over the trace, which pushes
the multipliers back into one accumulator per generator.  That is the
same exact linear combination a forward expansion of every element's
cofactors builds, in another order, so the cofactors are equal to its.
With stop_at_one, a run that finds no constant returns its
Buchberger-complete basis as it stands, in engine coefficients: a
decision whether 1 lies in the ideal reads nothing else.

Within one Buchberger run or one division a monomial is one int, its
exponents packed (Monagan and Pearce, CASC 2007) in fields of one width
under the order's fields: none for lex, the degree for grlex, and for
grevlex the degree, then the sums e1+...+e(n-1), ..., e1.  Comparing
ints is the term order, a shift is one addition, and l divides m when
m - l sets none of the guard bits, the top bit of each field.  The width
holds twice the largest input degree; a shift that would set a guard bit
stops the run, which is deterministic, to be redone at double width.
Division pops the largest working term from a heap of negated monomials;
Buchberger pops the S-pair of smallest lcm, the earliest of equal lcms
(normal selection), from a heap of (lcm, insertion number).  Both pick
exactly what a scan would (tests/helpers.py keeps the scan as the
reference).  Outside the engine, monomials are exponent tuples.

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
engine reduces is a nonzero integer multiple of the one the rational
arithmetic would reduce, with the same terms.  So the S-pair trace and
the pair count are those of the field arithmetic, and the monic basis,
quotients, remainders and cofactors are equal to it exactly.

A coefficient is zero exactly when it is falsy.
"""
from __future__ import annotations

from fractions import Fraction as _Q
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import count, islice, product
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

    characteristic = 0
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


_ZZ = _Integers()


def _canon(c):
    """c as a Q coefficient: an int when integral, else a Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _ratio(n, d):
    """n/d as a Q coefficient, for rationals n and d != 0."""
    q, r = divmod(n, d)
    return _Q(n, d) if r else q


@record(frozen=True)
class Rationals:
    """The rationals; a coefficient is an int, or a Fraction if not integral.

    The Groebner engine works over `engine`, the integers: `integral`
    clears denominators on the way in and `lift` divides on the way out.
    """

    characteristic = 0

    zero = 0
    one = 1
    engine = _ZZ

    def coerce(self, value):
        if isinstance(value, (int, _Q)):
            return _canon(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return _canon(a + b)

    def sub(self, a, b):
        return _canon(a - b)

    def mul(self, a, b):
        return _canon(a * b)

    def neg(self, a):
        return -a

    def div(self, a, b):
        return _canon(_Q(a, b))

    def invert(self, a):
        return self.div(1, a)

    def integral(self, f):
        """(L, L*f), L the least common denominator of f (f when 1)."""
        dens = [c.denominator for _, c in f]
        den = lcm(*dens)
        if den == 1:
            return 1, f
        return den, tuple([(m, c.numerator * (den // d))
                           for (m, c), d in zip(f, dens)])

    def lift(self, f, num, den):
        """f * num/den for an engine or Q polynomial f; f when num == den."""
        if num == den:
            return f
        return tuple([(m, _ratio(c * num, den)) for m, c in f])

    def __str__(self):
        return "Q"


@record(frozen=True)
class PrimeField:
    """The prime field with p elements; coefficients are ints in [0, p).

    The Groebner engine works over the field itself.
    """

    p: int

    def __post_init__(self):
        if type(self.p) is not int:
            raise InvalidRing(f"field size {self.p!r} is not an integer")
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
    # made monic

    def step(self, c, a):
        return 1, c * pow(a, -1, self.p) % self.p

    def unit(self, f):
        return f[0][1]

    def divide_out(self, f, s):
        inv, p = pow(s, -1, self.p), self.p
        return tuple([(m, c * inv % p) for m, c in f])

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


def p_extend(f: Poly, extra: int = 1) -> Poly:
    """Reinterpret f in a context with extra trailing variables."""
    pad = (0,) * extra
    return tuple((m + pad, c) for m, c in f)


# ---------------------------------------------------------------------------
# packed monomials

class _Overflow(Exception):
    """A shift set a guard bit: the run is redone at double width."""


class _Layout:
    """Packed monomials of one width (see the module docstring): field f
    is bits [f*width, (f+1)*width), x_i's exponent is field nvars-1-i,
    and the order fields are the ones above, e_1 + ... + e_k in field
    nvars+k-1 for grevlex.  units[i] is x_i packed."""

    __slots__ = ("width", "guard", "units", "offsets", "mask")

    def __init__(self, nvars: int, order: str, width: int):
        top = nvars + {"lex": 0, "grlex": 1, "grevlex": nvars}[order]
        self.width, self.mask = width, (1 << width) - 1
        self.offsets = [width * (nvars - 1 - i) for i in range(nvars)]
        # x_i enters the order fields from low[i] up: the degree (grlex),
        # or the sums e_1 + ... + e_k with k > i (grevlex)
        low = [nvars + i * (order == "grevlex") for i in range(nvars)]
        self.units = [(1 << o) + sum(1 << width * f for f in range(lo, top))
                      for lo, o in zip(low, self.offsets)]
        self.guard = sum(1 << width * f + width - 1 for f in range(top))

    def packed(self, f) -> list:
        return [(sum(map(mul, m, self.units)), c) for m, c in f]

    def unpack(self, m: int) -> Mono:
        mask = self.mask
        return tuple([m >> o & mask for o in self.offsets])

    def unpacked(self, f) -> Poly:
        return tuple([(self.unpack(m), c) for m, c in f])

    def hull(self, monos) -> int:
        """The fieldwise maximum of packed monomials: a shift by q
        overflows none of them when q + hull sets no guard bit."""
        h = 0
        for m in monos:
            d = ((h | self.guard) - m) & self.guard  # fields where h >= m
            d -= d >> self.width - 1  # their low bits
            h = h & d | m & ~d
        return h


_layout = lru_cache(maxsize=64)(_Layout)


def _packed_run(ctx: PolyContext, top: int, run):
    """run(layout) at the width input degree top asks, doubled on overflow."""
    width = (2 * top).bit_length() + 1
    while True:
        try:
            return run(_layout(ctx.nvars, ctx.order, width))
        except _Overflow:
            width *= 2


def _row(lay: _Layout, f, i: int):
    """Divisor i's row: (lm, lc or None if 1, tail, hull of tail, i)."""
    lc, tail = f[0][1], f[1:]
    return (f[0][0], None if lc == 1 else lc, tail,
            lay.hull([m for m, _ in tail]), i)


def _divide(fld, work: dict, rows, guard: int, steps=None):
    """The division loop, on packed monomials and engine coefficients
    (see PolyContext.engine): reduces f, the terms of work (consumed), by
    the divisors of rows (see _row) and returns (rem, mult) with

        mult * f == sum(q_i * divisors_i) + rem,

    where no term of rem is divisible by any divisor's leading monomial.

    Eliminating a term c against a leading coefficient a is the field's
    step: (m, q) with m*c == q*a.  The working polynomial is scaled by m,
    and so is the remainder built so far, before q times the shifted
    divisor is subtracted.  Over Fp, m is 1 and q is c/a; over the
    integers, m = a/g and q = c/g with g = gcd(c, a).  When steps is a
    list, each elimination appends (i, shift, q, total): the divisor, the
    packed shift, q, and the product of the multipliers so far, which
    later ones scale too (see p_divmod).

    Each monomial is pushed once, negated, on a heap when it enters work,
    whose coefficients are ints reduced mod p when popped; one that
    cancelled is skipped then.  Terms are popped in strictly descending
    order (a step adds only terms smaller than the one it eliminates),
    so the remainder and each quotient come out sorted.
    """
    p, step = fld.characteristic, fld.step
    rem = []
    total = 1
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue  # cancelled
        for lm, lc, tail, hull, i in rows:
            q = m - lm
            if q & guard:
                continue
            if (q + hull) & guard:
                raise _Overflow
            if lc is None:
                qc = c
            else:
                k, qc = step(c, lc)
                if k != 1:
                    total *= k
                    for wm in work:
                        work[wm] *= k
                    rem = [(rm, rc * k) for rm, rc in rem]
            if steps is not None:
                steps.append((i, q, qc, total))
            for tm, tc in tail:
                tm += q
                old = work.get(tm)
                if old is None:
                    heappush(heap, -tm)
                    work[tm] = -qc * tc
                else:
                    work[tm] = old - qc * tc
            break
        else:
            rem.append((m, c))
    return rem, total


_DIVISORS = {}  # a relation basis is packed once, not on every normal form


def _divisors(ctx: PolyContext, divisors):
    """(dens, integral divisors, top degree, rows by layout) for p_divmod,
    kept by the ids of ctx and the polynomials, which the entry holds."""
    key = (id(ctx), *map(id, divisors))
    if key not in _DIVISORS:
        if len(_DIVISORS) >= 256:
            _DIVISORS.clear()
        pairs = [ctx.field.integral(d) for d in divisors]
        _DIVISORS[key] = (ctx, tuple(divisors), (
            [dd for dd, _ in pairs], [d for _, d in pairs],
            max([sum(m) for _, d in pairs for m, _ in d], default=0), {}))
    return _DIVISORS[key][2]


def p_divmod(ctx: PolyContext, f: Poly, divisors, track: bool = True):
    """Multivariate division: f = sum(q_i * divisors_i) + rem, where no
    term of rem is divisible by any divisor's leading monomial.

    Returns (quotients, rem); quotients is None when track is False.
    The engine's loop (_divide) does the work on packed monomials and
    cleared denominators; the results come back over ctx.field.
    """
    fld = ctx.field
    den, f = fld.integral(f)
    dens, divs, top, rows = _divisors(ctx, divisors)

    def run(lay):
        if lay not in rows:
            rows[lay] = [_row(lay, lay.packed(d), i)
                         for i, d in enumerate(divs)]
        steps = [] if track else None
        return (lay, steps, *_divide(ctx.engine.field, dict(lay.packed(f)),
                                     rows[lay], lay.guard, steps))

    lay, steps, rem, mult = _packed_run(
        ctx, max([top] + [sum(m) for m, _ in f]), run)
    quots = None
    if track:  # terms come out in the order they were made: descending
        quots = [[] for _ in divs]
        for i, q, qc, total in steps:
            quots[i].append((q, qc if total == mult else qc * (mult // total)))
        quots = [fld.lift(lay.unpacked(q), dd, den * mult)
                 for q, dd in zip(quots, dens)]
    return quots, fld.lift(lay.unpacked(rem), 1, den * mult)


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
# Buchberger, and cofactors by a reverse pass over its trace
#
# The engine runs in the engine context, on packed monomials.  A tracked
# run records how each element it makes is an exact combination of the
# generators and of the elements made before it (a Trace); no cofactor
# is built until a caller asks for the cofactors of one combination of
# the returned basis.

def _reduce(lay: _Layout, work: dict, rows, fld, steps):
    """_divide for the engine's own reductions, which tests record here
    apart from p_divmod's; lay unpacks work's terms (see _divide)."""
    return _divide(fld, work, rows, lay.guard, steps)


class Trace:
    """The reduction trace of one tracked Buchberger run over ctx, whose
    monomials lay packs.

    Node k is an element the run made, in engine coefficients; the
    engine's basis elements are nodes 0, 1, ... in the order they
    entered, and outs names the node of each element of the returned
    basis.  nodes[k] = (parents, steps, mult, s) says that node k is

        (mult * sum(c * x^shift * P) - sum(q' * x^shift' * B_i)) / s

    summed over its parents (P, shift, c) and over the steps
    (i, shift', q, total) of its division (see _divide), with
    q' = q * (mult // total).  A parent is an earlier node k >= 0 or
    generator j, written ~j, which enters scaled by its common
    denominator.  Shifts are monomials packed by lay, the unit monomial
    being 0.  s divides out the content (over Z) or makes the element
    monic (over Fp, and for the returned basis over both).
    """

    __slots__ = ("ctx", "lay", "ngens", "nodes", "outs")

    def __init__(self, ctx: PolyContext, lay: _Layout, ngens: int):
        self.ctx = ctx
        self.lay = lay
        self.ngens = ngens
        self.nodes = []
        self.outs = []

    def lift(self, multipliers) -> list:
        """Cofactors c over ctx.field with

            sum(c_j * gens_j) == sum(multipliers_i * basis_i),

        for multipliers over ctx.field aligned with the returned basis.

        Reverse-mode accumulation: each node's multiplier (its adjoint)
        is pushed back through its definition into the adjoints of its
        parents and divisors, latest node first, so every node is read
        once and one cofactor vector is built.  The adjoints are exact:
        ints mod p over Fp, and over Q integer terms over one positive
        denominator, kept in lowest terms.  The cofactors are the same
        linear combination of the trace as a forward expansion of every
        element's cofactors, evaluated in another order, so they are
        equal to its cofactors exactly.

        Inside the pass a monomial is one int, packed by a lex _Layout
        with fields wide enough for the largest degree any term reaches, so
        a shift is one addition that never carries into the next field;
        the run's shifts are laid out that way once.  That degree is at
        most a multiplier's plus, over the nodes, the largest degree of a
        shift each applies: a path back through the trace visits a node
        at most once and takes one shift there.
        """
        ctx = self.ctx
        fld = ctx.field
        p = fld.characteristic
        nodes = self.nodes
        seeds = [(k, m) for k, m in zip(self.outs, multipliers) if m]
        shifts = [[sh for _, sh, _ in parents] + [sh for _, sh, _, _ in steps]
                  for parents, steps, _, _ in nodes]
        exps = {sh: self.lay.unpack(sh) for node in shifts for sh in node}
        top = max([sum(mono) for _, m in seeds for mono, _ in m], default=0)
        top += sum(max([sum(exps[sh]) for sh in node], default=0)
                   for node in shifts)
        lay = _layout(ctx.nvars, "lex", max(1, top.bit_length()) + 1)
        relaid = {sh: sum(map(mul, e, lay.units)) for sh, e in exps.items()}

        acc = {}  # node k or generator ~j -> [terms, den]: sum(terms) / den
        for k, m in seeds:
            den, m = fld.integral(m)
            acc[k] = [dict(lay.packed(m)), den]
        for k in range(len(nodes) - 1, -1, -1):
            adj = acc.pop(k, None)
            if adj is None:
                continue
            parents, steps, mult, s = nodes[k]
            terms, den = _divided(adj[0], adj[1] * s, p)
            if not terms:
                continue
            for t, shift, c in parents:
                _push(acc, t, terms, den, relaid[shift], c * mult)
            for i, shift, q, total in steps:
                _push(acc, i, terms, den, relaid[shift], -q * (mult // total))
        out = []
        for j in range(self.ngens):
            terms, den = acc.get(~j, ({}, 1))
            out.append(fld.lift(poly_from_dict(ctx, {
                lay.unpack(m): r for m, c in terms.items()
                if (r := c % p if p else c)}), 1, den))
        return out


def _divided(terms: dict, den: int, p: int):
    """(terms', den') for the adjoint sum(terms)/den: over Fp (p > 0) den
    is inverted into the terms and den' is 1; over Q, den' > 0 and terms'
    share no factor with it.  Zero terms are dropped."""
    if p:
        inv = pow(den, -1, p)
        terms = {m: c * inv % p for m, c in terms.items()}
        return {m: c for m, c in terms.items() if c}, 1
    terms = {m: c for m, c in terms.items() if c}
    g = gcd(den, *terms.values())
    if den < 0:
        g = -g
    if g == 1:
        return terms, den
    return {m: c // g for m, c in terms.items()}, den // g


def _push(acc: dict, target, terms: dict, den: int, shift: int, c: int):
    """Add c * x^shift * sum(terms)/den, on packed monomials, into the
    adjoint of target, over the lcm of the two denominators."""
    cur = acc.get(target)
    if cur is None:
        acc[target] = [{m + shift: v * c for m, v in terms.items()}, den]
        return
    d = cur[1]
    if d != den:
        top = lcm(d, den)
        if top != d:
            k = top // d
            tgt = cur[0]
            for m in tgt:
                tgt[m] *= k
            cur[1] = top
        c *= top // den
    tgt = cur[0]
    get = tgt.get
    for m, v in terms.items():
        m += shift
        tgt[m] = get(m, 0) + v * c


def buchberger(ctx: PolyContext, gens, *, track: bool = False,
               stop_at_one: bool = False):
    """A Groebner basis of gens, with its reduction trace.

    Returns (basis, trace).  basis is the reduced Groebner basis over
    ctx.field (minimal, inter-reduced, monic, sorted ascending).  trace
    is None unless track is set, and otherwise a Trace whose lift(m)
    gives cofactors c over gens with sum(c_j * gens_j) equal to
    sum(m_i * basis_i).

    With stop_at_one the run decides whether 1 is in the ideal.  As soon
    as a nonzero constant appears it returns ((1,), trace), trace lifting
    the constant.  Otherwise it returns the Buchberger-complete basis in
    engine coefficients as it stands: not minimized, not inter-reduced,
    over Q integer-primitive rather than monic.
    """
    gens = list(gens)
    top = max([sum(m) for g in gens for m, _ in g], default=0)
    return _packed_run(ctx, top, lambda lay: _buchberger(
        ctx, lay, gens, track, stop_at_one))


def _buchberger(ctx, lay, gens, track, stop_at_one):
    """buchberger on monomials packed by lay."""
    lims = current_limits()
    fld = ctx.field
    eng = ctx.engine.field
    fmul, fsub = eng.mul, eng.sub
    units, guard = lay.units, lay.guard

    basis = []
    rows = []  # the division row of each basis element
    trace = Trace(ctx, lay, len(gens)) if track else None

    def insert(f, parents, steps, mult):
        """Normalize the remainder f (primitive over Z, monic over Fp),
        record its node, and append it; returns f, left out, if it is a
        nonzero constant and stop_at_one is set, else None."""
        s = eng.unit(f)
        if s != 1:
            f = eng.divide_out(f, s)
        if track:
            trace.nodes.append((parents, steps, mult, s))
        if stop_at_one and not f[0][0]:
            return f
        rows.append(_row(lay, f, len(basis)))
        basis.append(f)
        if len(basis) > lims.max_basis:
            raise ResourceExceeded(
                f"poly.buchberger: {len(basis)} basis elements exceeded "
                f"max_basis={lims.max_basis}")
        return None

    # seed with inter-reduced generators; generator j enters as its
    # common denominator times itself
    for j, g in enumerate(gens):
        if not g:
            continue
        den, g = fld.integral(g)
        steps = [] if track else None
        g, mult = _reduce(lay, dict(lay.packed(g)), rows, eng, steps)
        if not g:
            continue
        one = insert(g, [(~j, 0, den)], steps, mult)
        if one is not None:
            return _unit_basis(ctx, lay, one, trace)

    # Normal selection: the pair with the smallest lcm of leading
    # monomials, the earliest added among equal lcms.  Pending pairs sit
    # in a heap of (packed lcm, insertion number); `pending` maps the
    # insertion number of each live pair to (i, j, lcm).  A pair the B
    # criterion deletes leaves the dict only, and its heap entry is
    # skipped when popped.
    heap = []
    pending = {}
    added = count()
    lms = []  # the exponents of each basis element's leading monomial

    def update(t):
        """Gebauer-Moeller: delete pending pairs by the B criterion, then
        add the new pairs (k, t) that survive the M and F criteria."""
        lm = lay.unpack(rows[t][0])
        lms.append(lm)
        # Group the new pairs by lcm.  F keeps the earliest k of a group;
        # a group holding a coprime pair removes others under M, then
        # goes itself.  Every earlier k takes part, also one whose leading
        # monomial a later element divides: where its pair ties with that
        # element's on the lcm, F keeps the pair a criterion-free run
        # reduces first, so both runs give the same cofactors.
        lcms = []
        groups = {}
        for k in range(t):
            lk = lms[k]
            lkt = sum(map(mul, map(max, lk, lm), units))
            if lkt & guard:
                raise _Overflow
            lcms.append(lkt)
            groups.setdefault(lkt, [k, False])[1] |= not any(map(min, lk, lm))
        lm = rows[t][0]
        for n, (i, j, lij) in list(pending.items()):
            if not (lij - lm) & guard and lcms[i] != lij != lcms[j]:
                del pending[n]
        for lkt, (k, coprime) in groups.items():
            # M: another new pair's lcm properly divides this one
            if coprime or any(not (lkt - o) & guard and o != lkt
                              for o in groups):
                continue
            n = next(added)
            heappush(heap, (lkt, n))
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
            raise ResourceExceeded(
                f"poly.buchberger: {processed} S-pairs exceeded "
                f"max_pairs={lims.max_pairs}")
        i, j, lcm_ij = pair
        lmi, _, taili, hulli, _ = rows[i]
        lmj, _, tailj, hullj, _ = rows[j]
        mi, mj = lcm_ij - lmi, lcm_ij - lmj
        if (mi + hulli) & guard or (mj + hullj) & guard:
            raise _Overflow
        ci, cj = eng.step(basis[i][0][1], basis[j][0][1])
        # the S-polynomial ci*mi*fi - cj*mj*fj: its leading terms cancel
        work = {m + mi: fmul(c, ci) for m, c in taili}
        for m, c in tailj:
            work[m + mj] = fsub(work.get(m + mj, 0), fmul(c, cj))
        work = {m: c for m, c in work.items() if c}
        steps = [] if track else None
        s, mult = _reduce(lay, work, rows, eng, steps)
        if not s:
            continue
        one = insert(s, [(i, mi, ci), (j, mj, -cj)], steps, mult)
        if one is not None:
            return _unit_basis(ctx, lay, one, trace)
        update(len(basis) - 1)

    if stop_at_one:
        return _complete_basis(ctx, lay, basis, trace)
    return _reduced(ctx, lay, basis, rows, trace)


def _unit_basis(ctx, lay, f, trace):
    """The early exit for the unit ideal: (1,), which is trivially
    reduced, from the engine constant f (the trace's last node)."""
    stats.bases_computed += 1
    if current_limits().check_bases:
        stats.bases_checked += 1
    lc = f[0][1]
    if trace is not None:
        nodes = trace.nodes
        nodes.append(([(len(nodes) - 1, 0, 1)], (), 1, lc))
        trace.outs = [len(nodes) - 1]
    return (ctx.field.lift(lay.unpacked(f), 1, lc),), trace


def _complete_basis(ctx, lay, basis, trace):
    """The Buchberger-complete engine basis as it stands: what
    stop_at_one returns when 1 is not in the ideal.

    The check runs the Buchberger criterion on its minimal part, and
    reduces every other element to zero by it: then the minimal part is
    a Groebner basis of the ideal of the whole, and so is the whole."""
    stats.bases_computed += 1
    out = tuple([lay.unpacked(f) for f in basis])
    if current_limits().check_bases:
        monic = [ctx.field.lift(f, 1, f[0][1]) for f in out]
        keep = _minimal([f[0][0] for f in basis], lay.guard)
        core = [monic[i] for i in keep]
        if not is_groebner(ctx, core) or any(
                normal_form(ctx, f, core) for f in monic if f not in core):
            raise InvariantViolated("Buchberger criterion failed")
        stats.bases_checked += 1
    if trace is not None:
        trace.outs = list(range(len(basis)))
    return out, trace


def _minimal(lms, guard: int) -> list:
    """The indices of the packed leading monomials no other divides; of
    equal ones, the first one's."""
    return [i for i, lm in enumerate(lms)
            if not any(not (lm - o) & guard and (o != lm or j < i)
                       for j, o in enumerate(lms) if j != i)]


def _reduced(ctx, lay, basis, rows, trace):
    """Minimize and auto-reduce a Buchberger-complete engine basis, make
    it monic over ctx.field and sort it; each returned element is a node
    of the trace."""
    eng = ctx.engine.field
    keep = _minimal([f[0][0] for f in basis], lay.guard)
    # reduce each tail against the others
    out = []  # (leading monomial, element, node)
    for n, i in enumerate(keep):
        others = [rows[k] for k in keep[:n] + keep[n + 1:]]
        steps = [] if trace is not None else None
        f, mult = _reduce(lay, dict(basis[i]), others, eng, steps)
        if f:
            lc = f[0][1]
            if trace is not None:
                trace.nodes.append(([(i, 0, 1)], steps, mult, lc))
            out.append((f[0][0], ctx.field.lift(lay.unpacked(f), 1, lc),
                        len(trace.nodes) - 1 if trace is not None else None))
    out.sort()  # leading monomials differ
    reduced = tuple([f for _, f, _ in out])
    if trace is not None:
        trace.outs = [k for _, _, k in out]
    stats.bases_computed += 1
    if current_limits().check_bases:
        if not is_reduced_basis(ctx, reduced):
            raise InvariantViolated("basis not reduced")
        if not is_groebner(ctx, reduced):
            raise InvariantViolated("Buchberger criterion failed")
        stats.bases_checked += 1
    return reduced, trace


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
    """None when 1 is not in the ideal of gens, else a function of no
    arguments returning cofactors c with sum(c_i * gens_i) == 1.

    Relies on the stop_at_one early exit: a constant can only ever enter
    the basis through insert(), and the early exit returns it made
    monic, so the returned basis is exactly (1,) whenever the ideal is
    the whole ring; the function lifts that constant by the trace, so a
    decision that reads only whether it is None lifts nothing.
    """
    basis, trace = buchberger(ctx, list(gens), track=True, stop_at_one=True)
    if len(basis) == 1 and mono_deg(basis[0][0][0]) == 0:
        return lambda: trace.lift([basis[0]])
    return None


def quotient_monomial_basis(ctx: PolyContext, basis, most):
    """Monomials not divisible by any leading monomial of the basis, when
    finitely many (the quotient ring is then a finite-dimensional vector
    space); None otherwise.  The search stops at the first most + 1 of
    them."""
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
    monos = (m for m in product(*map(range, bounds))
             if not any(mono_divides(lm, m) for lm in leads))
    monos = list(islice(monos, most + 1))
    monos.sort(key=ctx.key)
    return monos
