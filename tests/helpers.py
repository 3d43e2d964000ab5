"""Shared random samplers for the test suite.

Everything takes an explicit random.Random so failures reproduce from
the seed printed by the test that used them.  The end of the file holds
reference engines that the fast ones are checked against: hom
construction, application, points and enumeration on RingElements, a
scan-based Groebner engine, the recursive-descent script parser, the
RingElement evaluator of element expressions, the certificate printer
and reader that went through the script AST, and the stdlib-dataclass
twins of zkit's record classes.
"""
from __future__ import annotations

import dataclasses
import heapq
import importlib
import pkgutil
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import zkit
from zkit import (IntegerRing, NotWellDefined, PrimeField, QuotientRing,
                  Rationals, ResidueRing, RingHom, fin_gen_ideal, make_cover,
                  make_hom, radical_member, unimodular_certificate)
from zkit import dsl
from zkit import poly as P
from zkit import rings as R
from zkit.errors import (InvalidWitness, NonInvertibleDenominator,
                         ScriptSyntaxError, TypeMismatch)
from zkit.lattice import zar_elt, zar_eq_top
from zkit.limits import current_limits
from zkit.records import MISSING
from zkit.schemes import SchemePoint
from zkit.serialize import eval_element_expr

SMALL_PRIMES = (2, 3, 5, 7)


def random_poly_payload(ring, rng, max_deg=3, max_terms=3, coeff_bound=3):
    payload = {}
    nvars = len(ring.variables)
    for _ in range(rng.randrange(1, max_terms + 1)):
        while True:
            mono = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
            if sum(mono) <= max_deg:
                break
        payload[mono] = rng.randrange(-coeff_bound, coeff_bound + 1)
    return payload


def random_element(ring, rng, max_deg=3):
    if isinstance(ring, IntegerRing):
        return ring.element(rng.randrange(-20, 21))
    if isinstance(ring, ResidueRing):
        return ring.element(rng.randrange(ring.modulus))
    return ring.element(random_poly_payload(ring, rng, max_deg=max_deg))


def random_quotient_ring(rng, base=None, max_vars=2, max_relations=2,
                         rel_deg=3):
    if base is None:
        base = (Rationals() if rng.random() < 0.5
                else PrimeField(rng.choice(SMALL_PRIMES)))
    nvars = rng.randrange(1, max_vars + 1)
    names = tuple("xyzw"[:nvars])
    free = QuotientRing(base, names)
    rels = []
    for _ in range(rng.randrange(0, max_relations + 1)):
        e = free.element(random_poly_payload(free, rng, max_deg=rel_deg,
                                             max_terms=2))
        if not e.is_zero:
            rels.append(e.payload)
    return QuotientRing(base, names, tuple(rels))


def random_ring(rng, kinds=("Z", "Zmod", "Q", "Fp")):
    kind = rng.choice(kinds)
    if kind == "Z":
        return IntegerRing()
    if kind == "Zmod":
        return ResidueRing(rng.randrange(2, 65))
    if kind == "Q":
        return random_quotient_ring(rng, base=Rationals())
    return random_quotient_ring(rng, base=PrimeField(rng.choice(SMALL_PRIMES)))


def random_unimodular_cover(ring, rng, max_n=3):
    """A random cover; (h, 1-h) guarantees success, richer shapes when
    the certificate search finds one."""
    for _ in range(6):
        shape = rng.randrange(3)
        try:
            if shape == 0:
                h = random_element(ring, rng, max_deg=2)
                return make_cover(ring, [h, ring.one() - h])
            if shape == 1:
                h = random_element(ring, rng, max_deg=2)
                g = random_element(ring, rng, max_deg=1)
                return make_cover(ring, [h, ring.one() - h * g, g])
            elems = [random_element(ring, rng, max_deg=2)
                     for _ in range(rng.randrange(2, max_n + 1))]
            if unimodular_certificate(elems) is None:
                continue
            return make_cover(ring, elems)
        except Exception:
            continue
    h = random_element(ring, rng, max_deg=1)
    return make_cover(ring, [h, ring.one() - h])


def random_endo(ring, rng):
    """A random well-defined endomorphism of a quotient ring, or None."""
    if not isinstance(ring, QuotientRing):
        return make_hom(ring, ring)
    for _ in range(8):
        images = []
        for name in ring.variables:
            roll = rng.random()
            if roll < 0.4:
                images.append(ring.var(name))
            elif roll < 0.7:
                images.append(ring.var(name) + ring.from_int(rng.randrange(-2, 3)))
            else:
                images.append(ring.from_int(rng.randrange(-3, 4)))
        try:
            return make_hom(ring, ring, tuple(images))
        except NotWellDefined:
            continue
    return None


# ---------------------------------------------------------------------------
# payload arithmetic that only the tests use

def p_scale(ctx, f, c):
    """f * c for a coefficient c."""
    return P.p_term_mul(ctx, f, (0,) * ctx.nvars, c)


def p_eval(ctx, f, point):
    """f at a tuple of field values (for brute-force oracles)."""
    fld = ctx.field
    total = fld.zero
    for m, c in f:
        for e, x in zip(m, point):
            c = fld.mul(c, x ** e)
        total = fld.add(total, c)
    return total


# ---------------------------------------------------------------------------
# Reference homs on RingElements: hom construction, application and
# points of an open, as they were before rings.evaluate computed them on
# payloads and schemes.points_over pulled opens back on element indices.
# Every coefficient goes through from_int (or normalize) once per term,
# relations are substituted one generator at a time, and every hom pulls
# the open back by RingElement arithmetic.  The fast code must give equal
# images, equal relation_checks, the same NotWellDefined message, and the
# same points with equal witnesses in the same order.

def _ref_coeff_image(domain, codomain, c):
    if not domain.is_q_algebra:
        return codomain.from_int(c)
    if codomain.is_q_algebra:
        return R.normalize(codomain, c)
    return codomain.zero()


def _ref_relation_terms(domain, codomain):
    zero = {(0,) * len(domain.variables): codomain.zero()}
    return [{mono: _ref_coeff_image(domain, codomain, c) for mono, c in rel}
            or zero for rel in domain.relations]


def _ref_power_table(a, top, one):
    pw = [one]
    for _ in range(top):
        pw.append(pw[-1] * a)
    return pw


def reference_make_hom(domain, codomain, images=()):
    images = tuple(R.normalize(codomain, i) for i in images)
    if len(images) != len(domain.variables):
        raise NotWellDefined(
            f"expected {len(domain.variables)} images, got {len(images)}")
    R._base_compatible(domain, codomain)
    rels = _ref_relation_terms(domain, codomain)
    for img, top in zip(images, R._top_exponents(domain)):
        rels = _ref_substitute(rels, _ref_power_table(img, top,
                                                      codomain.one()))
    bad = next((i for i, rel in enumerate(rels) if not rel[()].is_zero),
               None)
    if bad is not None:
        rel = R.terms_to_str(domain.relations[bad], domain.variables)
        raise NotWellDefined(f"relation {rel} maps to {rels[bad][()]} != 0")
    return RingHom(domain, codomain, images, tuple(rel[()] for rel in rels))


def reference_hom_apply(phi, a):
    domain, codomain, images = phi.domain, phi.codomain, phi.generator_images
    total = codomain.zero()
    for mono, coeff in domain.terms(a.payload):
        term = _ref_coeff_image(domain, codomain, coeff)
        for k, e in enumerate(mono):
            if e:
                term = term * images[k] ** e
        total = total + term
    return total


def reference_points_over(V, codomain):
    """Per hom: pull V back by reference_hom_apply, decide membership once
    per distinct pulled-back element."""
    certs = {}
    pts = []
    for phi in R.enumerate_homs(V.scheme.ring, codomain):
        u = zar_elt(codomain, [reference_hom_apply(phi, g)
                               for g in V.element.generators])
        if u not in certs:
            certs[u] = zar_eq_top(u)
        if certs[u] is not None:
            pts.append(SchemePoint(V, phi, certs[u]))
    return pts


# Reference hom enumeration: the depth-first walk on RingElements that
# rings.enumerate_homs replaced by index arithmetic.  Powers are tabled
# once per element, each prefix is substituted once for its completions,
# and every relation is fully evaluated for every assignment.  The fast
# walk must return the same homs, in the same order, with equal
# relation_checks.

def _ref_substitute(rels, pw):
    out = []
    for rel in rels:
        acc = {}
        for mono, c in rel.items():
            e, rest = mono[0], mono[1:]
            term = c * pw[e] if e else c
            acc[rest] = acc[rest] + term if rest in acc else term
        out.append(acc)
    return out


def reference_enumerate_homs(domain, codomain):
    elements = codomain.elements()
    try:
        R._base_compatible(domain, codomain)
    except NotWellDefined:
        return []
    top = max(R._top_exponents(domain), default=0)
    table = [_ref_power_table(a, top, codomain.one()) for a in elements]
    nvars = len(domain.variables)
    homs = []

    def extend(rels, prefix):
        if len(prefix) == nvars:
            if all(rel[()].is_zero for rel in rels):
                homs.append(RingHom(domain, codomain, prefix,
                                    tuple(rel[()] for rel in rels)))
            return
        for a, pw in zip(elements, table):
            extend(_ref_substitute(rels, pw), prefix + (a,))

    extend(_ref_relation_terms(domain, codomain), ())
    return homs


# ---------------------------------------------------------------------------
# Reference Groebner engine: the scan-based division (max over the working
# dict for every term) and pair selection (min over all pending pairs at
# every step) that zkit.poly's heaps replaced.  The engine must return
# exactly what this returns: same quotients, remainders, bases, cofactors,
# and it must reduce the same polynomials in the same order (the S-pair
# trace), which reference_buchberger appends to `trace` when given one.
#
# With criteria=True the pair list is updated by the Gebauer-Moeller
# criteria, written as a rescan of every pair; with criteria=False every
# pair of basis elements is reduced (only coprime ones are skipped).  Both
# pick pairs by normal selection, so the pairs the criteria delete are
# exactly ones that reduce to zero there: the two return equal bases and
# cofactors.  With stop_at_one, an ideal without 1 gets its
# Buchberger-complete basis (monic here), neither minimized nor reduced.

def _ref_from_dict(ctx, d):
    items = [(m, c) for m, c in d.items() if c != ctx.field.zero]
    items.sort(key=lambda t: ctx.key(t[0]), reverse=True)
    return tuple(items)


def reference_divmod(ctx, f, divisors, track=True):
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
            if P.mono_divides(lm, m):
                q = P.mono_div(m, lm)
                qc = fld.div(c, lc)
                if track:
                    s = fld.add(quo[i].get(q, fld.zero), qc)
                    if s == fld.zero:
                        quo[i].pop(q, None)
                    else:
                        quo[i][q] = s
                for dm, dc in divisors[i][1:]:
                    mm = P.mono_mul(q, dm)
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
        quotients = [_ref_from_dict(ctx, q) for q in quo]
    return quotients, _ref_from_dict(ctx, rem)


def _ref_reduce(ctx, f, fcof, basis, basiscofs, track, trace):
    if trace is not None:
        trace.append(f)
    if not basis:
        return f, fcof
    quots, rem = reference_divmod(ctx, f, basis, track=track)
    if track:
        for q, bc in zip(quots, basiscofs):
            if q:
                fcof = [P.p_sub(ctx, a, P.p_mul(ctx, b, q))
                        for a, b in zip(fcof, bc)]
    return rem, fcof


def _ref_update(basis, pairs, t):
    """Gebauer-Moeller: drop pending pairs by the B criterion, then append
    the new pairs (k, t) that survive the M and F criteria."""
    def lm(k):
        return basis[k][0][0]

    def lcm(i, j):
        return P.mono_lcm(lm(i), lm(j))

    def coprime(i, j):
        return lcm(i, j) == P.mono_mul(lm(i), lm(j))

    # B: lm(t) divides lcm(i, j), and lcm(i, t), lcm(j, t) differ from it
    pairs[:] = [(i, j) for i, j in pairs
                if not (P.mono_divides(lm(t), lcm(i, j))
                        and lcm(i, t) != lcm(i, j)
                        and lcm(j, t) != lcm(i, j))]
    for k in range(t):
        mine = lcm(k, t)
        # M: the lcm of another new pair properly divides this one
        if any(lcm(l, t) != mine and P.mono_divides(lcm(l, t), mine)
               for l in range(t)):
            continue
        # F: of the new pairs with this lcm keep the first, and none
        # when one of them is coprime
        same = [l for l in range(t) if lcm(l, t) == mine]
        if any(coprime(l, t) for l in same):
            continue
        if same[0] == k:
            pairs.append((k, t))


def reference_buchberger(ctx, gens, *, track=False, stop_at_one=False,
                         trace=None, criteria=True):
    fld = ctx.field
    one = P.const_poly(ctx, 1)
    gens = list(gens)
    n = len(gens)
    basis, cofs = [], []

    def insert(f, fcof):
        lc = f[0][1]
        if lc != fld.one:
            f = p_scale(ctx, f, fld.invert(lc))
            if track:
                fcof = [p_scale(ctx, a, fld.invert(lc)) for a in fcof]
        if stop_at_one and P.mono_deg(f[0][0]) == 0:
            return True, ((f,), [fcof] if track else None)
        basis.append(f)
        cofs.append(fcof)
        return False, None

    for i, g in enumerate(gens):
        if not g:
            continue
        gcof = [one if k == i else () for k in range(n)] if track else None
        g, gcof = _ref_reduce(ctx, g, gcof, basis, cofs, track, trace)
        if g:
            done, out = insert(g, gcof)
            if done:
                return out
    pairs = []

    def add_pairs(t):
        if criteria:
            _ref_update(basis, pairs, t)
        else:
            pairs.extend((k, t) for k in range(t))

    for t in range(len(basis)):
        add_pairs(t)
    while pairs:
        best = min(range(len(pairs)),
                   key=lambda k: ctx.key(P.mono_lcm(basis[pairs[k][0]][0][0],
                                                    basis[pairs[k][1]][0][0])))
        i, j = pairs.pop(best)
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi[0][0], fj[0][0]
        lcm = P.mono_lcm(lmi, lmj)
        if lcm == P.mono_mul(lmi, lmj):
            continue
        mi, mj = P.mono_div(lcm, lmi), P.mono_div(lcm, lmj)
        s = P.p_sub(ctx, P.p_term_mul(ctx, fi, mi, fld.one),
                    P.p_term_mul(ctx, fj, mj, fld.one))
        scof = None
        if track:
            scof = [P.p_sub(ctx, P.p_term_mul(ctx, a, mi, fld.one),
                            P.p_term_mul(ctx, b, mj, fld.one))
                    for a, b in zip(cofs[i], cofs[j])]
        s, scof = _ref_reduce(ctx, s, scof, basis, cofs, track, trace)
        if not s:
            continue
        done, out = insert(s, scof)
        if done:
            return out
        add_pairs(len(basis) - 1)
    if stop_at_one:  # 1 is not in the ideal: the complete basis as it is
        return tuple(basis), cofs if track else None
    # minimize (first of equal leading monomials), then reduce each tail
    keep = [i for i, f in enumerate(basis)
            if not any(j != i and P.mono_divides(g[0][0], f[0][0])
                       and (g[0][0] != f[0][0] or j < i)
                       for j, g in enumerate(basis))]
    basis = [basis[i] for i in keep]
    cofs = [cofs[i] for i in keep]
    out = []
    for i, f in enumerate(basis):
        f, fcof = _ref_reduce(ctx, f, cofs[i], basis[:i] + basis[i + 1:],
                              cofs[:i] + cofs[i + 1:], track, trace)
        if f:
            out.append((f, fcof))
    out.sort(key=lambda t: ctx.key(t[0][0][0]))
    return (tuple(f for f, _ in out),
            [c for _, c in out] if track else None)


# ---------------------------------------------------------------------------
# Reference forward-tracked engine: zkit.poly's Buchberger as it was
# before cofactors were lifted on demand.  Every element the engine makes
# carries its full cofactor vector over the generators, (vec, d) with
# vec over the engine's coefficients and d a positive int (1 over Fp),
# updated by every reduction; with stop_at_one the basis is reduced also
# when 1 is not in the ideal.  Returns (basis, cofactor rows) like
# reference_buchberger, and the reverse lift of poly.Trace must give
# exactly these rows.

def _fwd_divide(ctx, f, divisors):
    """(quotients, rem, mult) with mult*f == sum(q_i*divisors_i) + rem, on
    engine coefficients: the heap-driven division loop, with quotients
    rescaled by every step's multiplier."""
    fld = ctx.field
    dkey = ctx.desc_key
    leads = [(d[0][0], None if d[0][1] == 1 else d[0][1], d[1:], [])
             for d in divisors]
    rem = []
    total = 1
    work = dict(f)
    heap = [(dkey(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, tail, quo in leads:
            if P.mono_divides(lm, m):
                q = P.mono_div(m, lm)
                if lc is None:
                    qc = c
                else:
                    k, qc = fld.step(c, lc)
                    if k != 1:
                        total *= k
                        for wm in work:
                            work[wm] = fld.mul(work[wm], k)
                        rem = [(rm, fld.mul(rc, k)) for rm, rc in rem]
                        for ld in leads:
                            ld[3][:] = [(qm, fld.mul(qk, k))
                                        for qm, qk in ld[3]]
                quo.append((q, qc))
                for tm, tc in tail:
                    mm = P.mono_mul(q, tm)
                    old = work.get(mm)
                    s = fld.sub(0 if old is None else old, fld.mul(qc, tc))
                    if s:
                        if old is None:
                            heapq.heappush(heap, (dkey(mm), mm))
                        work[mm] = s
                    elif old is not None:
                        del work[mm]
                break
        else:
            rem.append((m, c))
    return [tuple(ld[3]) for ld in leads], tuple(rem), total


def _fwd_unit(eng, f):
    """The content of f signed like its leading coefficient over Z, its
    leading coefficient over Fp."""
    if isinstance(eng, PrimeField):
        return f[0][1]
    g = gcd(*[c for _, c in f])
    return g if f[0][1] > 0 else -g


def _fwd_divide_out(eng, f, s):
    if isinstance(eng, PrimeField):
        inv = pow(s, -1, eng.p)
        return tuple((m, c * inv % eng.p) for m, c in f)
    return tuple((m, c // s) for m, c in f)


def _fwd_unscale(eng, vec, d, s):
    """The vector vec/(d*s) as (vec', d') in lowest terms, d' > 0."""
    if isinstance(eng, PrimeField):
        s = s * d % eng.p
        if s == 1:
            return vec, 1
        return [_fwd_divide_out(eng, v, s) for v in vec], 1
    d *= s
    h = gcd(d, *[c for v in vec for _, c in v])
    if d < 0:
        h = -h
    if h == 1:
        return vec, d
    return [tuple((m, c // h) for m, c in v) for v in vec], d // h


def _fwd_shift_sub(ctx, f, mf, cf, g, mg, cg):
    """cf*mf*f - cg*mg*g."""
    return P.p_sub(ctx, P.p_term_mul(ctx, f, mf, cf),
                   P.p_term_mul(ctx, g, mg, cg))


def _fwd_combine(ctx, fcof, mult, quots, basiscofs):
    """The cofactors of mult*f - sum(q_k * basis_k), over the lcm of the
    denominators."""
    vec, d = fcof
    used = [(q, bc) for q, bc in zip(quots, basiscofs) if q]
    if not used:
        return fcof
    den = lcm(d, *[bc[1] for _, bc in used])
    fld = ctx.field
    scale = fld.mul(mult, den // d)
    used = [(q if den == bd else p_scale(ctx, q, den // bd), bvec)
            for q, (bvec, bd) in used]
    out = []
    for j, comp in enumerate(vec):
        acc = {m: fld.mul(c, scale) for m, c in comp}
        for q, bvec in used:
            for bm, bc in bvec[j]:
                for qm, qc in q:
                    m = P.mono_mul(qm, bm)
                    acc[m] = fld.sub(acc.get(m, 0), fld.mul(qc, bc))
        out.append(P.poly_from_dict(ctx, acc))
    return out, den


def _fwd_reduce(ctx, f, fcof, basis, basiscofs, track):
    if not basis:
        return f, fcof
    quots, rem, mult = _fwd_divide(ctx, f, basis)
    if track:
        fcof = _fwd_combine(ctx, fcof, mult, quots, basiscofs)
    return rem, fcof


def _fwd_monic(fld, f, fcof):
    lc = f[0][1]
    if fcof is None:
        return fld.lift(f, 1, lc), None
    vec, d = fcof
    return fld.lift(f, 1, lc), [fld.lift(v, 1, d * lc) for v in vec]


def reference_buchberger_tracked(ctx, gens, *, track=False,
                                 stop_at_one=False):
    fld = ctx.field
    ectx = ctx.engine
    eng = ectx.field
    gens = list(gens)
    n = len(gens)
    basis, cofs = [], []

    def insert(f, fcof):
        s = _fwd_unit(eng, f)
        if s != 1:
            f = _fwd_divide_out(eng, f, s)
        if track:
            fcof = _fwd_unscale(eng, fcof[0], fcof[1], s)
        if stop_at_one and P.mono_deg(f[0][0]) == 0:
            f, fcof = _fwd_monic(fld, f, fcof)
            return (f,), ([fcof] if track else None)
        basis.append(f)
        cofs.append(fcof)
        return None

    for i, g in enumerate(gens):
        if not g:
            continue
        den, g = fld.integral(g)
        gcof = None
        if track:
            gcof = [()] * n
            gcof[i] = P.const_poly(ectx, den)
            gcof = (gcof, 1)
        g, gcof = _fwd_reduce(ectx, g, gcof, basis, cofs, track)
        if g:
            out = insert(g, gcof)
            if out is not None:
                return out
    pairs = []
    for t in range(len(basis)):
        _ref_update(basis, pairs, t)
    while pairs:
        best = min(range(len(pairs)),
                   key=lambda k: ctx.key(P.mono_lcm(basis[pairs[k][0]][0][0],
                                                    basis[pairs[k][1]][0][0])))
        i, j = pairs.pop(best)
        fi, fj = basis[i], basis[j]
        lcm_ij = P.mono_lcm(fi[0][0], fj[0][0])
        mi, mj = P.mono_div(lcm_ij, fi[0][0]), P.mono_div(lcm_ij, fj[0][0])
        ci, cj = eng.step(fi[0][1], fj[0][1])
        s = _fwd_shift_sub(ectx, fi, mi, ci, fj, mj, cj)
        scof = None
        if track:
            (veci, di), (vecj, dj) = cofs[i], cofs[j]
            den = lcm(di, dj)
            ki, kj = ci * (den // di), cj * (den // dj)
            scof = ([_fwd_shift_sub(ectx, a, mi, ki, b, mj, kj)
                     for a, b in zip(veci, vecj)], den)
        s, scof = _fwd_reduce(ectx, s, scof, basis, cofs, track)
        if s:
            out = insert(s, scof)
            if out is not None:
                return out
            _ref_update(basis, pairs, len(basis) - 1)
    keep = [i for i, f in enumerate(basis)
            if not any(j != i and P.mono_divides(g[0][0], f[0][0])
                       and (g[0][0] != f[0][0] or j < i)
                       for j, g in enumerate(basis))]
    out = []
    for i in keep:
        others = [k for k in keep if k != i]
        f, fcof = _fwd_reduce(ectx, basis[i], cofs[i],
                              [basis[k] for k in others],
                              [cofs[k] for k in others], track)
        if f:
            out.append(_fwd_monic(fld, f, fcof))
    out.sort(key=lambda t: ctx.key(t[0][0][0]))
    return (tuple(f for f, _ in out),
            [c for _, c in out] if track else None)


def reference_one_cofactors(ctx, gens):
    """one_cofactors on the forward-tracked engine."""
    basis, cofs = reference_buchberger_tracked(ctx, gens, track=True,
                                               stop_at_one=True)
    if len(basis) == 1 and P.mono_deg(basis[0][0][0]) == 0:
        return list(cofs[0])
    return None


def reference_ideal_member(ring, a, gens):
    """ideal_member in a free polynomial ring on the forward-tracked
    engine's rows: the cofactors sum(q_i * row_i) of a's quotients by the
    reduced basis, or None."""
    ctx = ring.ctx
    basis, rows = reference_buchberger_tracked(ctx, gens, track=True)
    quots, rem = P.p_divmod(ctx, a, list(basis))
    if rem:
        return None
    total = [()] * len(gens)
    for q, row in zip(quots, rows):
        if q:
            total = [P.p_add(ctx, t, P.p_mul(ctx, q, c))
                     for t, c in zip(total, row)]
    return total


# ---------------------------------------------------------------------------
# Reference script front end: the regex-per-position tokenizer with
# frozen-dataclass tokens and the six-level recursive descent over
# expressions that zkit.dsl's finditer scan and precedence climbing
# replaced.  Statements are parsed by the shared code.  Both must give
# equal ASTs, and equal ScriptSyntaxError lines and columns.

_REF_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<radmem>radical-member\b)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<eqeq>==)
  | (?P<leq><=)
  | (?P<sym>[;=()\[\]{},+\-*/^|&])
""", re.VERBOSE)


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    column: int


def reference_tokenize(source):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _REF_TOKEN_RE.match(source, pos)
        if m is None:
            raise ScriptSyntaxError(f"unexpected character {source[pos]!r}",
                               line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "radmem":
                kind, text = "name", "radical-member"
            elif kind in ("arrow", "eqeq", "leq", "sym"):
                kind = text
            tokens.append(_RefToken(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_RefToken("eof", "", line, col))
    return tokens


class ReferenceParser(dsl._Parser):
    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def expect(self, kind, what=""):
        tok = self.peek()
        if tok.kind != kind:
            want = what or kind
            raise ScriptSyntaxError(f"expected {want}, found {tok.text!r}",
                               tok.line, tok.column)
        return self.advance()

    def at(self, kind, text=None):
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def chain(self, level, operand, no_div):
        """operand (op operand)* for the operators op of one level, as
        one Chain whose first operand, if it is a Chain of the same
        level, as in (a + b) + c, is spliced in."""
        ops, args = [], [operand(no_div)]
        while self.peek().kind in level:
            ops.append(self.advance().kind)
            args.append(operand(no_div))
        if not ops:
            return args[0]
        first = args[0]
        if isinstance(first, dsl.Chain) and first.ops[0] in level:
            ops[:0], args[:1] = first.ops, first.args
        return dsl.Chain(tuple(ops), tuple(args))

    def expr(self, no_div=False):
        return self.chain(("|",), self.and_expr, no_div)

    def and_expr(self, no_div):
        return self.chain(("&",), self.add_expr, no_div)

    def add_expr(self, no_div):
        return self.chain(("+", "-"), self.mul_expr, no_div)

    def mul_expr(self, no_div):
        return self.chain(("*",), self.unary, no_div)

    def unary(self, no_div):
        if self.at("-"):
            self.advance()
            return dsl.Neg(self.unary(no_div))
        return self.power(no_div)

    def power(self, no_div):
        base = self.atom(no_div)
        if self.at("^"):
            self.advance()
            exp = int(self.expect("int").text)
            return dsl.Pow(base, exp)
        return base

    def atom(self, no_div=False):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = int(tok.text)
            if not no_div and self.at("/") and self.peek(1).kind == "int":
                self.advance()
                den = int(self.advance().text)
                return dsl.RatLit(value, den)
            return dsl.IntLit(value)
        if tok.kind == "name" and tok.text == "D" and self.peek(1).kind == "(":
            self.advance()
            self.advance()
            args = [self.expr()]
            while self.at(","):
                self.advance()
                args.append(self.expr())
            self.expect(")")
            return dsl.DLit(tuple(args))
        if tok.kind == "name":
            self.advance()
            return dsl.NameRef(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ScriptSyntaxError(f"expected an expression, found {tok.text!r}",
                           tok.line, tok.column)


def reference_parse(source):
    return ReferenceParser(reference_tokenize(source)).script()


def reference_parse_expression(source):
    parser = ReferenceParser(reference_tokenize(source))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ScriptSyntaxError(f"trailing input {tok.text!r}", tok.line,
                           tok.column)
    return node


# ---------------------------------------------------------------------------
# Reference element evaluator: one RingElement per AST node, with the
# ring's own payload arithmetic at every operation, as zkit.serialize
# read elements before it evaluated into term dicts.  The term-dict
# evaluator must give the same payload, or the same exception type and
# message.


def reference_eval_element_expr(ring, node):
    if isinstance(node, dsl.IntLit):
        return ring.from_int(node.value)
    if isinstance(node, dsl.RatLit):
        if not ring.is_q_algebra:
            raise TypeMismatch("rational literals need a Q coefficient base")
        if node.den == 0:
            raise NonInvertibleDenominator(f"{node.num}/0 has a zero denominator")
        return R.normalize(ring, Fraction(node.num, node.den))
    if isinstance(node, dsl.NameRef):
        if node.name in ring.variables:
            return ring.var(node.name)
        raise TypeMismatch(f"unknown variable {node.name!r} in {ring}")
    if isinstance(node, dsl.Neg):
        return -reference_eval_element_expr(ring, node.arg)
    if isinstance(node, dsl.Chain):
        value = reference_eval_element_expr(ring, node.args[0])
        for op, arg in zip(node.ops, node.args[1:]):
            right = reference_eval_element_expr(ring, arg)
            if op == "+":
                value = value + right
            elif op == "-":
                value = value - right
            elif op == "*":
                value = value * right
            else:
                raise TypeMismatch(f"operator {op!r} is not a ring operation")
        return value
    if isinstance(node, dsl.Pow):
        return reference_eval_element_expr(ring, node.base) ** node.exp
    raise TypeMismatch(f"{node!r} is not a ring element expression")


# ---------------------------------------------------------------------------
# reference rules for R[1/f], on written fractions, decided in R

def ref_loc_leq(us, vs) -> bool:
    """D(us) <= D(vs) in R[1/f]: each numerator a of us has a*f in
    sqrt(<numerators of vs>) in R."""
    if not us:
        return True
    ring, f = us[0].ring, us[0].f
    ideal = fin_gen_ideal(ring, [b.num for b in vs])
    return all(radical_member(a.num * f, ideal) for a in us)


def ref_loc_eq_top(L, vs) -> bool:
    """D(vs) is the top of R[1/f]: f lies in sqrt(<numerators of vs>)."""
    return radical_member(L.f, fin_gen_ideal(L.ring, [b.num for b in vs]))


def ref_frac_eq(a, b) -> bool:
    """r/f^n == r'/f^m iff d = (r*f^m - r'*f^n) has d*f^k == 0 for some
    k, scanned up to max(max_exponent, saturation_bound): a bounded
    search that asks nothing of R[1/f]."""
    d = a.num * b.f ** b.exp - b.num * a.f ** a.exp
    for _ in range(max(current_limits().max_exponent,
                       d.ring.saturation_bound) + 1):
        if d.is_zero:
            return True
        d = d * a.f
    return False


# ---------------------------------------------------------------------------
# Reference certificate printer and reader: the script AST printer and the
# general parser and evaluator, as zkit.serialize wrote and read
# certificate elements before it had a printer and a reader of its own.
# The canonical ones must print the same bytes and read the same values.


def reference_poly_to_expr(p, variables):
    """Rebuild an AST for a polynomial payload (canonical term order)."""
    if not p:
        return dsl.IntLit(0)
    ops, terms = [], []
    for mono, coeff in p:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        if isinstance(mag, Fraction):
            if mag != 1 or not any(mono):
                factors.append(dsl.IntLit(mag.numerator) if mag.denominator == 1
                               else dsl.RatLit(mag.numerator, mag.denominator))
        else:
            if mag != 1 or not any(mono):
                factors.append(dsl.IntLit(mag))
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(dsl.NameRef(name))
            elif e > 1:
                factors.append(dsl.Pow(dsl.NameRef(name), e))
        term = (factors[0] if len(factors) == 1 else
                dsl.Chain(("*",) * (len(factors) - 1), tuple(factors)))
        if terms:
            ops.append("-" if neg else "+")
        elif neg:
            term = dsl.Neg(term)
        terms.append(term)
    return terms[0] if not ops else dsl.Chain(tuple(ops), tuple(terms))


def reference_print(payload, variables) -> str:
    """The text of a payload (an int, or terms in any order)."""
    if isinstance(payload, int):
        return str(payload)
    return dsl.print_expr(reference_poly_to_expr(payload, variables))


def reference_element_to_str(e) -> str:
    return reference_print(e.payload, e.ring.variables)


def reference_shape_fault(node):
    """Why node is not shaped as the canonical printer writes elements,
    or None.  The printer writes a sum of monomials, so every ^ (outside
    D(...)) has a variable name as its base, and no * has a sum (+ or -)
    under both of its operands.

    One post-order walk without recursion: a chain is followed on the
    stack by its operator and operand count, which combine its operands'
    entries in `sums` (whether a sum lies under each) into its own.
    """
    todo, sums = [node], []
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:
            op, count = node
            under = sums[-count:]
            del sums[-count:]
            if op == "*" and under.count(True) > 1:
                return "multiplies two sums"
            sums.append(op == "+" or op == "-" or any(under))
        elif kind is dsl.Chain:
            todo.append((node.ops[0], len(node.args)))
            todo.extend(reversed(node.args))
        elif kind is dsl.Neg:
            todo.append(node.arg)
        elif kind is dsl.Pow and type(node.base) is not dsl.NameRef:
            return "raises something other than a variable to a power"
        else:
            sums.append(False)
    return None


def reference_element_from_str(ring, text):
    """Parse, refuse a power of a non-variable or a product of sums,
    then evaluate."""
    node = dsl.parse_expression(text)
    fault = reference_shape_fault(node)
    if fault is not None:
        raise InvalidWitness(f"{text[:40]!r} {fault}")
    return eval_element_expr(ring, node)


# ---------------------------------------------------------------------------
# Record classes and their dataclass twins: zkit.records builds zkit's
# record classes without the dataclasses module, and each twin is the
# stdlib dataclass that the same declaration gives (field names in order,
# base-class fields first, the defaults left on the class or the
# default_factory, each field's compare and repr options, frozen or not),
# under the same qualified name, so the two compare instance by instance.

def record_classes():
    """Every class that zkit.records.record decorated, module by module."""
    found = []
    names = sorted(info.name for info in pkgutil.iter_modules(zkit.__path__))
    for name in names:
        module = importlib.import_module(f"zkit.{name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and "__record_fields__" in vars(obj)]
    return found


def dataclass_twin(cls):
    options = {f.name: f for f in cls.__record_fields__}
    names = []
    for klass in reversed(cls.__mro__):
        if "__record_fields__" in vars(klass):
            names += [n for n in vars(klass).get("__annotations__", {})
                      if n not in names]
    specs = []
    for name in names:
        kwargs = {"compare": options[name].compare, "repr": options[name].repr}
        if name in vars(cls):
            kwargs["default"] = vars(cls)[name]
        elif options[name].default_factory is not MISSING:
            kwargs["default_factory"] = options[name].default_factory
        specs.append((name, object, dataclasses.field(**kwargs)))
    frozen = cls.__setattr__ is not object.__setattr__
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen)
    twin.__qualname__ = cls.__qualname__
    return twin
