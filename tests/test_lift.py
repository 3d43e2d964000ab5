"""Cofactors lifted by the reverse pass over a Buchberger trace equal the
cofactors of the forward-tracked engine (helpers.reference_buchberger_
tracked) exactly: for every element of the basis, for any combination
of it, and through ideal_member and unimodular_certificate."""
import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from helpers import (reference_buchberger, reference_buchberger_tracked,
                     reference_ideal_member, reference_one_cofactors)
from test_poly import (CYCLIC4, KATSURA3, ORDERS, _cyclic, _from_terms,
                       _made_monic, _rows)
from zkit import (PrimeField, Rationals, fin_gen_ideal, ideal_member,
                  polynomial_ring, unimodular_certificate)
from zkit.poly import (PolyContext, buchberger, const_poly, mono_deg, p_add,
                       p_mul, p_sub, poly_from_dict, var_poly)

FIELDS = (Rationals(), PrimeField(7), PrimeField(32003))


def _combination(ctx, multipliers, rows):
    """sum(m_i * row_i), one component per generator."""
    total = [()] * len(rows[0]) if rows else []
    for m, row in zip(multipliers, rows):
        total = [p_add(ctx, t, p_mul(ctx, m, c)) for t, c in zip(total, row)]
    return total


def _is_unit(basis):
    return len(basis) == 1 and mono_deg(basis[0][0][0]) == 0


def check_lift(ctx, gens, stop_at_one, multipliers):
    """The engine's basis and lifts against the forward-tracked
    reference's; multipliers (one per basis element, extra ones unused)
    make one more combination to lift."""
    basis, trace = buchberger(ctx, gens, track=True, stop_at_one=stop_at_one)
    ref_basis, ref_rows = reference_buchberger_tracked(
        ctx, gens, track=True, stop_at_one=stop_at_one)
    if stop_at_one and not _is_unit(ref_basis):
        # the decision basis is the Buchberger-complete one, as the
        # engine left it: the scan reference keeps it too, and reducing
        # it gives the forward engine's basis
        assert not _is_unit(basis)
        ref_basis, ref_rows = reference_buchberger(ctx, gens, track=True,
                                                   stop_at_one=True)
        assert _made_monic(ctx, basis) == ref_basis
        assert (buchberger(ctx, list(ref_basis))[0]
                == reference_buchberger_tracked(ctx, gens)[0])
    else:
        assert basis == ref_basis
    assert _rows(ctx, basis, trace) == ref_rows
    # a combination of the monic elements
    fld = ctx.field
    multipliers = multipliers[:len(basis)]
    multipliers += [()] * (len(basis) - len(multipliers))
    if any(multipliers):
        monic = [p_mul(ctx, m, const_poly(ctx, fld.invert(
            fld.coerce(b[0][1])))) for m, b in zip(multipliers, basis)]
        assert (trace.lift(monic)
                == _combination(ctx, multipliers, ref_rows))
    return basis


def check_certificates(ctx, gens, coefficients):
    """ideal_member of a member built from coefficients, and
    unimodular_certificate, against the forward-tracked reference."""
    names = [f"x{i}" for i in range(ctx.nvars)]
    ring = polynomial_ring(ctx.field, names, ctx.order)
    elems = [ring.element(g) for g in gens]
    ideal = fin_gen_ideal(ring, elems)
    payloads = [g.payload for g in ideal.generators]
    a = ()
    for c, g in zip(coefficients, gens):
        a = p_add(ctx, a, p_mul(ctx, c, g))
    for x in (a, p_add(ctx, a, const_poly(ctx, 1))):
        cof = ideal_member(ring.element(x), ideal)
        ref = reference_ideal_member(ring, x, payloads) if payloads else (
            [] if not x else None)
        assert (None if cof is None else [c.payload for c in cof]) == ref
    cert = unimodular_certificate(elems)
    ref = reference_one_cofactors(ctx, payloads) if payloads else None
    if ref is None:
        assert cert is None
    else:
        got = [c.payload for c, g in zip(cert.cofactors, elems) if g.payload]
        assert got == ref


@st.composite
def systems(draw):
    field = draw(st.sampled_from(FIELDS))
    ctx = PolyContext(field, draw(st.integers(1, 3)),
                      draw(st.sampled_from(ORDERS)))
    coeff = (st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
             if isinstance(field, Rationals) else st.integers(-9, 9))

    def polys(deg, size):
        return st.dictionaries(st.tuples(*[st.integers(0, deg)] * ctx.nvars),
                               coeff, max_size=size).map(
            lambda d: poly_from_dict(ctx, {m: field.coerce(c)
                                           for m, c in d.items()}))

    gens = draw(st.lists(polys(2, 3), min_size=1, max_size=4))
    if draw(st.booleans()):  # 1 - h*g_0 makes the ideal the unit ideal
        h = draw(polys(1, 2))
        gens.append(p_sub(ctx, const_poly(ctx, 1), p_mul(ctx, h, gens[0])))
    multipliers = draw(st.lists(polys(2, 3), max_size=6))
    coefficients = draw(st.lists(polys(1, 2), min_size=len(gens),
                                 max_size=len(gens)))
    return ctx, gens, multipliers, coefficients


@settings(max_examples=150, deadline=None)
@given(system=systems(), stop_at_one=st.booleans())
def test_lift_matches_forward_tracking(system, stop_at_one):
    ctx, gens, multipliers, coefficients = system
    check_lift(ctx, gens, stop_at_one, multipliers)
    check_certificates(ctx, gens, coefficients)


def _random_poly(ctx, rng, deg, terms):
    return poly_from_dict(ctx, {
        tuple(rng.randrange(deg + 1) for _ in range(ctx.nvars)):
            ctx.field.coerce(rng.randrange(-5, 6)) for _ in range(terms)})


def test_lift_on_classic_systems():
    """cyclic-4 in every order, katsura-3 in grlex and grevlex (its
    forward-tracked lex cofactors take seconds to build) and cyclic-5 in
    grevlex, over Q and Fp(32003): basis, lifts of every element and of
    one combination, stop_at_one on the system (not on cyclic-5, whose
    complete basis the scan reference takes seconds to track) and on the
    system with x0 added (a unit ideal: no zero has x0 = 0), and the
    certificates of a member."""
    rng = random.Random("lift/classic")
    cases = [(order, CYCLIC4) for order in ORDERS] + [
        (order, KATSURA3) for order in ("grlex", "grevlex")] + [
        ("grevlex", 5)]
    for field in (Rationals(), PrimeField(32003)):
        for order, system in cases:
            nvars = system if isinstance(system, int) else 4
            ctx = PolyContext(field, nvars, order)
            gens = (_cyclic(ctx, system) if isinstance(system, int)
                    else [_from_terms(ctx, g) for g in system])
            multipliers = [_random_poly(ctx, rng, 2, 3) for _ in range(30)]
            for stop_at_one in (False, True) if nvars == 4 else (False,):
                basis = check_lift(ctx, gens, stop_at_one, multipliers)
                assert not _is_unit(basis)
            unit = gens + [var_poly(ctx, 0)]
            assert _is_unit(check_lift(ctx, unit, True, multipliers))
            check_certificates(ctx, gens, [_random_poly(ctx, rng, 1, 2)
                                           for _ in gens])
