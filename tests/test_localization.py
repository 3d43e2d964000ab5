import random

import pytest
from hypothesis import given, settings, strategies as st

from zkit import (BaseMismatch, IntegerRing, InvalidWitness, NotWellDefined,
                  PrimeField, QuotientRing, Rationals, ResidueRing,
                  UnsupportedBase, canonical_map, double_localization_maps,
                  frac_eq, from_presentation, hom_compose, is_unit,
                  localize, make_hom, polynomial_ring, quotient_by,
                  saturates, to_presentation, universal_property, zar_elt, zar_eq_top,
                  zar_leq)
from helpers import (random_element, random_ring, ref_frac_eq,
                     ref_loc_eq_top, ref_loc_leq)

Z = IntegerRing()


def test_frac_eq_examples():
    L2 = localize(Z, 2)
    assert frac_eq(L2.fraction(10, 1), L2.fraction(5, 0))
    L82 = localize(ResidueRing(8), 2)
    assert frac_eq(L82.fraction(0, 0), L82.fraction(1, 0))
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    R = quotient_by(Qxy, [Qxy.var("x") * Qxy.var("y")])
    Ly = localize(R, R.var("y"))
    assert frac_eq(Ly.from_base(R.var("x")), Ly.fraction(0))
    with pytest.raises(BaseMismatch):
        frac_eq(L2.fraction(1, 0), localize(Z, 3).fraction(1, 0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), f=st.integers(0, 39),
       nums=st.tuples(st.integers(0, 39), st.integers(0, 39),
                      st.integers(0, 39)),
       exps=st.tuples(st.integers(0, 3), st.integers(0, 3),
                      st.integers(0, 3)))
def test_frac_eq_is_equivalence(n, f, nums, exps):
    ring = ResidueRing(n)
    L = localize(ring, f % n)
    a, b, c = (L.fraction(num, e) for num, e in zip(nums, exps))
    assert frac_eq(a, a)
    assert frac_eq(a, b) == frac_eq(b, a)
    if frac_eq(a, b) and frac_eq(b, c):
        assert frac_eq(a, c)


def test_frac_eq_matches_brute_force_over_residues():
    """Independent oracle: over Z/n the defining condition
    (r*f^m - r'*f^n) * f^k == 0 can be brute-forced directly since any
    witness exponent is at most bitlen(n)."""
    for n in range(2, 25):
        ring = ResidueRing(n)
        cap = n.bit_length() + 1
        for f in range(n):
            L = localize(ring, f)
            for r1 in range(0, n, 3):
                for e1 in (0, 1, 2):
                    for r2 in range(0, n, 4):
                        for e2 in (0, 2):
                            diff = (r1 * f ** e2 - r2 * f ** e1) % n
                            oracle = any((diff * f ** k) % n == 0
                                         for k in range(cap + 1))
                            mine = frac_eq(L.fraction(r1, e1),
                                           L.fraction(r2, e2))
                            assert mine == oracle, (n, f, r1, e1, r2, e2)


def test_frac_arith_congruence_random():
    rng = random.Random(77)
    for _ in range(60):
        ring = random_ring(rng)
        f = random_element(ring, rng, 1)
        L = localize(ring, f)
        a = L.fraction(random_element(ring, rng, 2), rng.randrange(3))
        # pad a to an equal representative
        a2 = L.fraction(a.num * f ** 2, a.exp + 2)
        b = L.fraction(random_element(ring, rng, 2), rng.randrange(3))
        assert frac_eq(a, a2)
        A, A2, B = L.element(a), L.element(a2), L.element(b)
        assert A == A2
        assert A + B == A2 + B
        assert A * B == A2 * B
        assert A + (-A) == L.zero()
        assert A + L.zero() == A
        # the ring operations are the fraction formulas
        assert A + B == L.element(L.fraction(
            a.num * f ** b.exp + b.num * f ** a.exp, a.exp + b.exp))
        assert A - B == L.element(L.fraction(
            a.num * f ** b.exp - b.num * f ** a.exp, a.exp + b.exp))
        assert A * B == L.element(L.fraction(a.num * b.num, a.exp + b.exp))


def test_frac_arith_examples():
    L2 = localize(Z, 2)
    s = L2.element(L2.fraction(1, 1)) + L2.element(L2.fraction(1, 1))
    assert s.payload == (1, 0)  # 4/4, written with the least exponent
    assert s == L2.one()
    prod = L2.element(L2.fraction(3, 1)) * L2.element(L2.fraction(4, 1))
    assert prod == L2.element(L2.fraction(3, 0))
    assert L2.element(L2.fraction(12, 2)).payload == (3, 0)
    assert L2.element(L2.fraction(3, 1)).payload == (3, 1)


def test_canonical_map():
    L2 = localize(Z, 2)
    cm = canonical_map(L2)
    assert cm(Z.element(5)) == L2.element(L2.fraction(10, 1))
    w = is_unit(cm(Z.element(2)))
    assert w is not None and cm(Z.element(2)) * w == L2.one()
    # kernel: 4 dies in (Z/8)[1/2]
    L82 = localize(ResidueRing(8), 2)
    assert canonical_map(L82)(ResidueRing(8).element(4)) == L82.zero()


def test_universal_property():
    L2 = localize(Z, 2)
    Z7 = ResidueRing(7)
    psi = universal_property(L2, make_hom(Z, Z7), Z7.element(4))
    assert psi(L2.fraction(3, 1)) == Z7.element(5)
    with pytest.raises(InvalidWitness):
        universal_property(L2, make_hom(Z, Z7), Z7.element(3))
    # psi o (-/1) == phi on random elements
    rng = random.Random(1)
    phi = make_hom(Z, Z7)
    for _ in range(100):
        r = Z.element(rng.randrange(-50, 50))
        assert psi(L2.from_base(r)) == phi(r)


def test_universal_property_uniqueness_sampled():
    """Two maps agreeing on canonical images and on 1/f agree on random
    fractions (sampled uniqueness)."""
    rng = random.Random(2)
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    L = localize(Qx, x)
    pres = L.presentation
    phi = make_hom(Qx, pres, (pres.var("x"),))
    w = pres.var("y")
    psi1 = universal_property(L, phi, w)
    psi2 = lambda fr: phi(fr.num) * w ** fr.exp
    for _ in range(30):
        fr = L.fraction(random_element(Qx, rng, 2), rng.randrange(4))
        assert psi1(fr) == psi2(fr)


def test_double_localization():
    chil, chir = double_localization_maps(Z, 2, 3)
    out = chil(localize(Z, 2).fraction(5, 1))
    assert (out.num.payload, out.exp) == (15, 1)
    for r in (7, -3, 0):
        lhs = chil(localize(Z, 2).from_base(Z.element(r)))
        rhs = chir(localize(Z, 3).from_base(Z.element(r)))
        assert frac_eq(lhs, rhs)
    Z8 = ResidueRing(8)
    chil8, chir8 = double_localization_maps(Z8, 2, 3)
    out = chil8(localize(Z8, 2).fraction(1, 1))
    assert (out.num.payload, out.exp) == (3, 1)


def test_presentation_round_trips():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    L = localize(Qx, x)
    assert to_presentation(L, L.fraction(x, 1)) == L.presentation.one()
    fr = from_presentation(L, L.presentation.var("y") ** 2)
    assert fr.num == Qx.one() and fr.exp == 2
    rng = random.Random(4)
    # the field kind has payloads of k, not of k[t]: both directions go
    # through the written form
    F7, Q = QuotientRing(PrimeField(7)), QuotientRing(Rationals())
    for L in (L, localize(F7, 3), localize(Q, 2), localize(F7, 0)):
        for _ in range(30):
            fr = L.fraction(random_element(L.ring, rng, 3), rng.randrange(5))
            back = from_presentation(L, to_presentation(L, fr))
            assert back.num.ring == L.ring and frac_eq(back, fr)
        for _ in range(30):
            e = random_element(L.presentation, rng, 3)
            back = to_presentation(L, from_presentation(L, e))
            assert back == e
    for c, inverse in ((3, 5), (0, 0)):
        L = localize(F7, c)
        y = L.presentation.var("y")
        assert to_presentation(L, L.fraction(1, 1)) == y
        assert to_presentation(L, L.fraction(c, 1)) == L.presentation.one()
        fr = from_presentation(L, y * c)
        assert L.element(fr) == L.one()
        assert frac_eq(fr, L.fraction(1)) and frac_eq(fr, L.fraction(c, 1))
        assert frac_eq(from_presentation(L, y), L.fraction(inverse))
    with pytest.raises(UnsupportedBase):
        to_presentation(localize(Z, 2), localize(Z, 2).fraction(1, 0))


def test_localizing_a_localization_names_the_product():
    """R[1/f] is localized no further: localize and saturates over it
    raise UnsupportedBase naming the element of R to localize at."""
    L2 = localize(Z, 2)
    with pytest.raises(UnsupportedBase, match=r"localize Z at \(2\) \* \(3\)"):
        localize(L2, 3)
    with pytest.raises(UnsupportedBase, match=r"localize Z at \(2\) \* \(1\)"):
        saturates(L2.one(), L2.one())
    Qx = polynomial_ring(Rationals(), ["x"])
    with pytest.raises(UnsupportedBase,
                       match=r"localize Q\[x\] at \(x\) \* \(1\)"):
        localize(localize(Qx, Qx.var("x")), 1)


def test_presentation_fresh_variable():
    Qy = polynomial_ring(Rationals(), ["y"])
    L = localize(Qy, Qy.var("y"))
    assert L.inverse_variable == "y1"
    assert L.presentation.variables == ("y", "y1")


def test_frac_is_unit_paths():
    # the integer kinds and the presentation kind must all verify
    L2 = localize(Z, 2)
    a = L2.element(L2.fraction(4, 1))
    w = is_unit(a)
    assert w is not None and a * w == L2.one()
    assert is_unit(L2.element(L2.fraction(3, 1))) is None
    Z12 = ResidueRing(12)
    L = localize(Z12, 2)  # Z/3: 8/2 = 4 = 1
    a = L.element(L.fraction(8, 1))
    w = is_unit(a)
    assert w is not None and a * w == L.one()
    F5x = polynomial_ring(PrimeField(5), ["x"])
    Lx = localize(F5x, F5x.var("x"))
    a = Lx.element(Lx.fraction(F5x.var("x") ** 3, 1))
    w = is_unit(a)
    assert w is not None and a * w == Lx.one()


def test_loc_hom_and_compose_canonical():
    Qt = polynomial_ring(Rationals(), ["t"])
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    L = localize(Qx, x)
    psi = make_hom(Qt, Qx, (x ** 2,))
    h = hom_compose(canonical_map(L), psi)
    out = h(Qt.var("t") + 1)
    assert out == L.element(L.from_base(x ** 2 + 1))
    h2 = make_hom(Qt, L, (L.fraction(Qx.one(), 1),))
    assert h2(Qt.var("t") ** 2) == L.element(L.fraction(Qx.one(), 2))


def test_loc_hom_from_q_algebra_into_zero_ring():
    # Z[1/0] is the zero ring, so Q[x] maps into it although Z is not a
    # Q-algebra
    Qx = polynomial_ring(Rationals(), ["x"])
    L0 = localize(Z, 0)
    h = make_hom(Qx, L0, (L0.zero(),))
    assert h(Qx.var("x") + 1) == L0.zero()


def test_loc_hom_from_q_algebra_into_nonzero_z_localization():
    Qx = polynomial_ring(Rationals(), ["x"])
    L2 = localize(Z, 2)
    with pytest.raises(NotWellDefined):
        make_hom(Qx, L2, (L2.zero(),))


def _reference_cases():
    """(base ring, f) pairs: Z, Z/n with zero divisors, a nilpotent f
    over Z/8 (the zero ring), Z[1/0], Q[x]/I and Fp[x,y]/I."""
    Qx = polynomial_ring(Rationals(), ["x"])
    Qx_I = quotient_by(Qx, [Qx.var("x") ** 3 - Qx.var("x") ** 2])
    x = Qx_I.var("x")
    F5xy = polynomial_ring(PrimeField(5), ["x", "y"])
    F5_I = quotient_by(F5xy, [F5xy.var("x") * F5xy.var("y"),
                              F5xy.var("y") ** 2 - F5xy.var("y")])
    X, Y = F5_I.var("x"), F5_I.var("y")
    Z8, Z12, Z36 = ResidueRing(8), ResidueRing(12), ResidueRing(36)
    return [(Z, 2), (Z, 6), (Z, -3), (Z, 0), (Z, 1),
            (Z12, 2), (Z12, 3), (Z36, 6), (Z36, 5), (Z8, 2), (Z8, 6),
            (Qx_I, x), (Qx_I, x - 1), (Qx_I, x ** 2 - x),
            (F5_I, X), (F5_I, Y), (F5_I, X + Y), (F5_I, X * Y)]


def test_localized_ring_matches_reference_rules():
    """zar_leq, zar_eq_top and == over localize(R, f) agree with the rules
    decided on written numerators in R (helpers.ref_*), on random
    fractions and on padded copies with localization-kernel noise; the
    kernel candidates also check saturates against the bounded scan."""
    rng = random.Random(89)
    for ring, f in _reference_cases():
        f = ring.element(f)
        L = localize(ring, f)
        candidates = [random_element(ring, rng, 2) for _ in range(20)]
        kernel = [z for z in candidates
                  if ref_frac_eq(L.from_base(z), L.fraction(0))]
        for z in candidates:
            assert saturates(z, f) == (z in kernel), (L, z)
        equal = 0
        for _ in range(12):
            def frac():
                return L.fraction(random_element(ring, rng, 2),
                                  rng.randrange(3))
            a = frac()
            if rng.random() < 0.5:
                pad = rng.randrange(3)
                noise = rng.choice(kernel) if kernel else ring.zero()
                b = L.fraction(a.num * f ** pad + noise, a.exp + pad)
            else:
                b = frac()
            same = L.element(a) == L.element(b)
            assert same == ref_frac_eq(a, b), (L, a, b)
            equal += same
            us = [frac() for _ in range(rng.randrange(3))]
            vs = [frac() for _ in range(rng.randrange(3))]
            assert zar_leq(zar_elt(L, us), zar_elt(L, vs)) == \
                ref_loc_leq(us, vs), (L, us, vs)
            cert = zar_eq_top(zar_elt(L, vs))
            assert (cert is not None) == ref_loc_eq_top(L, vs), (L, vs)
            assert cert is None or cert.verify()
        assert equal > 0, L
