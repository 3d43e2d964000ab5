import random

import pytest

from zkit import (IntegerRing, Rationals, ResidueRing,
                  RingMismatch, hom_compose, is_unit, lattice_morphism,
                  localize, make_hom,
                  polynomial_ring, pushdown, quotient_by, restrict,
                  support_D, zar_bottom, zar_elt, zar_eq, zar_eq_top,
                  zar_join, zar_leq, zar_meet, zar_top)
from helpers import (random_element, random_endo, random_ring,
                     random_unimodular_cover)

Z = IntegerRing()


def test_support_examples():
    assert support_D(Z.zero()) == zar_bottom(Z)
    assert zar_eq(support_D(Z.one()), zar_top(Z))
    assert zar_eq(support_D(Z.element(-6)), support_D(Z.element(6)))


def test_join_meet_examples():
    assert zar_eq(zar_join(support_D(Z.element(2)), support_D(Z.element(3))),
                  zar_top(Z))
    u = support_D(Z.element(10))
    assert zar_eq(zar_join(u, zar_bottom(Z)), u)
    assert zar_eq(zar_meet(u, zar_top(Z)), u)
    assert zar_meet(support_D(Z.element(2)),
                    support_D(Z.element(3))) == support_D(Z.element(6))


def test_order_examples():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    assert zar_eq(support_D(x ** 2), support_D(x))
    assert not zar_leq(support_D(Z.element(2)), support_D(Z.element(12)))
    assert zar_leq(support_D(Z.element(6)), support_D(Z.element(12)))
    assert zar_leq(zar_bottom(Z), support_D(Z.element(7)))
    with pytest.raises(RingMismatch):
        zar_leq(support_D(Z.element(2)), support_D(ResidueRing(4).element(2)))


def test_lattice_axioms_random():
    rng = random.Random(19)
    for _ in range(8):
        ring = random_ring(rng)
        us = [zar_elt(ring, [random_element(ring, rng, 2)
                             for _ in range(rng.randrange(3))])
              for _ in range(3)]
        u, v, w = us
        assert zar_eq(zar_join(u, v), zar_join(v, u))
        assert zar_eq(zar_meet(u, v), zar_meet(v, u))
        assert zar_eq(zar_join(u, zar_join(v, w)), zar_join(zar_join(u, v), w))
        assert zar_eq(zar_meet(u, zar_meet(v, w)), zar_meet(zar_meet(u, v), w))
        assert zar_eq(zar_join(u, zar_meet(u, v)), u)   # absorption
        assert zar_eq(zar_meet(u, zar_join(u, v)), u)
        lhs = zar_meet(u, zar_join(v, w))               # distributivity
        rhs = zar_join(zar_meet(u, v), zar_meet(u, w))
        assert zar_eq(lhs, rhs)


def test_support_laws_random():
    rng = random.Random(29)
    for _ in range(8):
        ring = random_ring(rng)
        assert zar_eq(support_D(ring.one()), zar_top(ring))
        assert zar_eq(support_D(ring.zero()), zar_bottom(ring))
        for _ in range(6):
            f, g = random_element(ring, rng, 2), random_element(ring, rng, 2)
            assert zar_eq(support_D(f * g),
                          zar_meet(support_D(f), support_D(g)))
            assert zar_leq(support_D(f + g),
                           zar_join(support_D(f), support_D(g)))


def test_eq_top_certificates():
    cert = zar_eq_top(zar_elt(Z, [4, 9]))
    assert cert.verify() and [c.payload for c in cert.cofactors] == [-2, 1]
    assert zar_eq_top(support_D(Z.element(2))) is None
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    cert = zar_eq_top(zar_elt(Qx, [x, x - 1]))
    assert cert.verify()
    assert zar_eq_top(zar_top(Z)).verify()
    # bottom is top exactly in the trivial ring
    assert zar_eq_top(zar_bottom(Z)) is None
    trivial = quotient_by(Qx, [Qx.one()])
    cert = zar_eq_top(zar_bottom(trivial))
    assert cert is not None and cert.verify()


def test_eq_top_agrees_with_zar_eq():
    rng = random.Random(37)
    for _ in range(30):
        ring = random_ring(rng)
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(1, 3))])
        assert (zar_eq_top(u) is not None) == zar_eq(u, zar_top(ring))


def test_lattice_morphism_laws():
    Z8 = ResidueRing(8)
    phi = make_hom(Z, Z8)
    assert zar_eq(lattice_morphism(phi, support_D(Z.element(2))),
                  zar_bottom(Z8))
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    shift = make_hom(Qx, Qx, (x + 1,))
    assert lattice_morphism(shift, support_D(x)) == support_D(x + 1)
    rng = random.Random(41)
    for _ in range(10):
        ring = random_ring(rng, kinds=("Q", "Fp"))
        phi = random_endo(ring, rng)
        if phi is None:
            continue
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        v = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        assert zar_eq(lattice_morphism(phi, zar_join(u, v)),
                      zar_join(lattice_morphism(phi, u),
                               lattice_morphism(phi, v)))
        assert zar_eq(lattice_morphism(phi, zar_meet(u, v)),
                      zar_meet(lattice_morphism(phi, u),
                               lattice_morphism(phi, v)))
        assert zar_eq(lattice_morphism(phi, zar_top(ring)), zar_top(ring))
        # functoriality on generators
        psi = random_endo(ring, rng)
        if psi is None:
            continue
        comp = hom_compose(psi, phi)
        assert zar_eq(lattice_morphism(comp, u),
                      lattice_morphism(psi, lattice_morphism(phi, u)))


def test_order_unit_bridge():
    """zar_leq(D(g), D(f)) iff f/1 is a unit in R[1/g], decided along two
    independent code paths."""
    rng = random.Random(43)
    for _ in range(40):
        ring = random_ring(rng)
        f, g = random_element(ring, rng, 2), random_element(ring, rng, 2)
        order = zar_leq(support_D(g), support_D(f))
        L = localize(ring, g)
        unit = is_unit(L.element(L.from_base(f))) is not None
        assert order == unit, (ring, str(f), str(g))


def test_restrict_examples():
    L2 = localize(Z, 2)
    assert zar_eq_top(restrict(L2, support_D(Z.element(2)))).verify()
    assert restrict(L2, zar_bottom(Z)) == zar_bottom(L2)
    r = restrict(L2, support_D(Z.element(6)))
    assert zar_eq(r, zar_elt(L2, [L2.fraction(3)]))


def test_pushdown_examples():
    L2 = localize(Z, 2)
    assert zar_eq(pushdown(L2, zar_top(L2)), support_D(Z.element(2)))
    assert pushdown(L2, zar_elt(L2, [L2.fraction(3, 1)])) == \
        support_D(Z.element(6))
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    Lx = localize(Qx, x)
    assert zar_eq(pushdown(Lx, zar_elt(Lx, [Lx.fraction(x ** 2, 1)])),
                  support_D(x))
    assert zar_leq(pushdown(Lx, zar_elt(Lx, [Lx.fraction(x + 1, 2)])),
                   support_D(x))


def test_pushdown_restrict_identity_random():
    rng = random.Random(47)
    for _ in range(40):
        ring = random_ring(rng)
        f = random_element(ring, rng, 2)
        L = localize(ring, f)
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        assert zar_eq(pushdown(L, restrict(L, u)),
                      zar_meet(u, support_D(f)))


def test_pushdown_is_lattice_map_on_samples():
    rng = random.Random(53)
    for _ in range(25):
        ring = random_ring(rng)
        f = random_element(ring, rng, 1)
        L = localize(ring, f)
        def rand_loc():
            return zar_elt(L, [L.fraction(random_element(ring, rng, 2),
                                          rng.randrange(3))
                               for _ in range(rng.randrange(3))])
        u, v = rand_loc(), rand_loc()
        assert zar_eq(pushdown(L, zar_join(u, v)),
                      zar_join(pushdown(L, u), pushdown(L, v)))
        assert zar_eq(pushdown(L, zar_meet(u, v)),
                      zar_meet(pushdown(L, u), pushdown(L, v)))
        assert zar_leq(pushdown(L, u), support_D(f))


def test_zariski_separated_random():
    """Equal restrictions along a unimodular cover force equality, and
    unequal elements show a differing restriction."""
    rng = random.Random(59)
    positives = negatives = 0
    while positives < 12 or negatives < 12:
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        v = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        if zar_eq(u, v):
            positives += 1
            for f in cover.elements:
                L = localize(ring, f)
                assert zar_eq(restrict(L, u), restrict(L, v))
        else:
            negatives += 1
            differs = any(
                not zar_eq(restrict(localize(ring, f), u),
                           restrict(localize(ring, f), v))
                for f in cover.elements)
            assert differs, (ring, str(u), str(v),
                             [str(f) for f in cover.elements])


def test_zar_leq_decides_only_foreign_generators(monkeypatch):
    """A generator of u that is a generator of v lies in sqrt(<v>)
    without a radical-membership decision."""
    from zkit import lattice
    decided = []
    real = lattice.radical_member
    monkeypatch.setattr(lattice, "radical_member",
                        lambda a, ideal: decided.append(a) or real(a, ideal))
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    x, y = Qxy.var("x"), Qxy.var("y")
    assert zar_leq(zar_elt(Qxy, [x, y]), zar_elt(Qxy, [x, y, x * y]))
    assert decided == []
    assert not zar_leq(zar_elt(Qxy, [x, x + 1]), zar_elt(Qxy, [x, y]))
    assert decided == [x + 1]
