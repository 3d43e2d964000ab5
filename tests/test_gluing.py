import random

import pytest

from zkit import (CompatibleFamily, CompatibleHomFamily, IncompatibleFamily,
                  IntegerRing, NotUnimodular, NotWellDefined, Rationals,
                  ResidueRing, check_compatibility,
                  frac_eq, glue_element, glue_hom, identity_hom, localize,
                  make_cover, make_family, make_hom, make_hom_family,
                  polynomial_ring, pullback_cover, quotient_by,
                  restrict_element, restrict_hom)
from helpers import (random_element, random_endo, random_ring,
                     random_unimodular_cover)

Z = IntegerRing()


def test_make_cover():
    cov = make_cover(Z, [2, 3])
    assert cov.certificate.verify()
    make_cover(Z, [1])
    Qx = polynomial_ring(Rationals(), ["x"])
    with pytest.raises(NotUnimodular):
        make_cover(Qx, [Qx.var("x"), Qx.var("x") ** 2])


def test_restrict_then_glue_identity():
    cov = make_cover(Z, [2, 3])
    for g in (5, 0, -7):
        fam = restrict_element(cov, g)
        assert glue_element(fam) == Z.element(g)


def test_glue_spec_family():
    cov = make_cover(Z, [2, 3])
    L2, L3 = cov.localized
    fam = make_family(cov, (L2.fraction(10, 1), L3.fraction(15, 1)))
    assert glue_element(fam) == Z.element(5)


def test_incompatible_family_detected():
    cov = make_cover(Z, [2, 3])
    L2, L3 = cov.localized
    check = check_compatibility(cov, (L2.fraction(1, 0), L3.fraction(0, 0)))
    assert not check.ok and check.failing_pair == (0, 1)
    with pytest.raises(IncompatibleFamily):
        make_family(cov, (L2.fraction(1, 0), L3.fraction(0, 0)))


def test_nilpotent_cover_compatibility():
    # in Z/8[1/6], 1/1 equals 9/1; saturation witnesses are nontrivial
    Z8 = ResidueRing(8)
    cov = make_cover(Z8, [3, 5])
    fam = restrict_element(cov, 6)
    assert glue_element(fam) == Z8.element(6)


def test_round_trips_with_padding_random():
    rng = random.Random(61)
    for _ in range(30):
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        g = random_element(ring, rng, 2)
        padded = []
        for f, L in zip(cover.elements, cover.localized):
            k = rng.randrange(0, 3)
            padded.append(L.fraction(g * f ** k, k))
        fam = make_family(cover, tuple(padded))
        glued = glue_element(fam)
        assert glued == g, (ring, str(g), [str(f) for f in cover.elements])
        for x, L in zip(fam.elements, cover.localized):
            assert frac_eq(L.from_base(glued), x)


def test_glue_with_localization_kernel_noise():
    """Compatible families whose components differ from a global element
    by zero divisors dying in the localizations; witnesses must be taken
    on denominator-aligned representatives for the glue to go through."""
    import itertools
    R48 = ResidueRing(48)
    cov = make_cover(R48, [2, 3])
    L2, L3 = cov.localized
    g = R48.element(5)
    for k1, k2, m1, m2 in itertools.product(range(3), range(3),
                                            range(3), range(3)):
        x1 = L2.fraction(g * R48.element(2) ** k1 + R48.element(3 * m1), k1)
        x2 = L3.fraction(g * R48.element(3) ** k2 + R48.element(16 * m2), k2)
        assert frac_eq(x1, L2.from_base(g))
        assert frac_eq(x2, L3.from_base(g))
        glued = glue_element(make_family(cov, (x1, x2)))
        assert frac_eq(L2.from_base(glued), x1)
        assert frac_eq(L3.from_base(glued), x2)
        assert glued == g  # separatedness pins the global element
    # same shape over a quotient ring with zero divisors: y dies in
    # R[1/x] because x*y = 0
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    R = quotient_by(Qxy, [Qxy.var("x") * Qxy.var("y")])
    x, y = R.var("x"), R.var("y")
    cov = make_cover(R, [x, 1 - x])
    La, Lb = cov.localized
    g = x + 2
    fam = make_family(cov, (La.fraction(g * x + 3 * y, 1),
                            Lb.fraction(g * (1 - x) ** 2, 2)))
    glued = glue_element(fam)
    assert glued == g


def _kernel_element(ring, f, rng):
    """Some z with z * f^m == 0, preferably nonzero (kernel of the
    canonical map into the localization)."""
    from zkit import saturates
    from helpers import random_element
    for _ in range(10):
        z = random_element(ring, rng, 2)
        if not z.is_zero and saturates(z, f):
            return z
    return ring.zero()


def test_glue_adversarial_families_random():
    """Families built as global restrictions plus localization-kernel
    noise with heterogeneous exponents, across all ring kinds."""
    rng = random.Random(97)
    nontrivial_noise = 0
    for _ in range(40):
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        g = random_element(ring, rng, 2)
        components = []
        for f, L in zip(cover.elements, cover.localized):
            k = rng.randrange(0, 3)
            z = _kernel_element(ring, f, rng)
            if not z.is_zero:
                nontrivial_noise += 1
            components.append(L.fraction(g * f ** k + z, k))
        fam = make_family(cover, tuple(components))
        glued = glue_element(fam)
        assert glued == g
        for x, L in zip(fam.elements, cover.localized):
            assert frac_eq(L.from_base(glued), x)
    assert nontrivial_noise > 0  # the sampler must actually hit kernels


def test_pullback_cover_square():
    rng = random.Random(67)
    cov = make_cover(Z, [2, 3])
    phi = make_hom(Z, ResidueRing(7))
    pulled, maps = pullback_cover(cov, phi)
    assert pulled.certificate.verify()
    for _ in range(20):
        r = Z.element(rng.randrange(-30, 30))
        for i, (L, Lp) in enumerate(zip(cov.localized, pulled.localized)):
            lhs = maps[i](L.from_base(r))
            rhs = Lp.from_base(phi(r))
            assert frac_eq(lhs, rhs)
    # identity pullback keeps the cover
    ident = make_hom(Z, Z)
    same, _ = pullback_cover(cov, ident)
    assert same.elements == cov.elements


def test_pullback_cover_poly():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    cov = make_cover(Qx, [x, 1 - x])
    phi = make_hom(Qx, Qx, (x + 1,))
    pulled, maps = pullback_cover(cov, phi)
    assert [str(e) for e in pulled.elements] == ["x + 1", "-x"]
    assert pulled.certificate.verify()


def test_hom_level_round_trips():
    Qx = polynomial_ring(Rationals(), ["x"])
    Qt = polynomial_ring(Rationals(), ["t"])
    x = Qx.var("x")
    cov = make_cover(Qx, [x, 1 - x])
    psi = make_hom(Qt, Qx, (x ** 2 - 3,))
    fam = restrict_hom(cov, psi)
    glued = glue_hom(fam)
    assert glued.generator_images == psi.generator_images
    # sigma(glue(fam)) recovers the family in R[1/f_i]
    again = restrict_hom(cov, glued)
    for h1, h2 in zip(fam.homs, again.homs):
        for a, b in zip(h1.generator_images, h2.generator_images):
            assert a == b


def test_hom_family_by_hand():
    Qx = polynomial_ring(Rationals(), ["x"])
    Qt = polynomial_ring(Rationals(), ["t"])
    x = Qx.var("x")
    cov = make_cover(Qx, [x, 1 - x])
    Lx, L1x = cov.localized
    h1 = make_hom(Qt, Lx, (Lx.from_base(x),))
    h2 = make_hom(Qt, L1x, (L1x.from_base(x),))
    glued = glue_hom(make_hom_family(cov, Qt, (h1, h2)))
    assert glued.generator_images[0] == x
    # fabricated incompatible family
    bad2 = make_hom(Qt, L1x, (L1x.from_base(Qx.zero()),))
    with pytest.raises(IncompatibleFamily):
        make_hom_family(cov, Qt, (h1, bad2))


def test_forged_witnesses_do_not_glue():
    """A family whose witnesses claim compatibility it does not have is
    caught when the glued element fails to restrict to it, for elements
    and, through the per-generator families, for homs."""
    cov = make_cover(Z, [2, 3])
    L2, L3 = cov.localized
    forged = CompatibleFamily(cov, (L2.fraction(1), L3.fraction(0)),
                              ((0, 1, 0),))
    with pytest.raises(IncompatibleFamily, match="fails to restrict"):
        glue_element(forged)
    Qx = polynomial_ring(Rationals(), ["x"])
    Qt = polynomial_ring(Rationals(), ["t"])
    x = Qx.var("x")
    cov = make_cover(Qx, [x, 1 - x])
    Lx, L1x = cov.localized
    one, zero = Lx.from_base(Qx.one()), L1x.from_base(Qx.zero())
    homs = (make_hom(Qt, Lx, (one,)), make_hom(Qt, L1x, (zero,)))
    forged = CompatibleHomFamily(
        cov, Qt, homs, (CompatibleFamily(cov, (one, zero), ((0, 1, 0),)),))
    with pytest.raises(IncompatibleFamily, match="fails to restrict"):
        glue_hom(forged)


def test_glue_hom_relation_failure():
    """Pairwise-compatible images that break a domain relation must be
    rejected when the glued hom is assembled."""
    from zkit import NotWellDefined
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    A = quotient_by(polynomial_ring(Rationals(), ["t"]),
                    [polynomial_ring(Rationals(), ["t"]).var("t") ** 2 - 1])
    cov = make_cover(Qx, [Qx.one()])
    L = cov.localized[0]
    # x does not satisfy t^2 = 1, so the hom into R[1/1] must be rejected
    with pytest.raises(NotWellDefined):
        make_hom(A, L, (L.from_base(x),))


def test_hom_round_trips_random():
    rng = random.Random(71)
    for _ in range(15):
        ring = random_ring(rng, kinds=("Q", "Fp"))
        cover = random_unimodular_cover(ring, rng)
        psi = random_endo(ring, rng)
        if psi is None:
            continue
        fam = restrict_hom(cover, psi)
        glued = glue_hom(fam)
        assert glued.generator_images == psi.generator_images


def test_glue_hom_integer_domains():
    cov = make_cover(Z, [2, 3])
    fam = restrict_hom(cov, make_hom(Z, Z))
    assert glue_hom(fam).domain == Z
    Z6 = ResidueRing(6)
    cov6 = make_cover(Z6, [Z6.element(2), Z6.element(3)])
    fam6 = restrict_hom(cov6, make_hom(Z6, Z6))
    glued = glue_hom(fam6)
    assert glued.domain == Z6 and glued.codomain == Z6
    for ring, elements in ((Z, [2, 3]), (ResidueRing(12), [3, 4])):
        ident = identity_hom(ring)
        glued = glue_hom(restrict_hom(make_cover(ring, elements), ident))
        assert glued == ident
        assert glued(ring.element(7)) == ring.element(7)


def test_loc_homs_out_of_residue_rings():
    # 4 is not 0 in Z[1/2], but 4 * 2 == 0 in Z/8, so 4/1 == 0 in (Z/8)[1/2]
    Z4, Z8 = ResidueRing(4), ResidueRing(8)
    with pytest.raises(NotWellDefined):
        make_hom(Z4, localize(Z, 2))
    L = localize(Z8, 2)
    h = make_hom(Z4, L)
    assert h(Z4.element(3)) == L.element(L.from_base(3))
