import json
import random
import sys
from pathlib import Path

import pytest

from zkit import (CompatibleFamily, CompatibleHomFamily, IncompatibleFamily,
                  IntegerRing, NotUnimodular, NotWellDefined, PrimeField,
                  QuotientRing, Rationals, ResidueRing, check_compatibility,
                  frac_eq, glue_element, glue_hom, localize, make_cover,
                  make_family, make_hom, make_hom_family, polynomial_ring,
                  quotient_by, restrict_element, restrict_hom)
from helpers import (random_element, random_endo, random_quotient_ring,
                     random_ring, random_unimodular_cover,
                     reference_check_compatibility, reference_glue_element,
                     reference_restriction_exponents)
from zkit import gluing
from zkit.errors import ResourceExceeded, ZkitError
from zkit.gluing import restriction_exponents, restricts
from zkit.interp import Options, run_source
from zkit.limits import limits

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # the bench package generates scripts

from bench import check, gen  # noqa: E402

SCRIPTS = Path(__file__).parent / "scripts"

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
        assert glue_element(fam) == (Z.element(g), (0, 0))


def test_glue_spec_family():
    cov = make_cover(Z, [2, 3])
    L2, L3 = cov.localized
    fam = make_family(cov, (L2.fraction(10, 1), L3.fraction(15, 1)))
    assert glue_element(fam) == (Z.element(5), (0, 0))


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
    assert glue_element(fam)[0] == Z8.element(6)


def test_restricts_is_the_plain_identity():
    """restricts(g, x, k) for x = num/f^e agrees with (g f^e - num) f^k
    == 0 formed by repeated products, over random rings (zero divisors
    included), and g restricts to x in R[1/f] whenever it holds."""
    rng = random.Random(67)
    for _ in range(40):
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        g = random_element(ring, rng, 2)
        for f, L in zip(cover.elements, cover.localized):
            e = rng.randrange(3)
            num = (g * f ** e + random_element(ring, rng, 1) * (1 - f)
                   if rng.random() < 0.5 else random_element(ring, rng, 2))
            x = L.fraction(num, e)
            diff = g * f ** e - num
            for k in range(4):
                assert restricts(g, x, k) == diff.is_zero, (ring, f, x, k)
                if diff.is_zero:
                    assert frac_eq(L.from_base(g), x)
                diff = diff * f


def test_restriction_exponents_are_the_least_under_the_cap():
    """Over Q[x, y]/(x*y) the glued y restricts to 0/(-x)^0 with k = 1
    and not 0; with the cap at 0 that k is ResourceExceeded."""
    R = polynomial_ring(Rationals(), ["x", "y"])
    S = quotient_by(R, [R.var("x") * R.var("y")])
    x, y = S.var("x"), S.var("y")
    cov = make_cover(S, [x + 1, -x])
    La, Lb = cov.localized
    fam = make_family(cov, (La.fraction(y), Lb.fraction(0)))
    g, least = glue_element(fam)
    assert g == y and least == restriction_exponents(fam, g) == (0, 1)
    assert not restricts(g, fam.elements[1], 0)
    with limits(max_exponent=0), pytest.raises(ResourceExceeded) as exc:
        restriction_exponents(fam, g)
    assert "no exponent up to 0 = max(max_exponent=0" in str(exc.value)


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
        glued, _ = glue_element(fam)
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
        glued, _ = glue_element(make_family(cov, (x1, x2)))
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
    glued, _ = glue_element(fam)
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
        glued, _ = glue_element(fam)
        assert glued == g
        for x, L in zip(fam.elements, cover.localized):
            assert frac_eq(L.from_base(glued), x)
    assert nontrivial_noise > 0  # the sampler must actually hit kernels


GLUE_KINDS = ("Z", "Q[x]", "Fp", "Fp[x]", "Z/n", "quotient")


def _glue_ring(rng, kind):
    p = rng.choice((2, 3, 5, 7, 11, 13))
    return {"Z": lambda: Z,
            "Q[x]": lambda: polynomial_ring(Rationals(), ["x"]),
            "Fp": lambda: QuotientRing(PrimeField(p)),
            "Fp[x]": lambda: polynomial_ring(PrimeField(p), ["x"]),
            "Z/n": lambda: ResidueRing(rng.randrange(2, 65)),
            # with relations (not a domain) or without (a free ring)
            "quotient": lambda: random_quotient_ring(rng, max_vars=2)}[kind]()


def _glue_cover(ring, rng):
    """The unit cover [1], [1, 0], a random cover, or a random cover
    with a 0 element in a random slot."""
    roll = rng.randrange(4)
    if roll < 2:
        return make_cover(ring, [ring.one(), ring.zero()][:roll + 1])
    elements = list(random_unimodular_cover(ring, rng).elements)
    if roll == 3:
        elements.insert(rng.randrange(len(elements) + 1), ring.zero())
    return make_cover(ring, elements)


def _glue_members(cover, rng):
    """Members (g f^e + z) / f^e of a global g, e in 0..3, z 0 or in the
    kernel of R -> R[1/f] (any element for f = 0); perturbed, one
    numerator plus a random element, four times in ten."""
    ring = cover.ring
    g = random_element(ring, rng, 2)
    members = []
    for f, L in zip(cover.elements, cover.localized):
        e = rng.randrange(4)
        z = _kernel_element(ring, f, rng) if rng.random() < 0.5 \
            else ring.zero()
        members.append(L.fraction(g * f ** e + z, e))
    if rng.random() < 0.4:
        i = rng.randrange(len(members))
        x = members[i]
        members[i] = cover.localized[i].fraction(
            x.num + random_element(ring, rng, 1), x.exp)
    return tuple(members)


def _outcome(fn):
    """fn's value, or the type and message of the ZkitError it raises."""
    try:
        return fn()
    except ZkitError as exc:
        return type(exc), str(exc)


def _reference_glue(fam):
    g = reference_glue_element(fam)
    return g, reference_restriction_exponents(fam, g)


@pytest.mark.parametrize("seed", range(1, 5))
def test_glue_matches_reference_on_seeded_families(seed):
    """check_compatibility and glue_element against the power-certificate
    route they replaced over a domain (tests/helpers.py), on seeded
    families over Z, Q[x], Fp, Fp[x], Z/n and quotient rings: equal
    witnesses and failing pairs, equal glued elements and exponents k,
    and equal exception types and messages.  A failed check's witnesses
    also forge a CompatibleFamily, which both must refuse alike."""
    rng = random.Random(f"glue-reference/{seed}")
    seen = set()
    for trial in range(72):
        kind = GLUE_KINDS[trial % len(GLUE_KINDS)]
        ring = _glue_ring(rng, kind)
        cover = _glue_cover(ring, rng)
        members = _glue_members(cover, rng)
        got = check_compatibility(cover, members)
        want = reference_check_compatibility(cover, members)
        assert (got.ok, got.witnesses, got.failing_pair) == \
            (want.ok, want.witnesses, want.failing_pair), (ring, cover)
        fam = CompatibleFamily(cover, members, got.witnesses)
        glued = _outcome(lambda: glue_element(fam))
        assert glued == _outcome(lambda: _reference_glue(fam)), (ring, cover)
        zero = any(f.is_zero for f in cover.elements)
        seen.add((ring.is_domain, zero, got.ok,
                  isinstance(glued[0], type) or max(glued[1]) > 0))
        seen.update(("exp", x.exp) for x in members)
        seen.add(("unit cover", cover.elements == (ring.one(),)))
    assert {("exp", e) for e in range(4)} <= seen
    assert ("unit cover", True) in seen
    # a domain: with and without a 0 element, refused, and a k of 1
    assert {(True, False, False, True), (True, False, True, False),
            (True, True, True, True)} <= seen


def _domain_glue_subscript(sc):
    """The ring declarations of a bench.gen script and its glue and qcqs
    statements over a domain (Z, Q[x], Fp(p)[x]): its Z/n glue goes."""
    return [st for st in sc.stmts
            if st.src.startswith(("ring", "qcqs"))
            or st.src.startswith("glue") and st.expect["mod"] is None]


def test_domain_glue_forms_no_power_certificate(monkeypatch):
    """With gluing.power_certificate made to raise, every corpus script
    but zmod_cover.zk (over Z/6) answers as expected.json pins it, and
    the seed-1 bench.gen glue and qcqs statements over Z, Q[x] and Fp
    answer as they were built to; zmod_cover.zk still reaches it."""
    class Reached(Exception):
        pass  # not a ZkitError: run_script lets it through

    def refuse(cert, m):
        raise Reached(m)

    monkeypatch.setattr(gluing, "power_certificate", refuse)
    golden = json.loads((SCRIPTS / "expected.json").read_text())
    reaching = set()
    for path in sorted(SCRIPTS.glob("*.zk")):
        try:
            data = json.loads(json.dumps(run_source(
                path.read_text(), Options(seed=0)).to_json(), default=str))
        except Reached:
            reaching.add(path.stem)
            continue
        for entry in data["results"]:
            del entry["ms"]
        assert data == golden[path.stem], path.stem
    assert reaching == {"zmod_cover"}
    answered = {"glue": 0, "qcqs": 0}
    for sc in gen.ideal_decide(1) + gen.points_glue(1):
        stmts = _domain_glue_subscript(sc)
        report = run_source("".join(st.src + ";\n" for st in stmts))
        for st, entry in zip(stmts, report.to_json()["results"]):
            assert check.check_statement(st.expect, entry) is None, st.src
            kind = st.src.split()[0]
            if kind in answered:
                answered[kind] += 1
    assert answered["glue"] >= 36 + 12 * 3 and answered["qcqs"] >= 12


def test_each_restriction_is_decided_once(monkeypatch):
    """A glue statement decides each member's restriction once: its scan
    calls restricts k + 1 times for a member whose least exponent is k,
    and once for f = 0 (k is 0 or 1 there), and nothing checks the
    glued element again before the certificate is written."""
    calls, real = [], gluing.restricts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gluing, "restricts", counted)
    expected = 0
    scripts = sorted(SCRIPTS.glob("glue_*.zk")) + [SCRIPTS / "zmod_cover.zk"]
    for path in scripts:
        for entry in run_source(path.read_text()).to_json()["results"]:
            cert = entry["certificate"]
            if cert and cert["claim"] == "glue":
                expected += sum(1 if m["den"] == "0" else m["k"] + 1
                                for m in cert["family"])
    assert expected and len(calls) == expected


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
        ident = make_hom(ring, ring, ring.gens())
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
