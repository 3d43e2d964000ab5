import random

import pytest

from zkit import (CodomainNotFinite, IntegerRing, PrimeField, QuotientRing,
                  Rationals, ResidueRing, RingMismatch, affine_cover,
                  enumerate_homs, hom_apply, localize, locality_trial,
                  make_hom, point_from_localized_hom, point_membership,
                  point_to_localized_hom, points_over, polynomial_ring,
                  qcqs_certificate, quotient_by, support_D, zar_bottom,
                  zar_elt, zar_eq_top, zar_join, zar_leq, zar_meet, zar_top)
from zkit import schemes
from helpers import (random_element, random_quotient_ring,
                     random_unimodular_cover, reference_qcqs)

Z = IntegerRing()
F5 = QuotientRing(PrimeField(5))
F7 = QuotientRing(PrimeField(7))


def fermat_ring(p, n):
    free = polynomial_ring(PrimeField(p), ["x", "y", "z"])
    x, y, z = free.gens()
    return quotient_by(free, [x ** n + y ** n - z ** n])


def brute_force_fermat_count(p, n):
    return sum(1 for a in range(p) for b in range(p) for c in range(p)
               if (pow(a, n, p) + pow(b, n, p) - pow(c, n, p)) % p == 0)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 3), (5, 2)])
def test_fermat_point_counts(p, n):
    ring = fermat_ring(p, n)
    field = QuotientRing(PrimeField(p))
    pts = points_over(zar_top(ring), field)
    assert len(pts) == brute_force_fermat_count(p, n)


def test_point_membership_examples():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    V = support_D(x)
    assert point_membership(V, make_hom(Qx, Qx, (Qx.zero(),))) is None
    pt = point_membership(V, make_hom(Qx, Qx, (Qx.from_int(2),)))
    assert pt is not None and pt.witness.verify()
    # top admits every hom
    top = zar_top(Qx)
    assert point_membership(top, make_hom(Qx, Qx, (Qx.zero(),))) is not None


def test_an_open_and_a_point_over_other_rings_are_a_ring_mismatch():
    """An open is a lattice element over its own ring, so the ring checks
    are lattice_morphism's and zar_eq's: a hom out of another ring is not
    a point of it, and a point of an open over another ring does not
    lift to R[1/f]."""
    F5x = polynomial_ring(PrimeField(5), ["x"])
    F5y = polynomial_ring(PrimeField(5), ["y"])
    u = support_D(F5x.var("x"))
    phi = make_hom(F5y, F5, (F5.one(),))
    with pytest.raises(RingMismatch, match="is not over the domain of"):
        point_membership(u, phi)
    pt = points_over(support_D(F5y.var("y")), F5)[0]
    with pytest.raises(RingMismatch):
        point_to_localized_hom(pt, localize(F5x, F5x.var("x")))


def test_points_over_witness_is_point_membership():
    """points_over shares one certificate per pulled-back element; each
    point's witness is still exactly point_membership's."""
    rng = random.Random(97)
    members = non_members = 0
    for trial in range(12):
        p = (2, 3, 5)[trial % 3]
        ring = random_quotient_ring(rng, base=PrimeField(p), max_vars=2,
                                    max_relations=1, rel_deg=2)
        opens = (zar_elt(ring, [random_element(ring, rng, max_deg=2)
                                for _ in range(rng.randrange(1, 3))])
                 for _ in range(20))
        V = next((V for V in opens if zar_eq_top(V) is None), None)
        if V is None:  # the zero ring, or only units drawn
            continue
        field = QuotientRing(PrimeField(p))
        pts = points_over(V, field)
        expected = [point_membership(V, phi)
                    for phi in enumerate_homs(ring, field)]
        assert [pt.hom for pt in pts] == [e.hom for e in expected
                                          if e is not None]
        for pt in pts:
            assert pt.witness == point_membership(V, pt.hom).witness
            assert pt.witness.verify()
        members += len(pts)
        non_members += expected.count(None)
    assert members and non_members


def test_points_over_standard_open():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    pts = points_over(support_D(F5x.var("x")), F5)
    assert [str(p.hom.generator_images[0]) for p in pts] == ["1", "2", "3", "4"]
    assert points_over(zar_bottom(F5x), F5) == []
    with pytest.raises(CodomainNotFinite):
        points_over(zar_top(Z), Z)


def test_point_sets_respect_lattice():
    rng = random.Random(73)
    for _ in range(10):
        p = rng.choice((3, 5))
        ring = random_quotient_ring(rng, base=PrimeField(p), max_vars=2,
                                    max_relations=1, rel_deg=2)
        field = QuotientRing(PrimeField(p))
        total = enumerate_homs(ring, field)

        def keyset(V):
            return {pt.hom.generator_images for pt in points_over(V, field)}

        def rand_open():
            from helpers import random_element
            return zar_elt(ring, [random_element(ring, rng, 2)
                                  for _ in range(rng.randrange(3))])

        u, v = rand_open(), rand_open()
        assert keyset(zar_join(u, v)) == keyset(u) | keyset(v)
        assert keyset(zar_meet(u, v)) == keyset(u) & keyset(v)
        if zar_leq(u, v):
            assert keyset(u) <= keyset(v)
        assert len(keyset(zar_top(ring))) == len(total)


def test_standard_open_bijection_round_trips():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    L = localize(F5x, F5x.var("x"))
    pres_homs = enumerate_homs(L.presentation, F5)
    pts = points_over(support_D(F5x.var("x")), F5)
    assert len(pres_homs) == len(pts) == 4
    for psi in pres_homs:
        pt = point_from_localized_hom(L, psi)
        back = point_to_localized_hom(pt, L)
        assert back.generator_images == psi.generator_images
    for pt in pts:
        psi = point_to_localized_hom(pt, L)
        again = point_from_localized_hom(L, psi)
        assert again.hom.generator_images == pt.hom.generator_images


def test_standard_open_bijection_f_is_one():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    L = localize(F5x, F5x.one())
    pres_homs = enumerate_homs(L.presentation, F5)
    pts = points_over(support_D(F5x.one()), F5)
    assert len(pres_homs) == len(pts) == 5


def test_affine_cover():
    ac = affine_cover(zar_elt(Z, [4, 9]))
    assert ac.n == 2 and ac.join_matches
    assert ac.top_certificate is not None and ac.top_certificate.verify()
    assert [str(o) for o in ac.opens] == ["D(4)", "D(9)"]
    assert ac.opens == (support_D(Z.element(4)), support_D(Z.element(9)))
    whole = affine_cover(zar_top(Z))
    assert whole.n == 1 and whole.top_certificate is not None
    degenerate = affine_cover(zar_bottom(Z))
    assert degenerate.n == 0 and degenerate.degenerate and degenerate.join_matches
    partial = affine_cover(zar_elt(Z, [6, 10]))
    assert partial.top_certificate is None and partial.join_matches


def test_function_eval():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    x = F5x.var("x")
    pts = points_over(zar_top(F5x), F5)
    pt2 = next(p for p in pts if str(p.hom.generator_images[0]) == "2")
    assert hom_apply(pt2.hom, x ** 2 + 1).is_zero
    assert hom_apply(pt2.hom, F5x.one()) == F5.one()
    rng = random.Random(79)
    from helpers import random_element
    for pt in pts[:3]:
        r = random_element(F5x, rng, 2)
        s = random_element(F5x, rng, 2)
        phi = pt.hom
        assert hom_apply(phi, r + s) == hom_apply(phi, r) + hom_apply(phi, s)
        assert hom_apply(phi, r * s) == hom_apply(phi, r) * hom_apply(phi, s)


def test_loc_point_membership():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    V = support_D(F5x.var("x"))
    L = localize(F5, F5.from_int(2))
    h = make_hom(F5x, L, (L.from_base(F5.from_int(3)),))
    pt = point_membership(V, h)
    assert pt is not None and pt.witness.verify()
    assert pt.witness.ring == L
    h0 = make_hom(F5x, L, (L.from_base(F5.zero()),))
    assert point_membership(V, h0) is None


def test_locality_trials():
    rng = random.Random(83)
    F5x = polynomial_ring(PrimeField(5), ["x"])
    V = support_D(F5x.var("x"))
    for pt in points_over(V, F5):
        cover = random_unimodular_cover(F5, rng)
        trial = locality_trial(pt, cover, rng, {})
        assert trial.ok, trial


def test_qcqs_reports():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    rep = qcqs_certificate(zar_elt(Qx, [x, 1 - x]), seed=7, trials=4)
    assert rep.ok and len(rep.trials) == 4
    assert rep.cover.n == 2
    rep2 = qcqs_certificate(zar_top(Z), seed=1, trials=3)
    assert rep2.ok and rep2.cover.top_certificate is not None
    rep3 = qcqs_certificate(zar_bottom(Qx), seed=2)
    assert rep3.cover.degenerate and "degenerate" in rep3.note
    # deterministic under a fixed seed
    again = qcqs_certificate(zar_elt(Qx, [x, 1 - x]), seed=7, trials=4)
    assert [t.point for t in again.trials] == [t.point for t in rep.trials]


def _qcqs_rings():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    F7xy = polynomial_ring(PrimeField(7), ["x", "y"])
    x, y = F7xy.gens()
    return {
        "Fp(5)[x]": F5x,
        "Fp(7)[x,y]/(y^2-x^3-1)": quotient_by(F7xy, [y ** 2 - x ** 3 - 1]),
        "Z": Z,
        "Z/12": ResidueRing(12),
        "Q[x]": polynomial_ring(Rationals(), ["x"]),
    }


@pytest.mark.parametrize("name", list(_qcqs_rings()))
def test_qcqs_decides_each_point_once(name, monkeypatch):
    """qcqs_certificate gives the report of the per-hom loop (trials,
    note, ok and cover), and decides membership once per distinct
    (value ring, image payloads) that loop decides."""
    ring = _qcqs_rings()[name]
    decided = []
    membership = schemes.point_membership

    def counted(V, phi):
        decided.append((phi.codomain, tuple(
            i.payload for i in phi.generator_images)))
        return membership(V, phi)

    monkeypatch.setattr(schemes, "point_membership", counted)
    for seed in range(10):
        rng = random.Random(seed)
        V = zar_elt(ring, [random_element(ring, rng, max_deg=2)
                           for _ in range(rng.randrange(1, 3))])
        decided.clear()
        report = qcqs_certificate(V, seed=seed)
        ours = list(decided)
        decided.clear()
        ref = reference_qcqs(V, seed=seed)
        assert report.trials == ref.trials, (name, seed)
        assert report.note == ref.note
        assert report.ok == ref.ok
        assert report.cover == ref.cover
        assert len(ours) == len(set(ours)) == len(set(decided)), (name, seed)
        assert set(ours) == set(decided)
