import random

import pytest

from zkit import (CodomainNotFinite, CompactOpen, IntegerRing, PrimeField,
                  QuotientRing, Rationals, affine_cover, compact_open,
                  empty_open, enumerate_homs, function_eval, localize,
                  locality_trial, make_hom,
                  point_from_localized_hom, point_membership,
                  point_to_localized_hom, points_over, polynomial_ring,
                  qcqs_certificate, quotient_by, standard_open,
                  whole_scheme, zar_eq_top, zar_join, zar_leq, zar_meet)
from helpers import (random_element, random_quotient_ring,
                     random_unimodular_cover)

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
    pts = points_over(whole_scheme(ring), field)
    assert len(pts) == brute_force_fermat_count(p, n)


def test_point_membership_examples():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    V = standard_open(Qx, x)
    assert point_membership(V, make_hom(Qx, Qx, (Qx.zero(),))) is None
    pt = point_membership(V, make_hom(Qx, Qx, (Qx.from_int(2),)))
    assert pt is not None and pt.witness.verify()
    # top admits every hom
    top = whole_scheme(Qx)
    assert point_membership(top, make_hom(Qx, Qx, (Qx.zero(),))) is not None


def test_points_over_witness_is_point_membership():
    """points_over shares one certificate per pulled-back element; each
    point's witness is still exactly point_membership's."""
    rng = random.Random(97)
    members = non_members = 0
    for trial in range(12):
        p = (2, 3, 5)[trial % 3]
        ring = random_quotient_ring(rng, base=PrimeField(p), max_vars=2,
                                    max_relations=1, rel_deg=2)
        opens = (compact_open(ring, [random_element(ring, rng, max_deg=2)
                                     for _ in range(rng.randrange(1, 3))])
                 for _ in range(20))
        V = next((V for V in opens if zar_eq_top(V.element) is None), None)
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
    pts = points_over(standard_open(F5x, F5x.var("x")), F5)
    assert [str(p.hom.generator_images[0]) for p in pts] == ["1", "2", "3", "4"]
    assert points_over(empty_open(F5x), F5) == []
    with pytest.raises(CodomainNotFinite):
        points_over(whole_scheme(Z), Z)


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
            return compact_open(ring, [random_element(ring, rng, 2)
                                       for _ in range(rng.randrange(3))])

        V, W = rand_open(), rand_open()
        u, v = V.element, W.element
        assert (keyset(CompactOpen(V.scheme, zar_join(u, v)))
                == keyset(V) | keyset(W))
        assert (keyset(CompactOpen(V.scheme, zar_meet(u, v)))
                == keyset(V) & keyset(W))
        if zar_leq(u, v):
            assert keyset(V) <= keyset(W)
        assert len(keyset(whole_scheme(ring))) == len(total)


def test_standard_open_bijection_round_trips():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    L = localize(F5x, F5x.var("x"))
    pres_homs = enumerate_homs(L.presentation, F5)
    pts = points_over(standard_open(F5x, F5x.var("x")), F5)
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
    pts = points_over(standard_open(F5x, F5x.one()), F5)
    assert len(pres_homs) == len(pts) == 5


def test_affine_cover():
    ac = affine_cover(compact_open(Z, [4, 9]))
    assert ac.n == 2 and ac.join_matches
    assert ac.top_certificate is not None and ac.top_certificate.verify()
    assert [str(o.element) for o in ac.opens] == ["D(4)", "D(9)"]
    whole = affine_cover(whole_scheme(Z))
    assert whole.n == 1 and whole.top_certificate is not None
    degenerate = affine_cover(empty_open(Z))
    assert degenerate.n == 0 and degenerate.degenerate and degenerate.join_matches
    partial = affine_cover(compact_open(Z, [6, 10]))
    assert partial.top_certificate is None and partial.join_matches


def test_function_eval():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    x = F5x.var("x")
    pts = points_over(whole_scheme(F5x), F5)
    pt2 = next(p for p in pts if str(p.hom.generator_images[0]) == "2")
    assert function_eval(x ** 2 + 1, pt2).is_zero
    assert function_eval(F5x.one(), pt2) == F5.one()
    rng = random.Random(79)
    from helpers import random_element
    for pt in pts[:3]:
        r = random_element(F5x, rng, 2)
        s = random_element(F5x, rng, 2)
        assert function_eval(r + s, pt) == \
            function_eval(r, pt) + function_eval(s, pt)
        assert function_eval(r * s, pt) == \
            function_eval(r, pt) * function_eval(s, pt)


def test_loc_point_membership():
    F5x = polynomial_ring(PrimeField(5), ["x"])
    V = standard_open(F5x, F5x.var("x"))
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
    V = standard_open(F5x, F5x.var("x"))
    for pt in points_over(V, F5):
        cover = random_unimodular_cover(F5, rng)
        trial = locality_trial(V, pt.hom, cover, rng)
        assert trial.ok, trial


def test_qcqs_reports():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    rep = qcqs_certificate(compact_open(Qx, [x, 1 - x]), seed=7, trials=4)
    assert rep.ok and len(rep.trials) == 4
    assert rep.cover.n == 2
    rep2 = qcqs_certificate(whole_scheme(Z), seed=1, trials=3)
    assert rep2.ok and rep2.cover.top_certificate is not None
    rep3 = qcqs_certificate(empty_open(Qx), seed=2)
    assert rep3.cover.degenerate and "degenerate" in rep3.note
    # deterministic under a fixed seed
    again = qcqs_certificate(compact_open(Qx, [x, 1 - x]), seed=7, trials=4)
    assert [t.point for t in again.trials] == [t.point for t in rep.trials]
