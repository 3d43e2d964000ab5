import random
import time

import pytest

from zkit import (BezoutCertificate, IntegerRing, PrimeField, QuotientRing,
                  Rationals, ResourceExceeded, ResidueRing, UnimodularCover,
                  fin_gen_ideal, glue_element, groebner, ideal_member,
                  limits, localize, make_cover, make_family, normalize,
                  polynomial_ring, power_certificate, quotient_by,
                  radical_member, radical_witness, saturates,
                  saturation_member, unimodular_certificate)
from zkit.serialize import membership_to_json, verify_certificate
from helpers import (random_element, random_poly_payload, random_ring,
                     reference_radical_witness)

Z = IntegerRing()


def test_groebner_surrogates():
    gb = groebner(fin_gen_ideal(Z, [4, 6]))
    assert [b.payload for b in gb.basis] == [2]
    gb8 = groebner(fin_gen_ideal(ResidueRing(8), [6, 4]))
    assert [b.payload for b in gb8.basis] == [2]
    assert groebner(fin_gen_ideal(Z, [0])).basis == ()
    Qx = polynomial_ring(Rationals(), ["x"])
    gb1 = groebner(fin_gen_ideal(Qx, [Qx.one()]))
    assert [str(b) for b in gb1.basis] == ["1"]


def test_groebner_deterministic():
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    x, y = Qxy.gens()
    I = fin_gen_ideal(Qxy, [x ** 2 - y, x ** 3])
    assert groebner(I) is groebner(I)  # cached per ideal
    names = [str(b) for b in groebner(I).basis]
    assert names == ["y^2", "x * y", "x^2 - y"]


def test_ideal_member_with_certificates():
    I = fin_gen_ideal(Z, [4, 6])
    cof = ideal_member(Z.element(10), I)
    assert sum(c.payload * g.payload for c, g in zip(cof, I.generators)) == 10
    assert ideal_member(Z.element(3), I) is None
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    assert ideal_member(x, fin_gen_ideal(Qx, [x ** 2])) is None
    cof = ideal_member(Qx.zero(), fin_gen_ideal(Qx, [x ** 2]))
    assert all(c.is_zero for c in cof)


def test_ideal_member_certificates_random():
    rng = random.Random(5)
    for _ in range(12):
        ring = random_ring(rng)
        gens = [random_element(ring, rng, 2) for _ in range(rng.choice([1, 2]))]
        I = fin_gen_ideal(ring, gens)
        # members built by construction must come back with valid cofactors
        coeffs = [random_element(ring, rng, 1) for _ in I.generators]
        a = ring.zero()
        for c, g in zip(coeffs, I.generators):
            a = a + c * g
        cof = ideal_member(a, I)
        assert cof is not None
        total = ring.zero()
        for c, g in zip(cof, I.generators):
            total = total + c * g
        assert total == a


def test_radical_member_examples():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    assert radical_member(x, fin_gen_ideal(Qx, [x ** 2]))
    assert not radical_member(x + 1, fin_gen_ideal(Qx, [x ** 2]))
    assert not radical_member(Z.element(2), fin_gen_ideal(Z, [12]))
    assert radical_member(Z.element(6), fin_gen_ideal(Z, [12]))
    assert radical_member(Z.element(1), fin_gen_ideal(Z, [1]))
    # Z/n lifts to the integer case
    assert radical_member(ResidueRing(8).element(2),
                          fin_gen_ideal(ResidueRing(8), []))


def test_radical_member_implications_random():
    rng = random.Random(11)
    for _ in range(10):
        ring = random_ring(rng)
        gens = [random_element(ring, rng, 2) for _ in range(rng.choice([1, 2]))]
        I = fin_gen_ideal(ring, gens)
        a = random_element(ring, rng, 2)
        in_ideal = ideal_member(a, I) is not None
        in_radical = radical_member(a, I)
        if in_ideal:
            assert in_radical
        for k in (1, 2, 3):
            assert radical_member(a ** k, I) == in_radical


def test_radical_member_univariate_against_squarefree_oracle():
    """Over Q[x], sqrt(<g>) is generated by the squarefree part of g;
    sympy computes that independently of the Rabinowitsch route."""
    import sympy
    xs = sympy.Symbol("x")
    rng = random.Random(13)
    Qx = polynomial_ring(Rationals(), ["x"])

    def to_sympy(e):
        return sum(int(c) * xs ** m[0] for m, c in e.payload)

    checked = 0
    for _ in range(60):
        g = Qx.element({(d,): rng.randrange(-3, 4)
                        for d in range(rng.randrange(1, 5))})
        a = Qx.element({(d,): rng.randrange(-3, 4)
                        for d in range(rng.randrange(1, 4))})
        if g.is_zero:
            continue
        checked += 1
        sqf = sympy.prod(f for f, _ in sympy.sqf_list(to_sympy(g))[1])
        oracle = sympy.rem(to_sympy(a), sqf, xs) == 0 if sqf != 1 else True
        assert radical_member(a, fin_gen_ideal(Qx, [g])) == bool(oracle), \
            (str(a), str(g))
    assert checked >= 40


def test_radical_witness():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    k, cof = radical_witness(x, fin_gen_ideal(Qx, [x ** 3]))
    assert k == 3 and cof[0] == Qx.one()
    k, cof = radical_witness(Z.element(6), fin_gen_ideal(Z, [12]))
    total = sum(c.payload * g.payload
                for c, g in zip(cof, [Z.element(12)]))
    assert 6 ** k == total
    assert radical_witness(Z.element(5), fin_gen_ideal(Z, [12])) is None


def test_saturation():
    Z8 = ResidueRing(8)
    assert saturation_member(Z8.element(1), Z8.element(2)) == 3
    assert saturation_member(Z.element(0), Z.element(7)) == 0
    assert saturation_member(Z.element(3), Z.element(7)) is None
    assert saturation_member(Z.element(3), Z.element(0)) == 1
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    R = quotient_by(Qxy, [Qxy.var("x") * Qxy.var("y")])
    assert saturation_member(R.var("x"), R.var("y")) == 1
    assert saturates(R.var("x") * R.var("x"), R.var("y"))
    assert not saturates(R.var("y"), R.var("y"))


def test_unimodular_certificates():
    cert = unimodular_certificate([Z.element(4), Z.element(9)])
    assert cert.verify()
    assert [c.payload for c in cert.cofactors] == [-2, 1]
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    assert unimodular_certificate([x, x ** 2]) is None
    cert = unimodular_certificate([x, Qx.one() - x])
    assert cert.verify()
    # zero generators keep their slot with a zero cofactor
    cert = unimodular_certificate([Z.element(0), Z.element(1)])
    assert cert.verify() and cert.cofactors[0].is_zero


def test_power_certificate():
    rng = random.Random(3)
    cert = unimodular_certificate([Z.element(2), Z.element(3)])
    for m in (1, 2, 3):
        out = power_certificate(cert, m)
        assert out.verify()
        assert [g.payload for g in out.generators] == [2 ** m, 3 ** m]
    assert power_certificate(cert, 1) is cert
    for _ in range(12):
        ring = random_ring(rng)
        from helpers import random_unimodular_cover
        cover = random_unimodular_cover(ring, rng)
        for m in (2, 3):
            assert power_certificate(cover.certificate, m).verify()
    # n = 6, m = 8 over Z with every cofactor nonzero
    fs = tuple(Z.element(v) for v in (2, 3, 5, 7, 11, 13))
    cert = BezoutCertificate(fs, tuple(Z.element(v)
                                       for v in (1, 1, 1, -1, 1, -1)))
    assert cert.verify()
    start = time.perf_counter()
    out = power_certificate(cert, 8)
    assert time.perf_counter() - start < 2.0
    assert out.verify()
    assert [f.payload for f in out.generators] == [v ** 8 for v in
                                                   (2, 3, 5, 7, 11, 13)]
    cover = UnimodularCover(Z, fs, cert)
    assert _glue_known(cover, Z.element(-17), 8) == Z.element(-17)
    # a 3-element cover of a multivariate Fp quotient, m = 6
    F7xy = polynomial_ring(PrimeField(7), ["x", "y"])
    x, y = F7xy.gens()
    R = quotient_by(F7xy, [x ** 2 + y ** 2 - 1])
    x, y = R.gens()
    cover = make_cover(R, [x, y, R.one() - x - y])
    start = time.perf_counter()
    out = power_certificate(cover.certificate, 6)
    assert time.perf_counter() - start < 0.3
    assert out.verify()
    assert out.generators == tuple(f ** 6 for f in cover.elements)
    assert max(sum(mono) for b in out.cofactors for mono, _ in b.payload) < 20
    g = x * y + 3 * x - 2
    assert _glue_known(cover, g, 6) == g
    # Q[x] at the default exponent cap, 64
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    cover = make_cover(Qx, [x + 1, -x])
    start = time.perf_counter()
    assert _glue_known(cover, x ** 2 - 3, 64) == x ** 2 - 3
    assert time.perf_counter() - start < 1.0
    # Z[1/2] and (Z/12)[1/3] = Z/4 at m = 64: 4^64 = 2^128 needs the
    # exponent 128 in Z[1/2], past the exponent cap
    for L, gens in ((localize(Z, 2), [4]), (localize(ResidueRing(12), 3),
                                            [2, 3])):
        cover = make_cover(L, [L.element(v) for v in gens])
        out = power_certificate(cover.certificate, 64)
        assert out.verify()
        assert out.generators == tuple(f ** 64 for f in cover.elements)


def _glue_known(cover, g, m):
    """Glue the family g * f^m / f^m, through a power-m certificate over
    a ring that is not a domain and an exact quotient over a domain."""
    fracs = tuple(localize(cover.ring, f).fraction(g * f ** m, m)
                  for f in cover.elements)
    return glue_element(make_family(cover, fracs))[0]


def test_resource_caps():
    Qxyz = polynomial_ring(Rationals(), ["x", "y", "z"])
    x, y, z = Qxyz.gens()
    # a fresh ideal: the groebner cache is per-ideal, so any generator
    # list computed before this test would never hit the cap
    hard = fin_gen_ideal(Qxyz, [x ** 2 + 2 * y ** 2 + 2 * z ** 2 - 7 * x,
                                2 * x * y + 2 * y * z - 7 * y,
                                x + 2 * y + 2 * z - 7])
    with limits(max_pairs=1):
        with pytest.raises(ResourceExceeded):
            groebner(hard)


def test_radical_witness_cap_names_layer_value_and_cap():
    """x + y is in the radical of <x^3, y^2> with exponent 4."""
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    x, y = Qxy.gens()
    with limits(max_exponent=2):
        with pytest.raises(ResourceExceeded) as exc:
            radical_witness(x + y, fin_gen_ideal(Qxy, [x ** 3, y ** 2]))
    assert str(exc.value) == ("ideals.radical_witness: exponent 4 exceeds "
                              "max_exponent=2")


def test_saturation_cap_names_layer_value_and_cap():
    """x saturates 1 in Q[x]/(x^5) with exponent 5."""
    Qx = polynomial_ring(Rationals(), ["x"])
    R = quotient_by(Qx, [Qx.var("x") ** 5])
    assert saturation_member(R.one(), R.var("x")) == 5
    with limits(max_exponent=3):
        with pytest.raises(ResourceExceeded) as exc:
            saturation_member(R.one(), R.var("x"))
    assert str(exc.value) == (
        "ideals.saturation_member: exponent 4 exceeded 3 = "
        "max(max_exponent=3, saturation_bound=0) with no saturation exponent")


def test_caches_are_bounded():
    """groebner keeps at most its module's cache size, however many
    distinct ideals pass through, and no localization outlives its
    holder: an R[1/f] that no one refers to is collected, and 1034
    distinct saturation decisions leave no R[1/f] alive."""
    import gc
    import weakref
    from zkit import ideals
    from zkit.localization import LocalizedRing, localize
    for k in range(1, ideals.GROEBNER_CACHE_SIZE + 10):
        groebner(fin_gen_ideal(Z, [k]))
    info = groebner.cache_info()
    assert info.maxsize == ideals.GROEBNER_CACHE_SIZE
    assert info.currsize <= info.maxsize
    F = polynomial_ring(PrimeField(32003), ["x"])
    x = F.var("x")
    L = localize(F, x - 1)
    ref = weakref.ref(L)
    del L
    gc.collect()
    assert ref() is None

    def live():
        gc.collect()
        return sum(isinstance(o, LocalizedRing) for o in gc.get_objects())

    before = live()
    for k in range(1034):
        saturates(x, x - k)
    assert live() <= before


def test_radical_member_statement_decides_once(monkeypatch):
    """A radical-member statement over Q[x, y] runs one Buchberger run,
    which decides and certifies; when the witness exponent passes the
    cap the statement is the cap's error record, since a positive answer
    carries its witness."""
    from zkit import dsl, interp, poly
    runs, real = [], poly.buchberger

    def counted(*args, **kw):
        runs.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(poly, "buchberger", counted)
    script = dsl.parse("ring S = Q[x, y];\n"
                       "radical-member x + y in [x^3, y^2];\n")
    _, res = interp.run_script(script).results
    assert res.result == {"member": True, "exponent": 4}
    assert res.certificate is not None and len(runs) == 1
    assert verify_certificate(res.certificate)[0]
    runs.clear()
    _, res = interp.run_script(script, interp.Options(max_exponent=2)).results
    assert res.status == "error"
    assert res.result == {
        "kind": "ResourceExceeded",
        "message": "ideals.radical_witness: exponent 4 exceeds "
                   "max_exponent=2"}
    assert res.certificate is None and len(runs) == 1
    runs.clear()
    script = dsl.parse("ring S = Q[x, y];\n"
                       "radical-member x + 1 in [x^3, y^2];\n")
    _, res = interp.run_script(script).results
    assert res.result == {"member": False} and len(runs) == 1


def test_check_decides_by_the_unit_test_alone(monkeypatch):
    """check decides D(u) <= D(v) by radical_witness's unit test and
    lifts no cofactor; it reads no exponent, so a cap that makes the
    radical-member statement an error record leaves it answered."""
    from zkit import dsl, interp, poly
    lifts, real = [], poly.Trace.lift
    monkeypatch.setattr(poly.Trace, "lift",
                        lambda self, m: lifts.append(m) or real(self, m))
    script = dsl.parse("ring S = Q[x, y];\n"
                       "check D(x + y) <= D(x^3, y^2);\n"
                       "check D(x + 1) <= D(x^3, y^2);\n")
    for options in (interp.Options(), interp.Options(max_exponent=2)):
        _, yes, no = interp.run_script(script, options).results
        assert (yes.status, yes.result) == ("ok", {"holds": True})
        assert (no.status, no.result) == ("refuted", {"holds": False})
    assert lifts == []
    _, res = interp.run_script(dsl.parse(
        "ring S = Q[x, y];\nradical-member x + y in [x^3, y^2];\n"),
        interp.Options(max_exponent=2)).results
    assert res.status == "error"
    assert res.result["kind"] == "ResourceExceeded"


def _radical_cases():
    """(ring, a, generators, k): k the witness exponent, None when a is
    outside the radical; one refuted case per ring."""
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    cusp = quotient_by(Qxy, [Qxy.var("x") ** 2 - Qxy.var("y") ** 3])
    Fp = QuotientRing(PrimeField(7))
    Z8, Z2 = ResidueRing(8), ResidueRing(2 ** 100)
    return [
        (Z, 6, [12], 2), (Z, 5, [12], None),
        (Z8, 2, [], 3), (Z8, 3, [], None),
        (Z2, 2, [2 ** 50], 50), (Z2, 3, [2 ** 50], None),
        (Fp, 3, [2], 1), (Fp, 3, [], None),
        (Qx, x, [x ** 3], 3), (Qx, x + 1, [x ** 3], None),
        (cusp, cusp.var("x"), [cusp.var("y")], 2),
        (cusp, cusp.var("x") + 1, [cusp.var("y")], None),
    ]


@pytest.mark.parametrize(
    "ring, a, gens, k", _radical_cases(),
    ids=[f"{r}:{a}:{k}" for r, a, _, k in _radical_cases()])
def test_radical_witness_table(ring, a, gens, k):
    """The witness exponent over each ring kind, and a certificate that
    verify accepts for every positive answer."""
    a, ideal = normalize(ring, a), fin_gen_ideal(ring, gens)
    witness = radical_witness(a, ideal)
    assert radical_member(a, ideal) == (k is not None)
    if k is None:
        assert witness is None
        return
    assert witness[0] == k
    cert = membership_to_json(ring, a, ideal.generators, witness[1], k)
    assert verify_certificate(cert) == (True, f"sum == element^{k}")


# ---------------------------------------------------------------------------
# the direct radical route against the one through a built A[1/a]

def _same_route(a, ideal):
    """radical_member and radical_witness agree with the reference route
    (tests/helpers.py) exactly, or all three hit the same cap."""
    try:
        want = reference_radical_witness(a, ideal)
    except ResourceExceeded:
        with pytest.raises(ResourceExceeded):
            radical_member(a, ideal)
        return None
    assert radical_member(a, ideal) == (want is not None), (a, ideal)
    if want is not None and want[0] > 64:  # past radical_witness's cap
        with pytest.raises(ResourceExceeded):
            radical_witness(a, ideal)
        return want
    assert radical_witness(a, ideal) == want, (a, ideal)
    return want


def _route_rings(rng):
    """Free rings over Q, Fp(7) and Fp(32003) in 2-4 variables, their
    quotients by one and by two relations, Z and Z/n."""
    rings = []
    for base in (Rationals(), PrimeField(7), PrimeField(32003)):
        for nvars in (2, 3, 4):
            free = polynomial_ring(base, "xyzw"[:nvars])
            rings.append(free)
            for count in (1, 2):
                rels = [free.element(random_poly_payload(
                    free, rng, max_deg=2, max_terms=2)) for _ in range(count)]
                rings.append(quotient_by(free, [r for r in rels
                                                if not r.is_zero]))
    return rings + [Z, ResidueRing(12), ResidueRing(2 ** 6 * 3 ** 2)]


def test_radical_route_matches_the_localization_route():
    """Random ideals, with a a random element, a generator, a product
    with a generator and a sum of generators."""
    rng = random.Random(4133)
    positive = 0
    with limits(max_pairs=400):
        for ring in _route_rings(rng):
            for _ in range(4):
                gens = [random_element(ring, rng, max_deg=2)
                        for _ in range(rng.randrange(1, 4))]
                ideal = fin_gen_ideal(ring, gens)
                g = gens[0]
                for a in (random_element(ring, rng, max_deg=2), g,
                          g * random_element(ring, rng, max_deg=1),
                          sum(gens, ring.zero())):
                    positive += _same_route(a, ideal) is not None
    assert positive > 100


@pytest.mark.parametrize("name", ["zero", "unit", "zero-ideal", "generator"])
def test_radical_route_edge_cases(name):
    """a = 0 (k = 1 with zero cofactors), a unit, the zero ideal of a
    ring with nilpotents, and a that is itself a generator."""
    Qx = polynomial_ring(Rationals(), ["x"])
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    x, y = Qxy.var("x"), Qxy.var("y")
    dual = quotient_by(Qx, [Qx.var("x") ** 2])
    cases = {
        "zero": [(Qxy, Qxy.zero(), [x * y], (1, (Qxy.zero(),))),
                 (Z, Z.zero(), [4], (1, (Z.zero(),))),
                 (ResidueRing(6), 0, [], (1, ()))],
        "unit": [(Qxy, Qxy.from_int(3), [x + y], None),
                 (Qxy, Qxy.from_int(3), [x, 1 - x], (1, (3 * Qxy.one(),) * 2)),
                 (Z, Z.element(-1), [5], None)],
        "zero-ideal": [(dual, dual.var("x"), [0], (2, ())),
                       (Qxy, x, [], None),
                       (ResidueRing(8), 2, [0], (3, ()))],
        "generator": [(Qxy, x ** 2 + y, [x ** 2 + y, y ** 3], None),
                      (dual, dual.var("x") + 1, [dual.var("x") + 1], None),
                      (Z, Z.element(10), [10, 4], None)],
    }[name]
    for ring, a, gens, expected in cases:
        a, ideal = normalize(ring, a), fin_gen_ideal(ring, gens)
        want = _same_route(a, ideal)
        if expected is not None:
            assert want == expected, (ring, a, gens, want)
        if name == "generator":
            assert want is not None and want[0] == 1
