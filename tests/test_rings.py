import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from zkit import (CodomainNotFinite, IntegerRing, NotWellDefined, PrimeField,
                  QuotientRing, Rationals, ResidueRing, ResourceExceeded,
                  RingMismatch, enumerate_homs, hom_apply, hom_compose,
                  is_unit, limits, localize, make_hom, normalize,
                  polynomial_ring, quotient_by)
from zkit.localization import LocalizedRing
from helpers import (p_eval, random_element, random_quotient_ring,
                     random_ring, reference_enumerate_homs)

Z = IntegerRing()


def test_normalize_examples():
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    R = quotient_by(Qxy, [Qxy.var("x") ** 2 - Qxy.var("y")])
    assert R.var("x") ** 2 == R.var("y")
    assert normalize(Z, 7).payload == 7
    assert normalize(ResidueRing(8), 13).payload == 5


def test_normalize_idempotent_random():
    rng = random.Random(42)
    for _ in range(6):
        ring = random_ring(rng)
        for _ in range(500):
            e = random_element(ring, rng)
            assert normalize(ring, e) == e
            if hasattr(ring, "ctx"):
                assert normalize(ring, dict(e.payload)) == e


def test_ring_axioms_random():
    rng = random.Random(9)
    for _ in range(10):
        ring = random_ring(rng)
        one, zero = ring.one(), ring.zero()
        for _ in range(12):
            a, b, c = (random_element(ring, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert a + (-a) == zero


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Z.element(1) + ResidueRing(5).element(1)


def test_rational_coefficients():
    Qx = polynomial_ring(Rationals(), ["x"])
    e = Qx.element({(1,): Q(1, 2), (0,): Q(-3, 4)})
    assert str(e) == "1/2 * x - 3/4"
    F5x = polynomial_ring(PrimeField(5), ["x"])
    assert F5x.element({(0,): Q(1, 2)}) == F5x.from_int(3)


def test_is_unit():
    assert is_unit(ResidueRing(8).element(3)) == ResidueRing(8).element(3)
    assert is_unit(Z.element(2)) is None
    assert is_unit(Z.element(-1)) == Z.element(-1)
    Qx = polynomial_ring(Rationals(), ["x"])
    R = quotient_by(Qx, [Qx.var("x") ** 2 - 1])
    assert is_unit(R.var("x")) == R.var("x")
    assert is_unit(Qx.var("x")) is None


def test_is_unit_random_witnesses():
    rng = random.Random(17)
    for _ in range(8):
        ring = random_ring(rng)
        saw_unit = False
        for _ in range(15):
            a = random_element(ring, rng, max_deg=2)
            w = is_unit(a)
            if w is not None:
                saw_unit = True
                assert a * w == ring.one()
        # 1 is always a unit; 0 never is (in a nonzero ring)
        assert is_unit(ring.one()) is not None or ring.one().is_zero
        if not ring.one().is_zero:
            assert is_unit(ring.zero()) is None
        assert saw_unit or ring.one().is_zero or True


def test_hom_laws_random():
    rng = random.Random(23)
    from helpers import random_endo
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    x, y = Qxy.gens()
    homs = [make_hom(Qxy, Qxy, (x + 1, x * y))]
    for _ in range(6):
        ring = random_ring(rng, kinds=("Q", "Fp"))
        phi = random_endo(ring, rng)
        if phi is not None:
            homs.append(phi)
    for phi in homs:
        ring = phi.domain
        for _ in range(15):
            a, b = random_element(ring, rng, 2), random_element(ring, rng, 2)
            assert hom_apply(phi, a + b) == \
                hom_apply(phi, a) + hom_apply(phi, b)
            assert hom_apply(phi, a * b) == \
                hom_apply(phi, a) * hom_apply(phi, b)
        assert hom_apply(phi, ring.one()) == phi.codomain.one()


def test_hom_examples():
    Qx = polynomial_ring(Rationals(), ["x"])
    x = Qx.var("x")
    phi = make_hom(Qx, Qx, (x + 1,))
    assert hom_apply(phi, x ** 2) == x ** 2 + 2 * x + 1
    assert hom_apply(make_hom(Qx, Qx, Qx.gens()), x ** 2) == x ** 2
    psi = make_hom(Qx, Qx, (2 * x,))
    assert hom_compose(psi, phi).generator_images[0] == 2 * x + 1
    to8 = make_hom(Z, ResidueRing(8))
    assert hom_apply(to8, Z.element(13)).payload == 5
    # homs out of Z/n and into Z/n, with and without generators
    Z6 = ResidueRing(6)
    F3x = polynomial_ring(PrimeField(3), ["x"])
    dual = quotient_by(F3x, [F3x.var("x") ** 2])
    assert hom_apply(make_hom(Z6, dual), Z6.element(5)) == dual.from_int(2)
    F5x = polynomial_ring(PrimeField(5), ["x"])
    at2 = make_hom(F5x, ResidueRing(5), (2,))
    assert hom_apply(at2, F5x.var("x") ** 2 + 3) == ResidueRing(5).element(2)
    assert str(make_hom(Z, Z, Z.gens())) == "canonical : Z -> Z"
    assert str(make_hom(Z6, Z6, Z6.gens())) == "canonical : Z/6 -> Z/6"
    assert hom_apply(make_hom(Z6, Z6, Z6.gens()), Z6.element(4)) \
        == Z6.element(4)


def test_hom_verification():
    Qx = polynomial_ring(Rationals(), ["x"])
    R = quotient_by(Qx, [Qx.var("x") ** 2 - 1])
    with pytest.raises(NotWellDefined):
        make_hom(R, Qx, (Qx.var("x"),))  # x^2 - 1 does not map to 0
    make_hom(R, Qx, (Qx.one(),))
    with pytest.raises(NotWellDefined):
        make_hom(ResidueRing(4), ResidueRing(6))
    make_hom(ResidueRing(4), ResidueRing(2))
    with pytest.raises(NotWellDefined):
        make_hom(ResidueRing(6), Qx)  # 6 is not 0 in Q[x]
    with pytest.raises(NotWellDefined):
        make_hom(polynomial_ring(Rationals(), ["t"]),
                 QuotientRing(PrimeField(5)), (QuotientRing(PrimeField(5)).zero(),))


def test_ring_elements_enumeration():
    assert len(ResidueRing(6).elements()) == 6
    F5 = QuotientRing(PrimeField(5))
    assert len(F5.elements()) == 5
    F5x = polynomial_ring(PrimeField(5), ["x"])
    D = quotient_by(F5x, [F5x.var("x") ** 2 - 1])
    assert len(D.elements()) == 25
    with pytest.raises(CodomainNotFinite):
        Z.elements()
    with pytest.raises(CodomainNotFinite):
        F5x.elements()
    with pytest.raises(CodomainNotFinite):
        polynomial_ring(Rationals(), ["x"]).elements()


def test_enumerate_homs_examples():
    F5 = QuotientRing(PrimeField(5))
    F5x = polynomial_ring(PrimeField(5), ["x"])
    D = quotient_by(F5x, [F5x.var("x") ** 2 - 1])
    images = sorted(str(h.generator_images[0]) for h in enumerate_homs(D, F5))
    assert images == ["1", "4"]
    assert len(enumerate_homs(Z, ResidueRing(3))) == 1
    assert len(enumerate_homs(ResidueRing(4), ResidueRing(6))) == 0
    F3x = polynomial_ring(PrimeField(3), ["x"])
    dual = quotient_by(F3x, [F3x.var("x") ** 2])
    assert len(enumerate_homs(ResidueRing(6), dual)) == 1
    # Q-based domain into a finite ring only through the trivial ring
    Qx = polynomial_ring(Rationals(), ["x"])
    assert enumerate_homs(Qx, F5) == []
    F5t = polynomial_ring(PrimeField(5), ["t"])
    trivial = quotient_by(F5t, [F5t.one()])
    assert len(enumerate_homs(Qx, trivial)) == 1


def test_enumerate_homs_matches_zero_count():
    """Hom counts equal brute-force common-zero counts (the oracle never
    builds hom objects)."""
    import itertools
    rng = random.Random(31)
    for trial in range(16):
        p = (2, 3, 5, 7)[trial % 4]
        ring = random_quotient_ring(rng, base=PrimeField(p), max_vars=3,
                                    max_relations=2, rel_deg=2)
        field = QuotientRing(PrimeField(p))
        homs = enumerate_homs(ring, field)
        count = 0
        for pt in itertools.product(range(p), repeat=len(ring.variables)):
            if all(p_eval(ring.ctx, rel, list(pt)) == 0
                   for rel in ring.relations):
                count += 1
        assert len(homs) == count
        _check_enumeration(ring, field, homs)
        # Z/p is the same field under another presentation
        homs = enumerate_homs(ring, ResidueRing(p))
        assert len(homs) == count
        _check_enumeration(ring, ResidueRing(p), homs)
        if p <= 3:
            # the non-field Fp[t]/(t^2): a hom is a zero a of the
            # relations with a tangent b, grad(rel)(a) . b == 0
            Fpt = polynomial_ring(PrimeField(p), ["t"])
            dual = quotient_by(Fpt, [Fpt.var("t") ** 2])
            homs = enumerate_homs(ring, dual)
            assert len(homs) == _tangent_count(ring, p)
            _check_enumeration(ring, dual, homs)
    # fixed rings with points, so the dual-number oracle counts tangents
    F3 = polynomial_ring(PrimeField(3), ["x", "y", "z"])
    x, y, z = F3.gens()
    F3t = polynomial_ring(PrimeField(3), ["t"])
    dual = quotient_by(F3t, [F3t.var("t") ** 2])
    for ring, expected in ((quotient_by(F3, [x * y - z, x ** 2 + y ** 2 - 1]),
                            12),
                           (quotient_by(F3, [y ** 2 - x ** 3, z - x * y]),
                            15)):  # the cusp's origin has a 2-dim tangent
        homs = enumerate_homs(ring, dual)
        assert len(homs) == _tangent_count(ring, 3) == expected
        _check_enumeration(ring, dual, homs)


def _tangent_count(ring, p):
    """Points of the relations over Fp[t]/(t^2), by plain integer
    arithmetic: zeros a with a tangent b killing every gradient."""
    import itertools
    n = len(ring.variables)

    def value(rel, a, skip=None):
        total = 0
        for mono, c in rel:
            term = int(c)
            for k, e in enumerate(mono):
                if k == skip:
                    term *= e * a[k] ** (e - 1) if e else 0
                else:
                    term *= a[k] ** e
            total += term
        return total % p

    count = 0
    for a in itertools.product(range(p), repeat=n):
        if any(value(rel, a) for rel in ring.relations):
            continue
        grads = [[value(rel, a, skip=k) for k in range(n)]
                 for rel in ring.relations]
        for b in itertools.product(range(p), repeat=n):
            if all(sum(g * x for g, x in zip(grad, b)) % p == 0
                   for grad in grads):
                count += 1
    return count


def _check_enumeration(domain, codomain, homs):
    """Every enumerated hom re-verifies through make_hom, and the list
    follows itertools.product order over the codomain's elements."""
    elements = codomain.elements()
    for h in homs:
        again = make_hom(domain, codomain, h.generator_images)
        assert h == again
    keys = [tuple(elements.index(a) for a in h.generator_images)
            for h in homs]
    assert keys == sorted(set(keys))


def _finite_pairs(rng):
    """Domains and codomains of one characteristic p, so that most pairs
    have homs: every codomain kind the index walk must treat alike, and
    domains with and without relations or variables."""
    p = rng.choice((2, 3, 5))
    Fpt = polynomial_ring(PrimeField(p), ["t"])
    t = Fpt.var("t")
    zero_divisors = ResidueRing(p * rng.choice((2, 3, p)))
    codomains = [QuotientRing(PrimeField(p)),  # Fp with no variables
                 ResidueRing(p), zero_divisors,
                 quotient_by(Fpt, [t ** 2]),
                 quotient_by(Fpt, [Fpt.one()])]  # the zero ring
    domains = [random_quotient_ring(rng, base=PrimeField(p), max_vars=3,
                                    max_relations=2, rel_deg=3),
               random_quotient_ring(rng, base=PrimeField(p), max_vars=2,
                                    max_relations=1, rel_deg=2),
               random_quotient_ring(rng, base=Rationals(), max_vars=2),
               polynomial_ring(PrimeField(p), ["x", "y"]),  # no relations
               QuotientRing(PrimeField(p)),                 # no variables
               QuotientRing(Rationals()),
               Z, ResidueRing(zero_divisors.modulus * rng.choice((1, 2)))]
    return [(d, c) for d in domains for c in codomains
            if len(c.elements()) ** len(d.variables) <= 2000]


def test_enumerate_homs_matches_reference():
    """The index walk returns the homs of the RingElement walk in
    tests/helpers.py: same list, same order."""
    rng = random.Random(2024)
    counts = []
    for _ in range(6):
        for domain, codomain in _finite_pairs(rng):
            homs = enumerate_homs(domain, codomain)
            ref = reference_enumerate_homs(domain, codomain)
            assert homs == ref, (domain, codomain)
            counts.append(len(homs))
    assert len(counts) >= 150
    assert sum(n > 1 for n in counts) >= 40  # not just empty or trivial


def test_enumerate_homs_memo_is_lazy(monkeypatch):
    """A 1-variable domain into Fp(32003) costs a few codomain products
    per element, far from the 32003^2 of a full table, and returns
    exactly the roots."""
    F = QuotientRing(PrimeField(32003))
    Fx = polynomial_ring(PrimeField(32003), ["x"])
    x = Fx.var("x")
    D = quotient_by(Fx, [x ** 2 - 4])
    calls = []
    mul = QuotientRing.mul
    monkeypatch.setattr(QuotientRing, "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    homs = enumerate_homs(D, F)
    assert [h.generator_images for h in homs] == [(F.from_int(2),),
                                                  (F.from_int(-2),)]
    assert len(calls) <= 2 * 32003


def test_enumeration_cap():
    F101 = QuotientRing(PrimeField(101))
    F5x = polynomial_ring(PrimeField(5), ["x"])
    cubic = quotient_by(F5x, [F5x.var("x") ** 3])  # 125 elements
    free = polynomial_ring(PrimeField(101), ["x", "y"])
    with limits(max_assignments=100):
        for ring, count in ((ResidueRing(101), 101), (F101, 101),
                            (cubic, 125)):
            with pytest.raises(ResourceExceeded) as exc:
                ring.elements()
            assert str(exc.value).startswith(f"elements: {count} elements")
            assert "max_assignments=100" in str(exc.value)
        assert len(ResidueRing(100).elements()) == 100
    with limits(max_assignments=10201):
        with pytest.raises(ResourceExceeded) as exc:
            enumerate_homs(polynomial_ring(PrimeField(101), ["x", "y", "z"]),
                           F101)
        assert str(exc.value).startswith(
            "rings.enumerate_homs: 1030301 assignments")
        assert "max_assignments=10201" in str(exc.value)
        # exactly at the cap is allowed
        assert len(enumerate_homs(free, F101)) == 10201


def test_rabinowitsch_relation_is_the_product():
    """The t*f - 1 that rings._rabinowitsch builds by shifting f's terms
    is p_mul(t, f) - 1 term for term, over Q with fractional
    coefficients and over Fp, for f constant, with a constant term, in
    a quotient ring and zero."""
    from zkit import poly, rings
    rng = random.Random(2207)
    for _ in range(60):
        ring = random_quotient_ring(rng, max_vars=3)
        f = random_element(ring, rng, max_deg=3)
        roll = rng.random()
        if roll < 0.3:
            f = f * ring.from_int(Q(rng.randrange(1, 9), 7)
                                  if ring.is_q_algebra else 3)
        elif roll < 0.4:
            f = ring.zero()
        ctx, ext = rings._rabinowitsch(ring, (f.payload,), f.payload)
        t = poly.var_poly(ctx, ctx.nvars - 1)
        assert ext[-1] == poly.p_sub(
            ctx, poly.p_mul(ctx, t, poly.p_extend(f.payload)),
            poly.const_poly(ctx, 1)), (ring, f)
        assert ext[:-1] == [poly.p_extend(g)
                            for g in (f.payload, *ring.relations)]


def _repeated_product(a, k: int):
    """a^k as k - 1 plain products, the reference for rings._power."""
    out = a.ring.one()
    for _ in range(k):
        out = out * a
    return out


def test_is_times_power_matches_the_product():
    """rings._is_times_power(y, x, f, d) agrees with y == x * f^d, f^d
    the repeated product, for true products, products off by one term,
    and x, f or y zero: over the domains Q[x,y], Fp(7)[x,y], Z and Q,
    where a polynomial ring divides y by f instead of forming f^d, and
    over Q[x,y]/(x^2), Fp(7)[x]/(x^3 - 1) and Z/12, which are not
    domains and form f^d under the term-pair cap."""
    from zkit import rings
    rng = random.Random(3319)
    Qxy = polynomial_ring(Rationals(), ["x", "y"])
    F7x = polynomial_ring(PrimeField(7), ["x"])
    domains = [Qxy, polynomial_ring(PrimeField(7), ["x", "y"]),
               IntegerRing(), polynomial_ring(Rationals(), [])]
    others = [quotient_by(Qxy, [Qxy.var("x") ** 2]),
              quotient_by(F7x, [F7x.var("x") ** 3 - 1]), ResidueRing(12)]
    for ring in domains + others:
        assert ring.is_domain == (ring in domains)
        for _ in range(40):
            x, f = (random_element(ring, rng, 2) for _ in range(2))
            d = rng.randrange(5)
            y = x * _repeated_product(f, d)
            roll = rng.random()
            if roll < 0.4:
                y = y + random_element(ring, rng, 3)
            elif roll < 0.5:
                y = ring.zero()
            assert rings._is_times_power(y, x, f, d) == (
                y == x * _repeated_product(f, d)), (ring, y, x, f, d)


def _power_rings():
    F7 = polynomial_ring(PrimeField(7), ["x", "y"])
    Qx = polynomial_ring(Rationals(), ["x"])
    Qx2 = quotient_by(Qx, [Qx.var("x") ** 2])
    return [Z, ResidueRing(12), QuotientRing(Rationals()),
            QuotientRing(PrimeField(7)),
            polynomial_ring(Rationals(), ["x", "y"]),
            quotient_by(F7, [F7.var("x") ** 2 - F7.var("y")]),
            localize(Z, 6), localize(QuotientRing(Rationals()), 3),
            localize(Qx2, Qx2.var("x") + 1)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_power_is_the_repeated_product(seed):
    """a ** k, formed by rings._power under each ring's power_weight,
    equals the k-fold product for k in 0..6, on every ring kind: Z, Z/n,
    Q, Fp, a free ring, a quotient, and R[1/f] over Z, a field and a
    quotient that is not a domain."""
    rng = random.Random(seed)
    for ring in _power_rings():
        if isinstance(ring, LocalizedRing):
            a = ring.element(ring.fraction(random_element(ring.ring, rng, 2),
                                           rng.randrange(3)))
        else:
            a = random_element(ring, rng, 2)
        for k in range(7):
            assert a ** k == _repeated_product(a, k), (ring, a, k)
