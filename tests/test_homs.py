"""Homs evaluated on payloads (rings.evaluate, behind make_hom and
hom_apply) and opens pulled back on element indices
(schemes.points_over), checked against the RingElement code they
replaced (tests/helpers.py): equal images and relation_checks, the same
NotWellDefined message, the same points with equal witnesses in the
same order."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zkit import (IntegerRing, NotWellDefined, PrimeField, QuotientRing,
                  Rationals, ResidueRing, ResourceExceeded, enumerate_homs,
                  hom_apply, limits, localize, make_hom, points_over,
                  polynomial_ring, quotient_by, schemes, zar_elt, zar_top)
from helpers import (random_element, reference_hom_apply,
                     reference_make_hom, reference_points_over)

Z = IntegerRing()


def _fp_quotient(p, rng):
    """Fp[x,y]/(one relation)."""
    free = polynomial_ring(PrimeField(p), ["x", "y"])
    x, y = free.gens()
    a, b = rng.randrange(p), rng.randrange(1, p)
    rel = rng.choice([x ** 2 + y ** 2 - 1, x * y - a,
                      y ** 2 - x ** 3 - a * x - b, x ** 3 - b * y ** 2])
    return quotient_by(free, [rel])


def _q_domain(rng):
    """Q[x], or Q[x]/(x^2 - a/b): normal forms with rational
    coefficients."""
    free = polynomial_ring(Rationals(), ["x"])
    if rng.random() < 0.3:
        return free
    c = Fraction(rng.randrange(1, 9), rng.randrange(2, 5))
    return quotient_by(free, [free.element({(2,): 1, (0,): -c})])


def _pair(kind, p, n, rng, finite):
    """A (domain, codomain) pair of a kind, with a finite codomain (Z/m,
    Fp, Fp[t]/(t^2), a zero ring) or with an infinite or localized one
    (Z, Z[1/f], (Z/n)[1/f], Fp[1/c] with c = 0 allowed, Fp[x,y]/(rel))."""
    F = QuotientRing(PrimeField(p))
    f = rng.randrange(0, 2 * n)
    if kind == "Z":
        small = ResidueRing(n)
        local = [Z, localize(Z, f), localize(ResidueRing(n), f)]
        domain = Z
    elif kind == "Z/n":
        small = ResidueRing(rng.choice(
            [d for d in range(2, n + 1) if n % d == 0] + [n + 1]))
        local = [localize(ResidueRing(n), f)]
        domain = ResidueRing(n)
    elif kind == "Fp":
        small, local, domain = F, [localize(F, rng.randrange(p))], F
    elif kind == "Fp-quotient":
        Ft = polynomial_ring(PrimeField(p), ["t"])
        domain = _fp_quotient(p, rng)
        small = rng.choice([F, quotient_by(Ft, [Ft.var("t") ** 2])])
        local = [localize(F, rng.randrange(p)), domain]
    else:  # Q[x] into a zero ring: rational coefficients all map to 0
        Ft = polynomial_ring(PrimeField(p), ["t"])
        Qt = polynomial_ring(Rationals(), ["t"])
        domain = _q_domain(rng)
        small = rng.choice([quotient_by(Ft, [Ft.one()]),
                            quotient_by(Qt, [Qt.one()])])
        local = [localize(F, 0)]
    return domain, small if finite else rng.choice(local)


def _random_image(codomain, rng):
    ring = getattr(codomain, "ring", None)
    if ring is None:  # not a localization
        return random_element(codomain, rng, max_deg=2)
    num = random_element(ring, rng, max_deg=2)
    return codomain.element(codomain.fraction(num, rng.randrange(3)))


def _built(build, domain, codomain, images):
    try:
        return build(domain, codomain, images)
    except NotWellDefined as exc:
        return str(exc)


PAIRS = dict(kind=st.sampled_from(["Z", "Z/n", "Fp", "Fp-quotient",
                                   "Q into the zero ring"]),
             p=st.sampled_from([2, 3, 5, 7]), n=st.integers(2, 30),
             seed=st.integers(0, 2 ** 32))


@settings(max_examples=100, deadline=None)
@given(**PAIRS)
def test_make_hom_and_hom_apply_match_reference(kind, p, n, seed):
    rng = random.Random(seed)
    finite = rng.random() < 0.5
    domain, codomain = _pair(kind, p, n, rng, finite)
    homs = enumerate_homs(domain, codomain) if finite else []
    for _ in range(4):
        if homs and rng.random() < 0.5:  # a hom that is well defined
            images = rng.choice(homs).generator_images
        else:
            images = tuple(_random_image(codomain, rng)
                           for _ in domain.variables)
        phi = _built(make_hom, domain, codomain, images)
        ref = _built(reference_make_hom, domain, codomain, images)
        assert phi == ref, (domain, codomain, images)
        if isinstance(phi, str):
            continue
        assert phi.relation_checks == ref.relation_checks
        for _ in range(4):
            a = random_element(domain, rng, max_deg=3)
            assert hom_apply(phi, a) == reference_hom_apply(ref, a), a


@settings(max_examples=60, deadline=None)
@given(**PAIRS)
def test_points_over_matches_reference(kind, p, n, seed):
    rng = random.Random(seed)
    domain, codomain = _pair(kind, p, n, rng, finite=True)
    opens = [zar_top(domain)] + [
        zar_elt(domain, [random_element(domain, rng, max_deg=2)
                         for _ in range(rng.randrange(0, 3))])
        for _ in range(2)]
    for V in opens:
        pts = points_over(V, codomain)
        ref = reference_points_over(V, codomain)
        assert pts == ref, (V, codomain)
        assert [pt.witness for pt in pts] == [pt.witness for pt in ref]


def test_points_over_past_the_cap_raises_before_any_pull_back(monkeypatch):
    def pulled_back(*args):
        raise AssertionError("an open was pulled back past the cap")

    monkeypatch.setattr(schemes, "_evaluate", pulled_back)
    monkeypatch.setattr(schemes, "zar_eq_top", pulled_back)
    F101 = QuotientRing(PrimeField(101))
    free = polynomial_ring(PrimeField(101), ["x", "y", "z"])
    with limits(max_assignments=10201):
        with pytest.raises(ResourceExceeded) as exc:
            points_over(zar_top(free), F101)
    assert str(exc.value).startswith(
        "rings.enumerate_homs: 1030301 assignments")
