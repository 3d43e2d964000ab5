"""The field k (Fp or Q) as a ring: FieldRing and its localizations
compute on the one coefficient.  The Groebner-engine path they replace
(QuotientRing's generic methods, LocalizedQuotient over the Rabinowitsch
basis) stays here as the reference they must agree with, payload for
payload and cofactor for cofactor."""
from fractions import Fraction as Q
from itertools import product

import pytest

from zkit import (PrimeField, QuotientRing, Rationals, RingElement, dsl,
                  fin_gen_ideal, frac_eq, interp, localization, poly,
                  polynomial_ring, radical_member, rings, saturates, zar_elt,
                  zar_leq)
from zkit.localization import LocalizedField, LocalizedQuotient
from zkit.rings import FieldRing

PRIMES = (2, 3, 5, 7, 13)
Q_VALUES = (Q(0), Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2), Q(7, 4))


def _fields():
    """(field, a list of its values with 0 first) for Fp(2/3/5/7/13), Q."""
    for p in PRIMES:
        yield QuotientRing(PrimeField(p)), list(range(p))
    yield QuotientRing(Rationals()), list(Q_VALUES)


def _reference(field):
    """The same field computed by QuotientRing's generic methods."""
    ref = object.__new__(QuotientRing)
    QuotientRing.__init__(ref, field.base)
    return ref


def _rabinowitsch_member(ring, a, gens):
    """a in sqrt(<gens>) by the Groebner engine: 1 in <gens> + relations
    + <t*a - 1> in the free ring with one more variable t."""
    basis, _ = poly.buchberger(*rings._rabinowitsch(ring, tuple(gens), a))
    return len(basis) == 1 and poly.mono_deg(basis[0][0][0]) == 0


def _radical_leq(ring, a, b):
    """a in sqrt(<b>), decided by zar_leq."""
    return zar_leq(zar_elt(ring, [RingElement(ring, a)]),
                   zar_elt(ring, [RingElement(ring, b)]))


def _built(cofactors):
    """unit_cofactors' answer with its cofactors built."""
    return None if cofactors is None else cofactors()


def _coefficients(payloads):
    """Cofactor payloads as coefficient tuples, so that payloads of k
    and of k[t] compare term for term."""
    return None if payloads is None else [tuple(c for _, c in x)
                                          for x in payloads]


def test_field_ring_is_what_a_bare_field_builds():
    for base in (PrimeField(7), Rationals()):
        K = QuotientRing(base)
        assert type(K) is FieldRing
        assert K == polynomial_ring(base, []) == QuotientRing(base)
        assert type(polynomial_ring(base, ["x"])) is QuotientRing
        assert type(K.localization(K.one())) is LocalizedField
        assert str(K) == str(base) and not K.is_trivial


def test_field_arithmetic_matches_engine_path():
    for K, values in _fields():
        ref = _reference(K)
        xs = [K.canonical(v) for v in values]
        assert xs == [ref.canonical(v) for v in values]
        assert [K.canonical({(): v}) for v in values] == xs
        assert [K.canonical(x) for x in xs] == xs
        for x, y in product(xs, repeat=2):
            for op in ("add", "sub", "mul"):
                assert getattr(K, op)(x, y) == getattr(ref, op)(x, y), op
            member = radical_member(RingElement(K, x),
                                    fin_gen_ideal(K, [RingElement(K, y)]))
            assert member == _radical_leq(K, x, y) == \
                _rabinowitsch_member(ref, x, [y])
            assert saturates(RingElement(K, x), RingElement(K, y)) == \
                saturates(RingElement(ref, x), RingElement(ref, y))
        assert [K.neg(x) for x in xs] == [ref.neg(x) for x in xs]
        gen_lists = [[x] for x in xs] + [[xs[0], x, y] for x, y in
                                         product(xs[:4], repeat=2)]
        for gens in gen_lists:
            assert _built(K.unit_cofactors(gens)) == \
                _built(ref.unit_cofactors(gens))
            basis, lift = K.ideal_basis(gens)
            ref_basis, ref_lift = ref.ideal_basis(gens)
            assert tuple(basis) == tuple(ref_basis)
            # the lift of each basis element is its row of cofactors
            assert (lift is None) == (ref_lift is None) == (not basis)
            for i, b in enumerate(basis):
                unit = [b if j == i else () for j in range(len(basis))]
                assert list(lift(unit)) == list(ref_lift(unit))
            for x in xs:
                quots, rem = K.divide(x, basis)
                ref_quots, ref_rem = ref.divide(x, ref_basis)
                assert (list(quots), rem) == (list(ref_quots), ref_rem)
                if any(quots):
                    assert list(lift(quots)) == list(ref_lift(ref_quots))


def test_localized_field_matches_rabinowitsch_reference():
    for K, values in _fields():
        for c in values:
            f = K.element(c)
            L, R = K.localization(f), LocalizedQuotient(K, f)
            assert type(L) is LocalizedField
            assert L.is_trivial == R.is_trivial == (c == 0)
            fracs = [L.fraction(v, e) for v in values for e in (0, 1, 2)]
            ls = [L.canonical(a) for a in fracs]
            rs = [R.canonical(a) for a in fracs]
            for a, x, y in zip(fracs, ls, rs):
                assert L.written(x) == R.written(y)
                assert L.canonical(L.written(x)) == x
                assert R.canonical(R.written(y)) == y
                assert frac_eq(a, L.written(x))
            for i, j in product(range(0, len(fracs), 2), repeat=2):
                assert frac_eq(fracs[i], fracs[j]) == (rs[i] == rs[j])
            for (x, y), (u, v) in product(zip(ls[::3], rs[::3]), repeat=2):
                assert _radical_leq(L, x, u) == _radical_leq(R, y, v) == \
                    _rabinowitsch_member(R.presentation, y, [v])
            gen_lists = ([[]] + [[k] for k in range(len(values))]
                         + [[0, k, 1] for k in range(len(values))])
            for gens in gen_lists:
                lc = _built(L.unit_cofactors([ls[3 * k] for k in gens]))
                rc = _built(R.unit_cofactors([rs[3 * k] for k in gens]))
                assert _coefficients(lc) == _coefficients(rc), (K, c, gens)


FIELD_SCRIPTS = [
    """ring K = Fp(7);
elem a = 3;
eval a^2 + 5 at {};
member {} in D(3) | D(0);
member {} in D(0);
unimodular [0, 3, 5];
unimodular [0];
radical-member 3 in [0, 2];
check D(3) == D(1);
""",
    """ring K = Q;
elem a = 2/3;
eval a^2 - 1/9 at {};
member {} in D(a) | D(0);
unimodular [0, a, 5];
radical-member a in [0, 1/2];
check D(a) <= D(0);
""",
    """ring F = Fp(5)[x];
qcqs D(x);
""",
]


def _run(source):
    report = interp.run_script(dsl.parse(source)).to_json()
    for r in report["results"]:
        r.pop("ms")
    return report


def test_field_path_runs_no_engine(monkeypatch):
    """Statements over Fp(7) and Q, and locality trials valued in Fp(5),
    give the same JSON when every engine entry point raises on a field."""
    expected = [_run(src) for src in FIELD_SCRIPTS]
    trials = expected[2]["results"][1]["result"]["locality_trials"]
    assert trials and {t["ring"] for t in trials} == {"Fp(5)"}
    buchberger = poly.buchberger

    def engine(ctx, gens, **kw):
        if ctx.nvars == 0:
            raise RuntimeError("Buchberger run over a field")
        return buchberger(ctx, gens, **kw)

    def no_field(rabinowitsch):
        def guarded(ring, gens, f):
            if not ring.variables:
                raise RuntimeError(f"presentation basis over {ring}")
            return rabinowitsch(ring, gens, f)
        return guarded

    monkeypatch.setattr(poly, "buchberger", engine)
    for module in (rings, localization):  # each holds its own reference
        monkeypatch.setattr(module, "_rabinowitsch",
                            no_field(module._rabinowitsch))
    assert [_run(src) for src in FIELD_SCRIPTS] == expected


@pytest.mark.parametrize("c", [0, 3])
def test_localized_field_reads_fractions(c):
    K = QuotientRing(PrimeField(7))
    L = K.localization(K.element(c))
    a = L.element(L.fraction(2, 1))
    if c:
        assert a == L.element(L.from_base(K.element(3)))  # 2/3 = 2 * 5
        assert a * L.element(L.fraction(3)) == L.element(2)
    else:
        assert a.is_zero and L.one().is_zero
