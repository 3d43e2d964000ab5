"""A Q coefficient has one form: an int when it is integral, a Fraction
with denominator > 1 otherwise, never a float.  Every producer of Q
coefficients returns that form, so equal values have equal payloads,
hashes, sort keys and text whichever path made them."""
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from zkit import (QuotientRing, Rationals, dsl, localize, polynomial_ring,
                  quotient_by)
from zkit.localization import LocalizedField, LocalizedQuotient
from zkit.poly import (PolyContext, buchberger, normal_form, one_cofactors,
                       p_divmod, p_mul, poly_from_dict)
from zkit.serialize import element_from_str, eval_element_expr

QQ = Rationals()
NAMES = ("x", "y")

# raw values, some of them integral Fractions such as 4/2 or 3/1
RAW = st.integers(-9, 9) | st.builds(Q, st.integers(-9, 9), st.integers(1, 4))


def one_form(c) -> bool:
    return type(c) is int or type(c) is Q and c.denominator > 1


def assert_one_form(f):
    assert all(one_form(c) for _, c in f), f


@st.composite
def polys(draw, nvars=2, deg=2, size=4):
    d = draw(st.dictionaries(st.tuples(*[st.integers(0, deg)] * nvars),
                             RAW, max_size=size))
    return poly_from_dict(PolyContext(QQ, nvars),
                          {m: QQ.coerce(c) for m, c in d.items()})


@st.composite
def quotients(draw):
    """Q[x, y] modulo up to two random relations (maybe the unit ideal)."""
    free = polynomial_ring(QQ, NAMES)
    rels = draw(st.lists(polys(deg=2, size=3), max_size=2))
    return quotient_by(free, [free.element(r) for r in rels if r])


def element_text(draw):
    """A product of two sums of rational-literal terms, as a script
    writes it."""
    def sum_text():
        terms = draw(st.lists(st.tuples(
            st.integers(-6, 6), st.integers(1, 3), st.integers(0, 2),
            st.integers(0, 2)), min_size=1, max_size=3))
        return " + ".join(f"({n}/{d}) * x^{a} * y^{b}"
                          for n, d, a, b in terms)
    return f"({sum_text()}) * ({sum_text()})"


@settings(max_examples=200, deadline=None)
@given(a=RAW, b=RAW)
def test_rationals_arithmetic(a, b):
    x, y = QQ.coerce(a), QQ.coerce(b)
    assert one_form(x) and x == a
    for got, want in ((QQ.add(x, y), Q(a) + b), (QQ.sub(x, y), Q(a) - b),
                      (QQ.mul(x, y), Q(a) * b), (QQ.neg(x), -Q(a))):
        assert one_form(got) and got == want
    if y:
        assert one_form(QQ.div(x, y)) and QQ.div(x, y) == Q(a) / b
    if x:
        assert one_form(QQ.invert(x)) and QQ.invert(x) == 1 / Q(a)
    assert one_form(QQ.zero) and one_form(QQ.one)


@settings(max_examples=100, deadline=None)
@given(f=polys(), num=st.integers(-6, 6), den=st.integers(1, 6))
def test_integral_and_lift(f, num, den):
    scale, g = QQ.integral(f)
    assert all(type(c) is int for _, c in g)
    if scale == 1:
        assert g is f  # an all-int polynomial is returned uncopied
    assert QQ.lift(g, 1, scale) == f
    assert_one_form(QQ.lift(g, 1, scale))
    assert QQ.lift(g, 1, 1) is g
    if num:
        lifted = QQ.lift(g, num, den)
        assert_one_form(lifted)
        assert lifted == tuple((m, Q(c * num, den)) for m, c in g)


@settings(max_examples=60, deadline=None)
@given(f=polys(size=6), divisors=st.lists(polys(size=3), min_size=1,
                                          max_size=3),
       g=polys(size=3))
def test_division_and_normal_forms(f, divisors, g):
    ctx = PolyContext(QQ, 2)
    divisors = [d for d in divisors if d]
    assert_one_form(p_mul(ctx, f, g))
    if not divisors:
        return
    quots, rem = p_divmod(ctx, f, divisors)
    for q in quots:
        assert_one_form(q)
    assert_one_form(rem)
    basis, _ = buchberger(ctx, divisors)
    for b in basis:
        assert_one_form(b)
    assert_one_form(normal_form(ctx, f, basis))


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(polys(size=3), min_size=1, max_size=3),
       multipliers=st.lists(polys(size=2), max_size=3))
def test_trace_lift_cofactors(gens, multipliers):
    ctx = PolyContext(QQ, 2)
    basis, trace = buchberger(ctx, gens, track=True)
    for c in trace.lift((multipliers + [()] * len(basis))[:len(basis)]):
        assert_one_form(c)
    for c in one_cofactors(ctx, gens + [(((0, 0), 1),)])():
        assert_one_form(c)


@settings(max_examples=60, deadline=None)
@given(ring=quotients(), data=st.data())
def test_script_and_certificate_reads(ring, data):
    e = eval_element_expr(ring, dsl.parse_expression(
        element_text(data.draw)))
    assert_one_form(e.payload)
    back = element_from_str(ring, str(e))
    assert back == e
    assert_one_form(back.payload)
    assert_one_form(ring.canonical({(1, 0): Q(4, 2), (0, 0): Q(3, 6)}))
    assert_one_form(ring.canonical((((0, 1), Q(6, 3)),)))


@settings(max_examples=60, deadline=None)
@given(ring=quotients(), f=polys(size=2), num=polys(size=3),
       exp=st.integers(0, 3), c=RAW, d=RAW)
def test_localization_payloads(ring, f, num, exp, c, d):
    L = localize(ring, ring.element(f))
    assert isinstance(L, LocalizedQuotient)
    a = L.element(L.fraction(num, exp))
    for x in (a, a + L.one(), a * a, L.one()):
        assert_one_form(x.payload)
        assert_one_form(L.written(x.payload).num.payload)
    K = QuotientRing(QQ)
    F = localize(K, K.element(c))
    assert isinstance(F, LocalizedField)
    for x in (F.element(F.fraction(d, exp)), F.one(),
              F.element(F.fraction(1, 1)) * F.element(c)):
        assert_one_form(x.payload)


def test_sort_key_on_mixed_coefficients():
    """A key on (numerator, denominator) for every coefficient: ints and
    Fractions in one payload or across payloads compare as they did when
    every coefficient was a Fraction."""
    R = polynomial_ring(QQ, ("x",))
    values = [Q(3, 2), 1, Q(1, 2), 2, Q(-1, 2), -1]
    elems = [R.element({(1,): v, (0,): w}) for v in values for w in values]
    elems += [R.element(v) for v in values]
    for e in elems:
        assert_one_form(e.payload)

    def as_fractions(e):
        return tuple((m, (Q(c).numerator, Q(c).denominator))
                     for m, c in e.payload)
    assert sorted(elems, key=lambda e: e.sort_key()) == sorted(
        elems, key=as_fractions)
