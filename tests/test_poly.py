import random
from fractions import Fraction as Q

import pytest

from zkit.poly import (PolyContext, PrimeField, Rationals, buchberger,
                       const_poly, is_groebner, is_prime, is_reduced_basis,
                       normal_form, one_cofactors, p_add, p_divmod, p_mul,
                       p_pow, p_sub, poly_from_dict, quotient_monomial_basis,
                       var_poly)


def rand_poly(ctx, rng, deg=3, terms=4):
    d = {}
    for _ in range(terms):
        m = tuple(rng.randrange(deg + 1) for _ in range(ctx.nvars))
        if sum(m) <= deg:
            d[m] = ctx.field.coerce(rng.randrange(-5, 6))
    return poly_from_dict(ctx, d)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 7919}
    for n in range(2, 200):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_prime_field_coerce_rational():
    f5 = PrimeField(5)
    assert f5.coerce(Q(1, 2)) == 3
    with pytest.raises(Exception):
        f5.coerce(Q(1, 5))


@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex"])
def test_order_keys_total_order(order):
    ctx = PolyContext(Rationals(), 3, order)
    rng = random.Random(1)
    monos = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(50)]
    keys = [ctx.key(m) for m in monos]
    # antisymmetry + 1 is the least monomial
    for m, k in zip(monos, keys):
        assert (k > ctx.key((0, 0, 0))) == (m != (0, 0, 0))
    # multiplicative: a < b implies ac < bc
    for a, b in zip(monos, monos[1:]):
        c = (1, 0, 2)
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert (ctx.key(a) < ctx.key(b)) == (ctx.key(ac) < ctx.key(bc))


def test_grevlex_classic_comparison():
    # x*z against y^2: grevlex puts y^2 higher
    ctx = PolyContext(Rationals(), 3)
    assert ctx.key((1, 0, 1)) < ctx.key((0, 2, 0))


def test_division_invariant():
    rng = random.Random(7)
    for _ in range(40):
        ctx = PolyContext(Rationals(), 2)
        f = rand_poly(ctx, rng)
        divisors = [g for g in (rand_poly(ctx, rng, deg=2, terms=2)
                                for _ in range(2)) if g]
        if not divisors:
            continue
        quots, rem = p_divmod(ctx, f, divisors)
        acc = rem
        for q, g in zip(quots, divisors):
            acc = p_add(ctx, acc, p_mul(ctx, q, g))
        assert acc == f
        # no term of rem is divisible by a leading monomial
        for m, _ in rem:
            for g in divisors:
                lm = g[0][0]
                assert not all(a <= b for a, b in zip(lm, m))


def test_buchberger_textbook_example():
    ctx = PolyContext(Rationals(), 2)
    x, y = var_poly(ctx, 0), var_poly(ctx, 1)
    basis, cofs = buchberger(
        ctx, [p_sub(ctx, p_pow(ctx, x, 2), y), p_pow(ctx, x, 3)], track=True)
    rendered = {tuple(b) for b in basis}
    expected = {
        ((( 0, 2), Q(1)),),                      # y^2
        (((1, 1), Q(1)),),                       # x*y
        (((2, 0), Q(1)), ((0, 1), Q(-1))),       # x^2 - y
    }
    assert rendered == expected
    assert is_groebner(ctx, basis) and is_reduced_basis(ctx, basis)


def test_cofactor_identity_random():
    rng = random.Random(13)
    for trial in range(25):
        p = rng.choice([0, 5, 7])
        field = Rationals() if p == 0 else PrimeField(p)
        ctx = PolyContext(field, rng.choice([1, 2]))
        gens = [g for g in (rand_poly(ctx, rng, deg=2, terms=3)
                            for _ in range(rng.choice([1, 2, 3]))) if g]
        if not gens:
            continue
        basis, cofs = buchberger(ctx, gens, track=True)
        for b, row in zip(basis, cofs):
            acc = ()
            for c, g in zip(row, gens):
                acc = p_add(ctx, acc, p_mul(ctx, c, g))
            assert acc == b, f"trial {trial}"


def test_one_cofactors():
    ctx = PolyContext(Rationals(), 1)
    x = var_poly(ctx, 0)
    one = const_poly(ctx, 1)
    cof = one_cofactors(ctx, [x, p_sub(ctx, one, x)])
    acc = p_add(ctx, p_mul(ctx, cof[0], x),
                p_mul(ctx, cof[1], p_sub(ctx, one, x)))
    assert acc == one
    assert one_cofactors(ctx, [x, p_pow(ctx, x, 2)]) is None
    assert one_cofactors(ctx, []) is None


def test_quotient_monomial_basis():
    ctx = PolyContext(PrimeField(5), 2)
    x, y = var_poly(ctx, 0), var_poly(ctx, 1)
    basis, _ = buchberger(ctx, [p_pow(ctx, x, 2), p_pow(ctx, y, 3)])
    monos = quotient_monomial_basis(ctx, basis)
    assert len(monos) == 6
    # x alone leaves y free: infinite
    basis2, _ = buchberger(ctx, [x])
    assert quotient_monomial_basis(ctx, basis2) is None
    # unit ideal: empty basis of monomials
    basis3, _ = buchberger(ctx, [const_poly(ctx, 2)])
    assert quotient_monomial_basis(ctx, basis3) == []


def test_normal_form_is_linear():
    rng = random.Random(3)
    ctx = PolyContext(Rationals(), 2)
    gens = [rand_poly(ctx, rng, deg=2, terms=2) for _ in range(2)]
    basis, _ = buchberger(ctx, [g for g in gens if g])
    for _ in range(20):
        f, g = rand_poly(ctx, rng), rand_poly(ctx, rng)
        lhs = normal_form(ctx, p_add(ctx, f, g), basis)
        rhs = p_add(ctx, normal_form(ctx, f, basis),
                    normal_form(ctx, g, basis))
        assert lhs == rhs
