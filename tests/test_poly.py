import random
from fractions import Fraction as Q

import pytest

from helpers import p_scale, reference_buchberger, reference_divmod
from zkit import ResourceExceeded, poly
from zkit.limits import limits
from zkit.poly import (PolyContext, PrimeField, Rationals, buchberger,
                       const_poly, is_groebner, is_prime, is_reduced_basis,
                       normal_form, one_cofactors, p_add, p_divmod, p_mul,
                       p_neg, p_sub, poly_from_dict,
                       quotient_monomial_basis, var_poly)

ORDERS = ("lex", "grlex", "grevlex")
FIELDS = (Rationals(), PrimeField(7), PrimeField(32003))


def rand_poly(ctx, rng, deg=3, terms=4):
    d = {}
    for _ in range(terms):
        m = tuple(rng.randrange(deg + 1) for _ in range(ctx.nvars))
        if sum(m) <= deg:
            d[m] = ctx.field.coerce(rng.randrange(-5, 6))
    return poly_from_dict(ctx, d)


def rand_wide_poly(ctx, rng, deg=3, terms=4):
    """Q coefficients with numerators up to 10^12 and denominators up to
    10^6, either sign."""
    d = {}
    for _ in range(terms):
        m = tuple(rng.randrange(deg + 1) for _ in range(ctx.nvars))
        if sum(m) <= deg:
            d[m] = Q(rng.randrange(-10**12, 10**12 + 1),
                     rng.randrange(1, 10**6 + 1))
    return poly_from_dict(ctx, d)


def negative_lead(ctx, f):
    return f if f[0][1] < 0 else p_neg(ctx, f)


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
        ctx, [p_sub(ctx, p_mul(ctx, x, x), y),
              p_mul(ctx, x, p_mul(ctx, x, x))], track=True)
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
        basis, trace = buchberger(ctx, gens, track=True)
        for b, row in zip(basis, _rows(ctx, basis, trace)):
            acc = ()
            for c, g in zip(row, gens):
                acc = p_add(ctx, acc, p_mul(ctx, c, g))
            assert acc == b, f"trial {trial}"


def test_one_cofactors():
    ctx = PolyContext(Rationals(), 1)
    x = var_poly(ctx, 0)
    one = const_poly(ctx, 1)
    cof = one_cofactors(ctx, [x, p_sub(ctx, one, x)])()
    acc = p_add(ctx, p_mul(ctx, cof[0], x),
                p_mul(ctx, cof[1], p_sub(ctx, one, x)))
    assert acc == one
    assert one_cofactors(ctx, [x, p_mul(ctx, x, x)]) is None
    assert one_cofactors(ctx, []) is None


def test_quotient_monomial_basis():
    ctx = PolyContext(PrimeField(5), 2)
    x, y = var_poly(ctx, 0), var_poly(ctx, 1)
    basis, _ = buchberger(ctx, [p_mul(ctx, x, x),
                                 p_mul(ctx, y, p_mul(ctx, y, y))])
    monos = quotient_monomial_basis(ctx, basis, 100)
    assert len(monos) == 6
    # the search stops at most + 1 monomials
    assert len(quotient_monomial_basis(ctx, basis, 3)) == 4
    # x alone leaves y free: infinite
    basis2, _ = buchberger(ctx, [x])
    assert quotient_monomial_basis(ctx, basis2, 100) is None
    # unit ideal: empty basis of monomials
    basis3, _ = buchberger(ctx, [const_poly(ctx, 2)])
    assert quotient_monomial_basis(ctx, basis3, 100) == []


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


@pytest.mark.parametrize("order", ORDERS)
def test_descending_key_sorts_like_reversed_key(order):
    rng = random.Random(f"desc-key/{order}")
    for nvars in range(5):
        ctx = PolyContext(PrimeField(5), nvars, order)
        monos = list({tuple(rng.randrange(5) for _ in range(nvars))
                      for _ in range(60)})
        rng.shuffle(monos)
        expected = sorted(monos, key=ctx.key, reverse=True)
        assert sorted(monos, key=ctx.desc_key) == expected, nvars
        f = poly_from_dict(ctx, {m: 1 + i % 4 for i, m in enumerate(monos)})
        assert [m for m, _ in f] == expected, nvars
    # a zero-variable ring: constants only, and zero drops out
    ctx = PolyContext(PrimeField(5), 0, order)
    assert poly_from_dict(ctx, {(): 3}) == (((), 3),)
    assert poly_from_dict(ctx, {(): 0}) == ()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_division_matches_reference(field, order):
    rng = random.Random(f"divmod/{field}/{order}")
    for trial in range(40):
        ctx = PolyContext(field, rng.choice([1, 2, 3]), order)
        f = rand_poly(ctx, rng, deg=4, terms=8)
        divisors = [g for g in (rand_poly(ctx, rng, deg=2, terms=3)
                                for _ in range(rng.randrange(1, 4))) if g]
        if not divisors:
            continue
        if trial % 2:  # monic, as every Groebner and membership divisor is
            divisors = [p_scale(ctx, g, field.invert(g[0][1]))
                        for g in divisors]
        cases = [(f, divisors)]
        if isinstance(field, Rationals):
            # wide coefficients, and divisors leading with a negative one
            wide = [g for g in (rand_wide_poly(ctx, rng, deg=2, terms=3)
                                for _ in range(rng.randrange(1, 4))) if g]
            if wide:
                cases.append((rand_wide_poly(ctx, rng, deg=4, terms=8),
                              wide))
            cases.append((f, [negative_lead(ctx, g) for g in divisors]))
        for f, divisors in cases:
            for track in (True, False):
                assert (p_divmod(ctx, f, divisors, track=track)
                        == reference_divmod(ctx, f, divisors,
                                            track=track)), trial


def _from_terms(ctx, terms):
    """{exponent string: coefficient}, e.g. {"1100": 2} for 2*x0*x1."""
    return poly_from_dict(ctx, {tuple(map(int, m)): ctx.field.coerce(c)
                                for m, c in terms.items()})


CYCLIC4 = [{"1000": 1, "0100": 1, "0010": 1, "0001": 1},
           {"1100": 1, "0110": 1, "0011": 1, "1001": 1},
           {"1110": 1, "0111": 1, "1011": 1, "1101": 1},
           {"1111": 1, "0000": -1}]
KATSURA3 = [{"1000": 1, "0100": 2, "0010": 2, "0001": 2, "0000": -1},
            {"2000": 1, "0200": 2, "0020": 2, "0002": 2, "1000": -1},
            {"1100": 2, "0110": 2, "0011": 2, "0100": -1},
            {"0200": 1, "1010": 2, "0101": 2, "0010": -1}]

# x^2 + 2y^2 - 3xy^2 - y^3, 5xy, -xy^3 - x^3y: in grlex and grevlex an
# element whose leading monomial a later one divides ties with that
# element on the lcm of a new pair.  Leaving it out of new pairs would
# reduce the later element's pair first and change the cofactors.
TIED_LCM = [{"20": 1, "02": 2, "12": -3, "03": -1}, {"11": 5},
            {"13": -1, "31": -1}]


def _cyclic(ctx, n):
    """cyclic-n: for k < n the sum over i of x_i*...*x_(i+k-1), indices
    mod n, and x_0*...*x_(n-1) - 1."""
    gens = []
    for k in range(1, n):
        terms = {}
        for i in range(n):
            mono = [0] * n
            for j in range(i, i + k):
                mono[j % n] = 1
            terms["".join(map(str, mono))] = 1
        gens.append(terms)
    gens.append({"1" * n: 1, "0" * n: -1})
    return [_from_terms(ctx, g) for g in gens]


def _unpacked(lay, work):
    """The polynomial a packed engine run hands to reduction, as a
    payload: exponent tuples, in descending order."""
    return tuple((lay.unpack(m), work[m]) for m in sorted(work, reverse=True))


def _monic(f):
    return tuple((m, Q(c) / f[0][1]) for m, c in f)


def _made_monic(ctx, basis):
    """A basis over ctx.field, or a stop_at_one basis in engine
    coefficients, with each element divided by its leading coefficient."""
    fld = ctx.field
    return tuple(tuple((m, fld.div(fld.coerce(c), fld.coerce(f[0][1])))
                       for m, c in f) for f in basis)


def _rows(ctx, basis, trace):
    """The lift of each basis element made monic: the cofactor rows that
    a forward-tracked engine keeps for the monic basis."""
    fld = ctx.field
    rows = []
    for i, b in enumerate(basis):
        unit = [()] * len(basis)
        unit[i] = const_poly(ctx, fld.invert(fld.coerce(b[0][1])))
        rows.append(trace.lift(unit))
    return rows


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_buchberger_matches_reference(field, order, monkeypatch):
    # record every polynomial the engine hands to reduction: generators,
    # S-polynomials in selection order, then the tails of the final basis
    # (none under stop_at_one when 1 is not in the ideal)
    trace = []
    reduce = poly._reduce

    def recording(lay, work, *rest):
        trace.append(_unpacked(lay, work))
        return reduce(lay, work, *rest)

    monkeypatch.setattr(poly, "_reduce", recording)
    rng = random.Random(f"buchberger/{field}/{order}")
    cases = []
    for _ in range(15):
        ctx = PolyContext(field, rng.choice([1, 2, 3]), order)
        cases.append((ctx, [rand_poly(ctx, rng, deg=3, terms=3)
                            for _ in range(rng.randrange(1, 5))]))
    # bases of 6-8 elements with many pairs sharing an lcm, so the
    # tie-break of pair selection matters (katsura-3 in lex has tracked
    # cofactors that take seconds to build, so lex runs cyclic-4 only)
    ctx = PolyContext(field, 4, order)
    for system in (CYCLIC4,) if order == "lex" else (CYCLIC4, KATSURA3):
        cases.append((ctx, [_from_terms(ctx, g) for g in system]))
    ctx = PolyContext(field, 2, order)
    cases.append((ctx, [_from_terms(ctx, g) for g in TIED_LCM]))
    if isinstance(field, Rationals):
        for _ in range(6):
            ctx = PolyContext(field, rng.choice([1, 2]), order)
            cases.append((ctx, [rand_wide_poly(ctx, rng, deg=2, terms=3)
                                for _ in range(rng.randrange(1, 4))]))
        for _ in range(4):
            ctx = PolyContext(field, rng.choice([2, 3]), order)
            gens = [g for g in (rand_poly(ctx, rng, deg=3, terms=3)
                                for _ in range(rng.randrange(2, 4))) if g]
            cases.append((ctx, [negative_lead(ctx, g) for g in gens]))
        # unit ideals whose first constant is 3/7: a generator, and an
        # S-polynomial of x*y + 3/7 and 5*x
        ctx = PolyContext(field, 2, order)
        x, y = var_poly(ctx, 0), var_poly(ctx, 1)
        cases.append((ctx, [const_poly(ctx, Q(3, 7)), p_add(ctx, x, y)]))
        cases.append((ctx, [p_add(ctx, p_mul(ctx, x, y),
                                  const_poly(ctx, Q(3, 7))),
                            p_scale(ctx, x, Q(5))]))
    for trial, (ctx, gens) in enumerate(cases):
        for track in (True, False):
            for stop_at_one in (False, True):
                trace.clear()
                ref_trace = []
                basis, lift = buchberger(ctx, gens, track=track,
                                         stop_at_one=stop_at_one)
                # the lift of each element made monic is the reference's
                # forward-tracked row; a stop_at_one basis is compared
                # made monic, every other one as it is
                ours = (_made_monic(ctx, basis),
                        _rows(ctx, basis, lift) if track else None)
                if not stop_at_one:
                    assert ours[0] == basis, (trial, track)
                ref = reference_buchberger(ctx, gens, track=track,
                                           stop_at_one=stop_at_one,
                                           trace=ref_trace)
                assert ours == ref, (trial, track, stop_at_one)
                # the criteria only skip pairs that reduce to zero: the
                # criterion-free engine lifts to the same basis and
                # cofactors
                assert ours == reference_buchberger(
                    ctx, gens, track=track, stop_at_one=stop_at_one,
                    criteria=False), (trial, track, stop_at_one)
                if isinstance(field, Rationals):
                    # the Q engine reduces integer multiples of the
                    # reference's polynomials: compare them made monic
                    assert ([_monic(f) for f in trace]
                            == [_monic(f) for f in ref_trace]), \
                        (trial, track, stop_at_one)
                else:
                    assert trace == ref_trace, (trial, track, stop_at_one)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(32003)], ids=str)
def test_cyclic5_pair_counts(field, monkeypatch):
    """The criteria leave cyclic-5 with 128 reductions (generators,
    S-pairs and the final tails) where every pair took 758, so it fits
    under a cap of 150 S-pairs.  Under stop_at_one the 42 elements of
    the Buchberger-complete basis are returned as they are, so the 20
    tail reductions of the reduced basis are not run.  Counts do not
    depend on the machine."""
    calls = []
    reduce = poly._reduce

    def counting(lay, work, *rest):
        calls.append(_unpacked(lay, work))
        return reduce(lay, work, *rest)

    monkeypatch.setattr(poly, "_reduce", counting)
    ctx = PolyContext(field, 5)
    gens = _cyclic(ctx, 5)
    for track in (False, True):
        for stop_at_one in (False, True):
            calls.clear()
            with limits(max_pairs=150):
                basis, _ = buchberger(ctx, gens, track=track,
                                      stop_at_one=stop_at_one)
            assert (len(basis), len(calls)) == ((42, 108) if stop_at_one
                                                else (20, 128)), \
                (track, stop_at_one)


def test_normal_form_of_a_reduced_polynomial_is_itself():
    ctx = PolyContext(Rationals(), 3)
    basis, _ = buchberger(ctx, [_from_terms(
        ctx, {"300": 1, "030": 2, "111": 3, "000": 1})])
    xy = _from_terms(ctx, {"110": 1})
    assert normal_form(ctx, xy, basis) is xy
    x3 = _from_terms(ctx, {"300": 1})
    assert normal_form(ctx, x3, basis) == p_divmod(ctx, x3, basis)[1] != x3


def _to_sympy(sympy, syms, f):
    return sum((sympy.Rational(int(c.numerator), int(c.denominator))
                * sympy.Mul(*[x ** e for x, e in zip(syms, m)])
                for m, c in f), sympy.Integer(0))


def _sympy_reduced_basis(ctx, gens):
    """sympy's reduced Groebner basis of gens in ctx's order, made monic
    over ctx.field and sorted like zkit's (ascending leading monomials).
    Over GF(p) sympy's coefficients are symmetric, in (-p/2, p/2]:
    coerce maps them mod p."""
    import sympy
    field = ctx.field
    kwargs = ({"modulus": field.p} if field.characteristic
              else {"domain": "QQ"})
    syms = sympy.symbols(f"x0:{ctx.nvars}")
    theirs = sympy.groebner([_to_sympy(sympy, syms, g) for g in gens],
                            *syms, order=ctx.order, **kwargs)
    basis = []
    for g in theirs.polys:
        # Poly.monic() divides by the lex leading coefficient
        terms = [(m, field.coerce(Q(int(c.p), int(c.q))))
                 for m, c in g.terms(order=ctx.order)]
        lc = terms[0][1]
        basis.append(tuple((m, field.div(c, lc)) for m, c in terms))
    return tuple(sorted(basis, key=lambda f: ctx.key(f[0][0])))


@pytest.mark.parametrize("modulus", [None, 7, 32003])
def test_buchberger_matches_sympy(modulus):
    field = Rationals() if modulus is None else PrimeField(modulus)
    rng = random.Random(f"sympy/{modulus}")
    for trial in range(24):
        nvars = rng.choice([2, 3])
        ctx = PolyContext(field, nvars)
        gens = [g for g in (rand_poly(ctx, rng, deg=3, terms=3)
                            for _ in range(rng.randrange(1, 4))) if g]
        if not gens:
            continue
        basis, _ = buchberger(ctx, gens)
        assert basis == _sympy_reduced_basis(ctx, gens), trial
    # cyclic-5, where the criteria remove most pairs
    ctx = PolyContext(field, 5)
    gens = _cyclic(ctx, 5)
    assert buchberger(ctx, gens)[0] == _sympy_reduced_basis(ctx, gens)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("field", [Rationals(), PrimeField(32003)], ids=str)
def test_buchberger_matches_sympy_in_every_order(field, order):
    """Seeded random ideals in 2-3 variables: the reduced basis equals
    sympy's made monic, term by term."""
    rng = random.Random(f"sympy-orders/{field}/{order}")
    for trial in range(80):
        ctx = PolyContext(field, rng.choice([2, 3]), order)
        gens = [g for g in (rand_poly(ctx, rng, deg=3, terms=4)
                            for _ in range(rng.randrange(2, 4))) if g]
        if gens:
            assert (buchberger(ctx, gens)[0]
                    == _sympy_reduced_basis(ctx, gens)), trial


def _checked_against_reference(ctx, gens, expected):
    """buchberger on gens has the reduced basis expected and the
    reference engine's basis and cofactor rows, exactly."""
    basis, lift = buchberger(ctx, gens, track=True)
    assert basis == expected
    assert ((_made_monic(ctx, basis), _rows(ctx, basis, lift))
            == reference_buchberger(ctx, gens, track=True))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(32003)], ids=str)
def test_packed_run_redone_wider(field, monkeypatch):
    """Widths come from the input degrees, here 10, which leaves room
    for exponents below 32; lex reduction of x^2 by x - y^10 and
    y - z^10 reaches z^200, so the run is redone at double width with
    the same results, and division alike.  Exponents of 10^12 are packed
    in wide fields from the start."""
    widths = []
    layout = poly._layout
    monkeypatch.setattr(poly, "_layout",
                        lambda *key: widths.append(key[2]) or layout(*key))

    def make(ctx, terms):
        return poly_from_dict(ctx, {m: field.coerce(c)
                                    for m, c in terms.items()})

    ctx = PolyContext(field, 3, "lex")
    gens = [make(ctx, {(1, 0, 0): 1, (0, 10, 0): -1}),
            make(ctx, {(0, 1, 0): 1, (0, 0, 10): -1}),
            make(ctx, {(2, 0, 0): 1})]
    _checked_against_reference(ctx, gens, (
        make(ctx, {(0, 0, 200): 1}),
        make(ctx, {(0, 1, 0): 1, (0, 0, 10): -1}),
        make(ctx, {(1, 0, 0): 1, (0, 0, 100): -1})))
    # the run's two widths; the suite's post-hoc basis checks divide
    # at their own widths after them
    assert widths[:2] == [6, 12]
    widths.clear()
    f = gens[2]
    assert p_divmod(ctx, f, gens[:2]) == reference_divmod(ctx, f, gens[:2])
    assert widths == [6, 12]
    ctx = PolyContext(field, 2)
    n = 10**12
    _checked_against_reference(
        ctx, [make(ctx, {(n, 1): 1, (0, 1): -1}),
              make(ctx, {(0, 2): 1, (0, 0): -1})],
        (make(ctx, {(0, 2): 1, (0, 0): -1}),
         make(ctx, {(n, 0): 1, (0, 0): -1})))


def _katsura_like(ctx):
    """x^2 + 2y^2 + 2z^2 - 7x, 2xy + 2yz - 7y, x + 2y + 2z - 7."""
    return [_from_terms(ctx, g) for g in (
        {"200": 1, "020": 2, "002": 2, "100": -7},
        {"110": 2, "011": 2, "010": -7}, {"100": 1, "010": 2, "001": 2,
                                          "000": -7})]


def test_pair_cap_names_layer_value_and_cap():
    ctx = PolyContext(Rationals(), 3)
    with limits(max_pairs=1):
        with pytest.raises(ResourceExceeded) as exc:
            buchberger(ctx, _katsura_like(ctx))
    assert str(exc.value) == ("poly.buchberger: 2 S-pairs exceeded "
                              "max_pairs=1")


def test_basis_cap_names_layer_value_and_cap():
    ctx = PolyContext(Rationals(), 3)
    with limits(max_basis=2):
        with pytest.raises(ResourceExceeded) as exc:
            buchberger(ctx, _katsura_like(ctx), track=True)
    assert str(exc.value) == ("poly.buchberger: 3 basis elements exceeded "
                              "max_basis=2")
