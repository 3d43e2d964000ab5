"""Shared random samplers for the test suite.

Everything takes an explicit random.Random so failures reproduce from
the seed printed by the test that used them.  The end of the file holds
reference engines that the fast ones are checked against: hom
enumeration on RingElements, a scan-based Groebner engine, the
recursive-descent script parser, the RingElement evaluator of element
expressions, and the certificate printer and reader that went through
the script AST.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from zkit import (IntegerRing, NotWellDefined, PrimeField, QuotientRing,
                  Rationals, ResidueRing, RingHom, fin_gen_ideal, make_cover,
                  make_hom, radical_member, saturates,
                  unimodular_certificate)
from zkit import dsl
from zkit import poly as P
from zkit import rings as R
from zkit.errors import (InvalidWitness, NonInvertibleDenominator,
                         ScriptSyntaxError, TypeMismatch)
from zkit.serialize import eval_element_expr

SMALL_PRIMES = (2, 3, 5, 7)


def random_poly_payload(ring, rng, max_deg=3, max_terms=3, coeff_bound=3):
    payload = {}
    nvars = len(ring.variables)
    for _ in range(rng.randrange(1, max_terms + 1)):
        while True:
            mono = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
            if sum(mono) <= max_deg:
                break
        payload[mono] = rng.randrange(-coeff_bound, coeff_bound + 1)
    return payload


def random_element(ring, rng, max_deg=3):
    if isinstance(ring, IntegerRing):
        return ring.element(rng.randrange(-20, 21))
    if isinstance(ring, ResidueRing):
        return ring.element(rng.randrange(ring.modulus))
    return ring.element(random_poly_payload(ring, rng, max_deg=max_deg))


def random_quotient_ring(rng, base=None, max_vars=2, max_relations=2,
                         rel_deg=3):
    if base is None:
        base = (Rationals() if rng.random() < 0.5
                else PrimeField(rng.choice(SMALL_PRIMES)))
    nvars = rng.randrange(1, max_vars + 1)
    names = tuple("xyzw"[:nvars])
    free = QuotientRing(base, names)
    rels = []
    for _ in range(rng.randrange(0, max_relations + 1)):
        e = free.element(random_poly_payload(free, rng, max_deg=rel_deg,
                                             max_terms=2))
        if not e.is_zero:
            rels.append(e.payload)
    return QuotientRing(base, names, tuple(rels))


def random_ring(rng, kinds=("Z", "Zmod", "Q", "Fp")):
    kind = rng.choice(kinds)
    if kind == "Z":
        return IntegerRing()
    if kind == "Zmod":
        return ResidueRing(rng.randrange(2, 65))
    if kind == "Q":
        return random_quotient_ring(rng, base=Rationals())
    return random_quotient_ring(rng, base=PrimeField(rng.choice(SMALL_PRIMES)))


def random_unimodular_cover(ring, rng, max_n=3):
    """A random cover; (h, 1-h) guarantees success, richer shapes when
    the certificate search finds one."""
    for _ in range(6):
        shape = rng.randrange(3)
        try:
            if shape == 0:
                h = random_element(ring, rng, max_deg=2)
                return make_cover(ring, [h, ring.one() - h])
            if shape == 1:
                h = random_element(ring, rng, max_deg=2)
                g = random_element(ring, rng, max_deg=1)
                return make_cover(ring, [h, ring.one() - h * g, g])
            elems = [random_element(ring, rng, max_deg=2)
                     for _ in range(rng.randrange(2, max_n + 1))]
            if unimodular_certificate(elems) is None:
                continue
            return make_cover(ring, elems)
        except Exception:
            continue
    h = random_element(ring, rng, max_deg=1)
    return make_cover(ring, [h, ring.one() - h])


def random_endo(ring, rng):
    """A random well-defined endomorphism of a quotient ring, or None."""
    if not isinstance(ring, QuotientRing):
        return make_hom(ring, ring)
    for _ in range(8):
        images = []
        for name in ring.variables:
            roll = rng.random()
            if roll < 0.4:
                images.append(ring.var(name))
            elif roll < 0.7:
                images.append(ring.var(name) + ring.from_int(rng.randrange(-2, 3)))
            else:
                images.append(ring.from_int(rng.randrange(-3, 4)))
        try:
            return make_hom(ring, ring, tuple(images))
        except NotWellDefined:
            continue
    return None


# ---------------------------------------------------------------------------
# Reference hom enumeration: the depth-first walk on RingElements that
# rings.enumerate_homs replaced by index arithmetic.  Powers are tabled
# once per element, each prefix is substituted once for its completions,
# and every relation is fully evaluated for every assignment.  The fast
# walk must return the same homs, in the same order, with equal
# relation_checks.

def _ref_substitute(rels, pw):
    out = []
    for rel in rels:
        acc = {}
        for mono, c in rel.items():
            e, rest = mono[0], mono[1:]
            term = c * pw[e] if e else c
            acc[rest] = acc[rest] + term if rest in acc else term
        out.append(acc)
    return out


def reference_enumerate_homs(domain, codomain):
    elements = codomain.elements()
    try:
        R._base_compatible(domain, codomain)
    except NotWellDefined:
        return []
    top = max(R._top_exponents(domain), default=0)
    table = []
    for a in elements:
        pw = [codomain.one()]
        for _ in range(top):
            pw.append(pw[-1] * a)
        table.append(pw)
    nvars = len(domain.variables)
    homs = []

    def extend(rels, prefix):
        if len(prefix) == nvars:
            if all(rel[()].is_zero for rel in rels):
                homs.append(RingHom(domain, codomain, prefix,
                                    tuple(rel[()] for rel in rels)))
            return
        for a, pw in zip(elements, table):
            extend(_ref_substitute(rels, pw), prefix + (a,))

    extend(R._relation_terms(domain, codomain), ())
    return homs


# ---------------------------------------------------------------------------
# Reference Groebner engine: the scan-based division (max over the working
# dict for every term) and pair selection (min over all pending pairs at
# every step) that zkit.poly's heaps replaced.  The engine must return
# exactly what this returns: same quotients, remainders, bases, cofactors,
# and it must reduce the same polynomials in the same order (the S-pair
# trace), which reference_buchberger appends to `trace` when given one.
#
# With criteria=True the pair list is updated by the Gebauer-Moeller
# criteria, written as a rescan of every pair; with criteria=False every
# pair of basis elements is reduced (only coprime ones are skipped).  Both
# pick pairs by normal selection, so the pairs the criteria delete are
# exactly ones that reduce to zero there: the two return equal bases and
# cofactors.

def _ref_from_dict(ctx, d):
    items = [(m, c) for m, c in d.items() if c != ctx.field.zero]
    items.sort(key=lambda t: ctx.key(t[0]), reverse=True)
    return tuple(items)


def reference_divmod(ctx, f, divisors, track=True):
    fld = ctx.field
    key = ctx.key
    quo = [{} for _ in divisors] if track else None
    rem = {}
    work = dict(f)
    leads = [(d[0][0], d[0][1]) for d in divisors]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(leads):
            if P.mono_divides(lm, m):
                q = P.mono_div(m, lm)
                qc = fld.div(c, lc)
                if track:
                    s = fld.add(quo[i].get(q, fld.zero), qc)
                    if s == fld.zero:
                        quo[i].pop(q, None)
                    else:
                        quo[i][q] = s
                for dm, dc in divisors[i][1:]:
                    mm = P.mono_mul(q, dm)
                    s = fld.sub(work.get(mm, fld.zero), fld.mul(qc, dc))
                    if s == fld.zero:
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            rem[m] = c
    quotients = None
    if track:
        quotients = [_ref_from_dict(ctx, q) for q in quo]
    return quotients, _ref_from_dict(ctx, rem)


def _ref_reduce(ctx, f, fcof, basis, basiscofs, track, trace):
    if trace is not None:
        trace.append(f)
    if not basis:
        return f, fcof
    quots, rem = reference_divmod(ctx, f, basis, track=track)
    if track:
        for q, bc in zip(quots, basiscofs):
            if q:
                fcof = [P.p_sub(ctx, a, P.p_mul(ctx, b, q))
                        for a, b in zip(fcof, bc)]
    return rem, fcof


def _ref_update(basis, pairs, t):
    """Gebauer-Moeller: drop pending pairs by the B criterion, then append
    the new pairs (k, t) that survive the M and F criteria."""
    def lm(k):
        return basis[k][0][0]

    def lcm(i, j):
        return P.mono_lcm(lm(i), lm(j))

    def coprime(i, j):
        return lcm(i, j) == P.mono_mul(lm(i), lm(j))

    # B: lm(t) divides lcm(i, j), and lcm(i, t), lcm(j, t) differ from it
    pairs[:] = [(i, j) for i, j in pairs
                if not (P.mono_divides(lm(t), lcm(i, j))
                        and lcm(i, t) != lcm(i, j)
                        and lcm(j, t) != lcm(i, j))]
    for k in range(t):
        mine = lcm(k, t)
        # M: the lcm of another new pair properly divides this one
        if any(lcm(l, t) != mine and P.mono_divides(lcm(l, t), mine)
               for l in range(t)):
            continue
        # F: of the new pairs with this lcm keep the first, and none
        # when one of them is coprime
        same = [l for l in range(t) if lcm(l, t) == mine]
        if any(coprime(l, t) for l in same):
            continue
        if same[0] == k:
            pairs.append((k, t))


def reference_buchberger(ctx, gens, *, track=False, stop_at_one=False,
                         trace=None, criteria=True):
    fld = ctx.field
    one = P.const_poly(ctx, 1)
    gens = list(gens)
    n = len(gens)
    basis, cofs = [], []

    def insert(f, fcof):
        lc = f[0][1]
        if lc != fld.one:
            f = P.p_scale(ctx, f, fld.invert(lc))
            if track:
                fcof = [P.p_scale(ctx, a, fld.invert(lc)) for a in fcof]
        if stop_at_one and P.mono_deg(f[0][0]) == 0:
            return True, ((f,), [fcof] if track else None)
        basis.append(f)
        cofs.append(fcof)
        return False, None

    for i, g in enumerate(gens):
        if not g:
            continue
        gcof = [one if k == i else () for k in range(n)] if track else None
        g, gcof = _ref_reduce(ctx, g, gcof, basis, cofs, track, trace)
        if g:
            done, out = insert(g, gcof)
            if done:
                return out
    pairs = []

    def add_pairs(t):
        if criteria:
            _ref_update(basis, pairs, t)
        else:
            pairs.extend((k, t) for k in range(t))

    for t in range(len(basis)):
        add_pairs(t)
    while pairs:
        best = min(range(len(pairs)),
                   key=lambda k: ctx.key(P.mono_lcm(basis[pairs[k][0]][0][0],
                                                    basis[pairs[k][1]][0][0])))
        i, j = pairs.pop(best)
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi[0][0], fj[0][0]
        lcm = P.mono_lcm(lmi, lmj)
        if lcm == P.mono_mul(lmi, lmj):
            continue
        mi, mj = P.mono_div(lcm, lmi), P.mono_div(lcm, lmj)
        s = P.p_sub(ctx, P.p_term_mul(ctx, fi, mi, fld.one),
                    P.p_term_mul(ctx, fj, mj, fld.one))
        scof = None
        if track:
            scof = [P.p_sub(ctx, P.p_term_mul(ctx, a, mi, fld.one),
                            P.p_term_mul(ctx, b, mj, fld.one))
                    for a, b in zip(cofs[i], cofs[j])]
        s, scof = _ref_reduce(ctx, s, scof, basis, cofs, track, trace)
        if not s:
            continue
        done, out = insert(s, scof)
        if done:
            return out
        add_pairs(len(basis) - 1)
    # minimize (first of equal leading monomials), then reduce each tail
    keep = [i for i, f in enumerate(basis)
            if not any(j != i and P.mono_divides(g[0][0], f[0][0])
                       and (g[0][0] != f[0][0] or j < i)
                       for j, g in enumerate(basis))]
    basis = [basis[i] for i in keep]
    cofs = [cofs[i] for i in keep]
    out = []
    for i, f in enumerate(basis):
        f, fcof = _ref_reduce(ctx, f, cofs[i], basis[:i] + basis[i + 1:],
                              cofs[:i] + cofs[i + 1:], track, trace)
        if f:
            out.append((f, fcof))
    out.sort(key=lambda t: ctx.key(t[0][0][0]))
    return (tuple(f for f, _ in out),
            [c for _, c in out] if track else None)


# ---------------------------------------------------------------------------
# Reference script front end: the regex-per-position tokenizer with
# frozen-dataclass tokens and the six-level recursive descent over
# expressions that zkit.dsl's finditer scan and precedence climbing
# replaced.  Statements are parsed by the shared code.  Both must give
# equal ASTs, and equal ScriptSyntaxError lines and columns.

_REF_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<radmem>radical-member\b)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<eqeq>==)
  | (?P<leq><=)
  | (?P<sym>[;=()\[\]{},+\-*/^|&])
""", re.VERBOSE)


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    column: int


def reference_tokenize(source):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _REF_TOKEN_RE.match(source, pos)
        if m is None:
            raise ScriptSyntaxError(f"unexpected character {source[pos]!r}",
                               line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "radmem":
                kind, text = "name", "radical-member"
            elif kind in ("arrow", "eqeq", "leq", "sym"):
                kind = text
            tokens.append(_RefToken(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_RefToken("eof", "", line, col))
    return tokens


class ReferenceParser(dsl._Parser):
    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def expect(self, kind, what=""):
        tok = self.peek()
        if tok.kind != kind:
            want = what or kind
            raise ScriptSyntaxError(f"expected {want}, found {tok.text!r}",
                               tok.line, tok.column)
        return self.advance()

    def at(self, kind, text=None):
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expr(self, no_div=False):
        left = self.and_expr(no_div)
        while self.at("|"):
            self.advance()
            left = dsl.BinOp("|", left, self.and_expr(no_div))
        return left

    def and_expr(self, no_div):
        left = self.add_expr(no_div)
        while self.at("&"):
            self.advance()
            left = dsl.BinOp("&", left, self.add_expr(no_div))
        return left

    def add_expr(self, no_div):
        left = self.mul_expr(no_div)
        while self.at("+") or self.at("-"):
            op = self.advance().kind
            left = dsl.BinOp(op, left, self.mul_expr(no_div))
        return left

    def mul_expr(self, no_div):
        left = self.unary(no_div)
        while self.at("*"):
            self.advance()
            left = dsl.BinOp("*", left, self.unary(no_div))
        return left

    def unary(self, no_div):
        if self.at("-"):
            self.advance()
            return dsl.Neg(self.unary(no_div))
        return self.power(no_div)

    def power(self, no_div):
        base = self.atom(no_div)
        if self.at("^"):
            self.advance()
            exp = int(self.expect("int").text)
            return dsl.Pow(base, exp)
        return base

    def atom(self, no_div=False):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = int(tok.text)
            if not no_div and self.at("/") and self.peek(1).kind == "int":
                self.advance()
                den = int(self.advance().text)
                return dsl.RatLit(value, den)
            return dsl.IntLit(value)
        if tok.kind == "name" and tok.text == "D" and self.peek(1).kind == "(":
            self.advance()
            self.advance()
            args = [self.expr()]
            while self.at(","):
                self.advance()
                args.append(self.expr())
            self.expect(")")
            return dsl.DLit(tuple(args))
        if tok.kind == "name":
            self.advance()
            return dsl.NameRef(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ScriptSyntaxError(f"expected an expression, found {tok.text!r}",
                           tok.line, tok.column)


def reference_parse(source):
    return ReferenceParser(reference_tokenize(source)).script()


def reference_parse_expression(source):
    parser = ReferenceParser(reference_tokenize(source))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ScriptSyntaxError(f"trailing input {tok.text!r}", tok.line,
                           tok.column)
    return node


# ---------------------------------------------------------------------------
# Reference element evaluator: one RingElement per AST node, with the
# ring's own payload arithmetic at every operation, as zkit.serialize
# read elements before it evaluated into term dicts.  The term-dict
# evaluator must give the same payload, or the same exception type and
# message.


def reference_eval_element_expr(ring, node):
    if isinstance(node, dsl.IntLit):
        return ring.from_int(node.value)
    if isinstance(node, dsl.RatLit):
        if not ring.is_q_algebra:
            raise TypeMismatch("rational literals need a Q coefficient base")
        if node.den == 0:
            raise NonInvertibleDenominator(f"{node.num}/0 has a zero denominator")
        return R.normalize(ring, Fraction(node.num, node.den))
    if isinstance(node, dsl.NameRef):
        if node.name in ring.variables:
            return ring.var(node.name)
        raise TypeMismatch(f"unknown variable {node.name!r} in {ring}")
    if isinstance(node, dsl.Neg):
        return -reference_eval_element_expr(ring, node.arg)
    if isinstance(node, dsl.BinOp):
        left = reference_eval_element_expr(ring, node.left)
        right = reference_eval_element_expr(ring, node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        raise TypeMismatch(f"operator {node.op!r} is not a ring operation")
    if isinstance(node, dsl.Pow):
        return reference_eval_element_expr(ring, node.base) ** node.exp
    raise TypeMismatch(f"{node!r} is not a ring element expression")


# ---------------------------------------------------------------------------
# reference rules for R[1/f], on written fractions, decided in R

def ref_loc_leq(us, vs) -> bool:
    """D(us) <= D(vs) in R[1/f]: each numerator a of us has a*f in
    sqrt(<numerators of vs>) in R."""
    if not us:
        return True
    ring, f = us[0].ring, us[0].f
    ideal = fin_gen_ideal(ring, [b.num for b in vs])
    return all(radical_member(a.num * f, ideal) for a in us)


def ref_loc_eq_top(L, vs) -> bool:
    """D(vs) is the top of R[1/f]: f lies in sqrt(<numerators of vs>)."""
    return radical_member(L.f, fin_gen_ideal(L.ring, [b.num for b in vs]))


def ref_frac_eq(a, b) -> bool:
    """r/f^n == r'/f^m iff (r*f^m - r'*f^n)*f^k == 0 for some k."""
    return saturates(a.num * b.f ** b.exp - b.num * a.f ** a.exp, a.f)


# ---------------------------------------------------------------------------
# Reference certificate printer and reader: the script AST printer and the
# general parser and evaluator, as zkit.serialize wrote and read
# certificate elements before it had a printer and a reader of its own.
# The canonical ones must print the same bytes and read the same values.


def reference_poly_to_expr(p, variables):
    """Rebuild an AST for a polynomial payload (canonical term order)."""
    if not p:
        return dsl.IntLit(0)
    expr = None
    for mono, coeff in p:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        if isinstance(mag, Fraction):
            if mag != 1 or not any(mono):
                factors.append(dsl.IntLit(mag.numerator) if mag.denominator == 1
                               else dsl.RatLit(mag.numerator, mag.denominator))
        else:
            if mag != 1 or not any(mono):
                factors.append(dsl.IntLit(mag))
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(dsl.NameRef(name))
            elif e > 1:
                factors.append(dsl.Pow(dsl.NameRef(name), e))
        term = factors[0]
        for f in factors[1:]:
            term = dsl.BinOp("*", term, f)
        if neg:
            term = dsl.Neg(term) if expr is None else term
        if expr is None:
            expr = term
        else:
            expr = dsl.BinOp("-" if neg else "+", expr, term)
    return expr


def reference_print(payload, variables) -> str:
    """The text of a payload (an int, or terms in any order)."""
    if isinstance(payload, int):
        return str(payload)
    return dsl.print_expr(reference_poly_to_expr(payload, variables))


def reference_element_to_str(e) -> str:
    return reference_print(e.payload, e.ring.variables)


def reference_shape_fault(node):
    """Why node is not shaped as the canonical printer writes elements,
    or None.  The printer writes a sum of monomials, so every ^ (outside
    D(...)) has a variable name as its base, and no * has a sum (+ or -)
    under both of its operands.

    One post-order walk without recursion: a binary node is followed on
    the stack by its operator, which combines its operands' entries in
    `sums` (whether a sum lies under each) into its own.
    """
    todo, sums = [node], []
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is str:
            right = sums.pop()
            if node == "*":
                if right and sums[-1]:
                    return "multiplies two sums"
                sums[-1] = sums[-1] or right
            elif node == "+" or node == "-":
                sums[-1] = True
            else:
                sums[-1] = sums[-1] or right
        elif kind is dsl.BinOp:
            todo.append(node.op)
            todo.append(node.right)
            todo.append(node.left)
        elif kind is dsl.Neg:
            todo.append(node.arg)
        elif kind is dsl.Pow and type(node.base) is not dsl.NameRef:
            return "raises something other than a variable to a power"
        else:
            sums.append(False)
    return None


def reference_element_from_str(ring, text):
    """Parse, refuse a power of a non-variable or a product of sums,
    then evaluate."""
    node = dsl.parse_expression(text)
    fault = reference_shape_fault(node)
    if fault is not None:
        raise InvalidWitness(f"{text[:40]!r} {fault}")
    return eval_element_expr(ring, node)
