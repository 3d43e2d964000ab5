"""Small polynomial toolkit owned by the benchmark.

The generators build every ideal, cover and family from polynomials
they hold themselves, so the expected verdict of each statement follows
from its construction.  The same module parses the element strings that
zkit prints and evaluates them, which lets the checker test certificate
identities without asking zkit.

A polynomial is a dict mapping exponent tuples to integer coefficients;
`mod` is None over Q and the modulus over Fp, Z/n.
"""
from __future__ import annotations

import re
from fractions import Fraction


def norm(p: dict, mod=None) -> dict:
    if mod is None:
        return {m: c for m, c in p.items() if c}
    return {m: c % mod for m, c in p.items() if c % mod}


def const(c, nvars: int) -> dict:
    return {(0,) * nvars: c} if c else {}


def add(a: dict, b: dict, mod=None) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return norm(out, mod)


def scale(a: dict, k, mod=None) -> dict:
    return norm({m: c * k for m, c in a.items()}, mod)


def sub(a: dict, b: dict, mod=None) -> dict:
    return add(a, scale(b, -1), mod)


def mul(a: dict, b: dict, mod=None) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return norm(out, mod)


def power(a: dict, k: int, nvars: int, mod=None) -> dict:
    out = const(1, nvars)
    for _ in range(k):
        out = mul(out, a, mod)
    return out


def evaluate(a: dict, point, mod=None):
    total = 0
    for m, c in a.items():
        term = c
        for x, e in zip(point, m):
            term *= x ** e
        total += term
    return total % mod if mod is not None else total


def to_str(a: dict, names) -> str:
    """Script syntax for a polynomial, highest degree first."""
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=lambda m: (-sum(m), [-e for e in m])):
        c = a[m]
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, m) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else [])
                        + factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def support(rng, nvars: int, degree: int, nterms: int) -> list:
    """nterms distinct monomials of total degree <= degree, the first of
    exactly that degree."""
    out = []
    while len(out) < nterms:
        d = degree if not out else rng.randint(0, degree)
        m = [0] * nvars
        for _ in range(d):
            m[rng.randrange(nvars)] += 1
        if tuple(m) not in out:
            out.append(tuple(m))
    return out


def random_poly(rng, nvars: int, degree: int, nterms: int, lo=-5, hi=5,
                mod=None) -> dict:
    """Random nonzero coefficients on a random support."""
    return fill(rng, support(rng, nvars, degree, nterms), lo, hi, mod)


def fill(rng, monos, lo=-5, hi=5, mod=None) -> dict:
    """Random nonzero coefficients in [lo, hi] on the given monomials."""
    out = {}
    for m in monos:
        c = 0
        while c == 0:
            c = rng.randint(lo, hi)
        out[m] = c
    return norm(out, mod)


def vanishing_at(p: dict, point, mod=None) -> dict:
    """p shifted by a constant so that it vanishes at point."""
    nvars = len(point)
    return sub(p, const(evaluate(p, point, mod), nvars), mod)


# ---------------------------------------------------------------------------
# reading zkit's printed elements back

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


class _Reader:
    """Recursive-descent evaluator for element strings such as
    `-3*x^2 + (1/2)*y - 4`, over exact rationals or integers mod n."""

    def __init__(self, text, env, mod):
        self.toks = [t for t in _TOKEN.findall(text) if any(t)]
        self.i = 0
        self.env = env
        self.mod = mod

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("", "", "")

    def take(self, sym=None):
        tok = self.peek()
        if sym is not None and tok[2] != sym:
            raise ValueError(f"expected {sym!r}, found {tok!r}")
        self.i += 1
        return tok

    def fix(self, v):
        if self.mod is None:
            return v
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, self.mod) % self.mod
        return v % self.mod

    def expr(self):
        v = self.term()
        while self.peek()[2] in ("+", "-"):
            op = self.take()[2]
            w = self.term()
            v = self.fix(v + w if op == "+" else v - w)
        return v

    def term(self):
        v = self.unary()
        while self.peek()[2] == "*":
            self.take()
            v = self.fix(v * self.unary())
        return v

    def unary(self):
        if self.peek()[2] == "-":
            self.take()
            return self.fix(-self.unary())
        v = self.atom()
        if self.peek()[2] == "^":
            self.take()
            v = self.fix(v ** int(self.take()[0]))
        return v

    def atom(self):
        num, name, sym = self.take()
        if num:
            if self.peek()[2] == "/" and self.toks[self.i + 1][0]:
                self.take()
                return self.fix(Fraction(int(num), int(self.take()[0])))
            return self.fix(int(num))
        if name:
            return self.env[name]
        if sym == "(":
            v = self.expr()
            self.take(")")
            return v
        raise ValueError(f"unexpected token {sym!r}")


def read(text: str, env=None, mod=None):
    """Value of an element string at the variable values in env."""
    r = _Reader(text, env or {}, mod)
    v = r.expr()
    if r.i != len(r.toks):
        raise ValueError(f"trailing input in {text!r}")
    return v
