"""Seeded workload generators with known answers.

Each generator returns a list of scripts; a script is a name and a list
of Stmt records.  A Stmt holds the statement text and the answer it must
get, which follows from how the statement was built:

- an ideal contains a^k because one generator is a^k minus a multiple of
  another generator;
- an element is outside a radical because every generator vanishes at a
  chosen point where the element does not;
- [f, g, 1 - f*h] is unimodular, and a shared non-constant factor makes
  a cover that is not;
- glue families are restrictions of a known element;
- point counts, point memberships and evaluations are brute-forced here.

Every script draws its own fresh ideals, so zkit's caches can only hit
inside one script, as they would for separate CLI calls.  The mix of
statement kinds per script is fixed; the seed picks the coefficients,
points and exponents, so the amount of work barely moves between seeds.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import poly as P

FP = 32003
NAMES = ("x", "y", "z", "w")


@dataclass
class Stmt:
    src: str
    expect: dict = field(default_factory=lambda: {"status": "ok"})


@dataclass
class Script:
    name: str
    stmts: list

    def source(self) -> str:
        return "".join(s.src + ";\n" for s in self.stmts)


def _s(p, names, mod=None):
    """Script text for a polynomial; over Fp print small signed values."""
    if mod is not None:
        p = {m: (c if c <= mod // 2 else c - mod) for m, c in p.items()}
    return P.to_str(p, names)


class _Draw:
    """Polynomials for one script slot.

    Monomial supports and coefficient sizes come from the slot (the same
    for every seed); signs, points and, over Fp, coefficient values come
    from the run seed.  Generic coefficients on a fixed support give
    Buchberger the same amount of work whatever the seed, so the seed
    changes the inputs but not how much there is to do.
    """

    def __init__(self, slot, rng, n, mod):
        self.shape = random.Random(slot)
        self.rng = rng
        self.n = n
        self.mod = mod

    def coeff(self):
        c = self.shape.randint(1, 3) * self.rng.choice((1, -1))
        return c if self.mod is None else c * self.rng.randrange(1, 1000)

    def poly(self, degree, nterms):
        monos = P.support(self.shape, self.n, degree, nterms)
        return P.norm({m: self.coeff() for m in monos}, self.mod)

    def point(self):
        if self.mod is None:
            return tuple(self.shape.randint(1, 2) * self.rng.choice((1, -1))
                         for _ in range(self.n))
        return tuple(self.rng.randrange(self.mod) for _ in range(self.n))

    def at(self, pt, degree, nterms):
        """A polynomial vanishing at pt."""
        return P.vanishing_at(self.poly(degree, nterms), pt, self.mod)

    def off(self, pt):
        """A linear polynomial that does not vanish at pt."""
        return P.add(self.at(pt, 1, 3), P.const(self.coeff(), self.n),
                     self.mod)


# ---------------------------------------------------------------------------
# ideal-decide

_CYCLIC4 = [
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)],
    [(1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)],
    [(1, 1, 1, 1), (0, 0, 0, 0)],
]
_KATSURA3 = [
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)],
    [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 0, 0, 0)],
    [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0)],
    [(0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0)],
]


def _cyclic4(draw):
    """cyclic-4 with variables scaled x_i -> s_i*x_i.  The curve
    (t, 1/t, -t, -1/t) lies on cyclic-4, so the scaled system vanishes at
    (t/s1, 1/(t*s2), -t/s3, -1/(t*s4))."""
    s = [draw.coeff() for _ in range(4)]
    t = draw.coeff() * 2
    mod = draw.mod
    if mod is None:
        point = (Fraction(t, s[0]), Fraction(1, t * s[1]),
                 Fraction(-t, s[2]), Fraction(-1, t * s[3]))
    else:
        s = [v % mod for v in s]
        inv = [pow(v, -1, mod) for v in s]
        ti = pow(t % mod, -1, mod)
        point = (t * inv[0] % mod, ti * inv[1] % mod, -t * inv[2] % mod,
                 -ti * inv[3] % mod)
    gens = []
    for monos in _CYCLIC4:
        g = {}
        for m in monos:
            c = 1
            for si, e in zip(s, m):
                c *= si ** e
            g[m] = c if any(m) else -1  # abcd - 1 keeps its constant
        gens.append(P.norm(g, mod))
    return gens, point


def _katsura3(draw):
    """katsura-3's monomial support with seeded coefficients, shifted so
    that every generator vanishes at a seeded point."""
    point = draw.point()
    gens = [P.vanishing_at(P.norm({m: draw.coeff() for m in monos}, draw.mod),
                           point, draw.mod) for monos in _KATSURA3]
    return gens, point


def _dense_stmt(draw, kind, tracked, names):
    """radical-member over a cyclic-4 or katsura-3 shaped system.

    tracked: the element is a combination of the generators, so zkit
    runs a full Buchberger with cofactors; otherwise the element is
    nonzero at a common zero, so the Rabinowitsch basis is computed to
    the end without cofactors and the answer is refuted.
    """
    mod = draw.mod
    gens, point = (_cyclic4 if kind == "cyclic4" else _katsura3)(draw)
    ideal = "[" + ", ".join(_s(g, names, mod) for g in gens) + "]"
    if tracked:
        a = P.add(P.mul(gens[0], draw.poly(1, 2), mod),
                  P.mul(gens[1], draw.poly(0, 1), mod), mod)
        return Stmt(f"radical-member {_s(a, names, mod)} in {ideal}",
                    {"status": "ok", "exp_max": 1, "cert": True})
    a = draw.poly(1, 3)
    if P.evaluate(a, point, mod) == 0:
        a = P.add(a, P.const(1, 4), mod)
    return Stmt(f"radical-member {_s(a, names, mod)} in {ideal}",
                {"status": "refuted"})


def _glue_qx(draw, k):
    """glue over Q[x] along k coprime linear factors; the family is the
    restriction of a known element."""
    roots = draw.rng.sample(range(-6, 7), k)
    cover = [P.norm({(1,): 1, (0,): -r}) for r in roots]
    r = draw.poly(2, 3)
    fracs = []
    for f in cover:
        e = draw.shape.randint(0, 2)
        num = P.mul(r, P.power(f, e, 1))
        fracs.append(f"({P.to_str(num, 'x')}) / ({P.to_str(f, 'x')})^{e}")
    items = ", ".join(P.to_str(f, "x") for f in cover)
    return Stmt(f"glue cover [{items}] with [{', '.join(fracs)}]",
                {"status": "ok", "glued": P.to_str(r, "x"),
                 "names": ("x",), "mod": None, "cert": True})


def _ideal_scripts(rng, i):
    """Slot i: radical membership and lattice order in one script,
    unimodularity, covers and gluing in another."""
    mod = None if i % 2 == 0 else FP
    n = 2 + i % 3
    names = NAMES[:n]
    base = "Q" if mod is None else f"Fp({FP})"
    d = _Draw(f"ideal-decide/{i}", rng, n, mod)

    def s(p):
        return _s(p, names, mod)

    def mul(a, b):
        return P.mul(a, b, mod)

    out = [Stmt(f"ring R{i} = {base}[{','.join(names)}]")]
    # radical membership, by construction and refuted at a common zero
    a = d.poly(1, 2)
    g2, g3 = d.poly(2, 3), d.poly(2, 2)
    g1 = P.sub(P.power(a, 2, n, mod), mul(d.poly(1, 2), g2), mod)
    out.append(Stmt(f"radical-member {s(a)} in [{s(g1)}, {s(g2)}, {s(g3)}]",
                    {"status": "ok", "exp_max": 2, "cert": True}))
    pt = d.point()
    gs = [d.at(pt, 2, 3) for _ in range(3)]
    out.append(Stmt(f"radical-member {s(d.off(pt))} in "
                    f"[{', '.join(map(s, gs))}]", {"status": "refuted"}))
    # lattice order and equality
    g1, g2 = d.poly(2, 3), d.poly(2, 3)
    f1 = P.add(mul(d.poly(1, 2), g1), mul(d.poly(1, 2), g2), mod)
    f2 = mul(g1, d.poly(1, 2))
    out.append(Stmt(f"check D({s(f1)}, {s(f2)}) <= D({s(g1)}, {s(g2)})"))
    pt = d.point()
    g1, g2 = d.at(pt, 2, 3), d.at(pt, 2, 3)
    out.append(Stmt(f"check D({s(d.off(pt))}) <= D({s(g1)}, {s(g2)})",
                    {"status": "refuted"}))
    g1, g2 = d.poly(2, 3), d.poly(1, 3)
    f2 = P.add(g2, mul(g1, d.poly(1, 2)), mod)
    out.append(Stmt(f"check D({s(P.power(g1, 2, n, mod))}, {s(f2)}) == "
                    f"D({s(g1)}, {s(g2)})"))
    pt = d.point()
    g1, g2 = d.at(pt, 2, 3), d.at(pt, 1, 3)
    out.append(Stmt(f"check D({s(g1)}, {s(g2)}, {s(d.off(pt))}) == "
                    f"D({s(g1)}, {s(g2)})", {"status": "refuted"}))
    decide = Script(f"ideal-{i:02d}", out)
    # unimodularity and covers, in a script of their own
    out = [Stmt(f"ring R{i} = {base}[{','.join(names)}]")]
    f, g, h = d.poly(2, 3), d.poly(2, 3), d.poly(1, 2)
    u = P.sub(P.const(1, n), mul(f, h), mod)
    out.append(Stmt(f"unimodular [{s(f)}, {s(g)}, {s(u)}]",
                    {"status": "ok", "cert": True}))
    q = P.add(d.poly(1, 2), P.const(1, n), mod)
    items = [mul(q, d.poly(1, 2)) for _ in range(3)]
    out.append(Stmt(f"unimodular [{', '.join(map(s, items))}]",
                    {"status": "refuted"}))
    f, g, h = d.poly(2, 3), d.poly(1, 3), d.poly(1, 2)
    u = P.sub(P.const(1, n), mul(f, h), mod)
    out.append(Stmt(f"cover D({s(f)}, {s(g)}, {s(u)})",
                    {"status": "ok", "n": 3, "whole": True, "cert": True}))
    pt = d.point()
    g1, g2 = d.at(pt, 2, 3), d.at(pt, 1, 2)
    out.append(Stmt(f"cover D({s(g1)}, {s(g2)})",
                    {"status": "ok", "n": 2, "whole": False}))
    # gluing over Q[x]
    qx = _Draw(f"ideal-decide/{i}/glue", rng, 1, None)
    out.append(Stmt(f"ring S{i} = Q[x]"))
    out.append(_glue_qx(qx, 2))
    out.append(_glue_qx(qx, 3))
    return [decide, Script(f"cover-{i:02d}", out)]


IDEAL_SLOTS = 18      # ideal-decide slots, two scripts each


def ideal_decide(seed) -> list:
    """Two scripts per slot, and after each of the first eight slots one
    of the classic systems (cyclic-4 and katsura-3, tracked and
    untracked, over Q and Fp) as a two-statement script of its own."""
    rng = random.Random(f"ideal-decide/{seed}")
    kinds = [(kind, tracked, mod) for kind in ("cyclic4", "katsura3")
             for tracked in (True, False) for mod in (None, FP)]
    out = []
    for i in range(IDEAL_SLOTS):
        out.extend(_ideal_scripts(rng, i))
        if i < len(kinds):
            kind, tracked, mod = kinds[i]
            base = "Q" if mod is None else f"Fp({FP})"
            draw = _Draw(f"ideal-decide/dense/{i}", rng, 4, mod)
            out.append(Script(f"dense-{i:02d}", [
                Stmt(f"ring C{i} = {base}[x,y,z,w]"),
                _dense_stmt(draw, kind, tracked, NAMES)]))
    return out


# ---------------------------------------------------------------------------
# points-glue

PRIMES = (5, 7, 11, 13)


def _relation(rng, p, cubic):
    """A seeded cubic (diagonal plus a mixed term) or quadric over Fp."""
    if cubic:
        monos = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
    else:
        monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]
    rel = {m: rng.randrange(1, p) for m in monos}
    rel[(0, 0, 0)] = rng.randrange(p)
    return P.norm(rel, p)


def _cover_ints(rng, k, n=None):
    """k distinct integers in [2, 40), or residues in [2, n), whose gcd
    (taken together with n) is 1."""
    while True:
        pool = range(2, 40) if n is None else range(2, n)
        items = rng.sample(pool, k)
        if math.gcd(n or 0, *items) == 1:
            return items


def _int_glue(rng, shape, k, top, n=None):
    """glue over Z or Z/n.  The denominator exponents come from the
    script slot (shape), the largest being top, because
    power_certificate's work grows with it."""
    fs = _cover_ints(rng, k, n)
    r = rng.randint(-60, 60) if n is None else rng.randrange(n)
    exps = [top] + [shape.randint(0, top) for _ in fs[1:]]
    shape.shuffle(exps)
    fracs = []
    for f, e in zip(fs, exps):
        num = r * f ** e
        fracs.append(f"{num} / {f}^{e}" if num >= 0 else f"({num}) / {f}^{e}")
    return Stmt(f"glue cover [{', '.join(map(str, fs))}] with "
                f"[{', '.join(fracs)}]",
                {"status": "ok", "glued": str(r), "names": (), "mod": n,
                 "cert": True})


def _points_scripts(rng, i, with_points):
    """The script for slot i, preceded by a separate `points` script over
    the same ring when with_points: enumeration is the tail of this
    workload, and a short script of its own keeps it apart from the
    rest."""
    shape = random.Random(f"points-glue/{i}")
    p = PRIMES[i % len(PRIMES)]
    cubic = (i // len(PRIMES)) % 2 == 0
    names = ("x", "y", "z")
    sols = []
    while not sols:
        rel = _relation(rng, p, cubic)
        sols = [pt for pt in itertools.product(range(p), repeat=3)
                if P.evaluate(rel, pt, p) == 0]
    fp = f"Fp({p})"
    decl = Stmt(f"ring F{i} = {fp}[x,y,z]/({_s(rel, names, p)})")
    scripts = []
    if with_points:
        scripts.append(Script(f"enum-{i:02d}", [decl, Stmt(
            f"points F{i} over {fp}", {"status": "ok", "count": len(sols)})]))
    out = [decl]

    def spec(pt):
        return "{" + ", ".join(f"{v} -> {c}" for v, c in zip(names, pt)) + "}"

    def off_point():
        while True:
            pt = tuple(rng.randrange(p) for _ in range(3))
            if P.evaluate(rel, pt, p):
                return pt

    def rp():
        return P.random_poly(rng, 3, 2, 3, mod=p)

    for _ in range(2):
        pt = rng.choice(sols)
        g1, g2 = rp(), rp()
        if not (P.evaluate(g1, pt, p) or P.evaluate(g2, pt, p)):
            g1 = P.add(g1, P.const(1, 3), p)
        out.append(Stmt(f"member {spec(pt)} in D({_s(g1, names, p)}, "
                        f"{_s(g2, names, p)}) over {fp}",
                        {"status": "ok", "cert": True}))
        g1 = P.vanishing_at(rp(), pt, p)
        g2 = P.vanishing_at(rp(), pt, p)
        out.append(Stmt(f"member {spec(pt)} in D({_s(g1, names, p)}, "
                        f"{_s(g2, names, p)}) over {fp}",
                        {"status": "refuted"}))
        out.append(Stmt(f"member {spec(off_point())} in D({_s(rp(), names, p)})"
                        f" over {fp}", {"status": "refuted"}))
        e = P.random_poly(rng, 3, 3, 4, mod=p)
        out.append(Stmt(f"eval {_s(e, names, p)} at {spec(pt)} over {fp}",
                        {"status": "ok", "value": P.evaluate(e, pt, p),
                         "mod": p}))
        out.append(Stmt(f"eval {_s(e, names, p)} at {spec(off_point())} "
                        f"over {fp}",
                        {"status": "error", "kind": "NotWellDefined"}))
    a, b = rng.sample(range(p), 2)
    out.append(Stmt(f"ring L{i} = {fp}[x]"))
    out.append(Stmt(f"qcqs D(x - {a}) | D(x - {b})",
                    {"status": "ok", "n": 2}))
    # unimodular covers and gluing over Z and Z/n
    n = rng.choice((30, 42, 66, 70, 78, 105))
    for ring, mod in ((f"Z{i} = Z", None), (f"N{i} = Z/{n}", n)):
        out.append(Stmt(f"ring {ring}"))
        items = _cover_ints(rng, 3, mod)
        out.append(Stmt(f"unimodular [{', '.join(map(str, items))}]",
                        {"status": "ok", "cert": True}))
        q = rng.choice((2, 3, 5)) if mod is None else \
            next(d for d in (2, 3, 5, 7, 11, 13) if mod % d == 0)
        bad = [q * rng.randint(1, 6) for _ in range(3)]
        out.append(Stmt(f"unimodular [{', '.join(map(str, bad))}]",
                        {"status": "refuted"}))
        out.append(Stmt(f"cover D({', '.join(map(str, items))})",
                        {"status": "ok", "n": 3, "whole": True,
                         "cert": True}))
        for k, top in ((2, 4), (3, 4), (4, 3)):
            out.append(_int_glue(rng, shape, k, top, mod))
    return scripts + [Script(f"points-{i:02d}", out)]


POINTS_SLOTS = 12     # points-glue slots
POINTS_WITH_ENUM = 8  # the first slots also get a `points` script


def points_glue(seed) -> list:
    rng = random.Random(f"points-glue/{seed}")
    return [sc for i in range(POINTS_SLOTS)
            for sc in _points_scripts(rng, i, i < POINTS_WITH_ENUM)]


# ---------------------------------------------------------------------------
# cert-replay

# Tamper kinds whose wrong verdict is a known open defect: verify zips
# the cover with the family and never compares their lengths, so a
# truncated or emptied family is accepted (ROADMAP item 4).  They are
# counted as failures all the same.
KNOWN_UNSOUND = ("family-truncated", "family-emptied")
TAMPER_SHARE = 3      # every third certificate of a family is tampered
CUT_PER_FAMILY = 2    # glue certificates per family with a cut family


def _plus_one(text):
    return f"({text}) + 1"


def _tamper(rng, cert):
    """A copy with one field edited to an ordinary-sized wrong value.
    Each edit changes a claimed identity by a nonzero ring element (a
    generator, a non-nilpotent cover element or 1), so it must be
    rejected."""
    c = json.loads(json.dumps(cert))
    if c["claim"] == "glue":
        kind = rng.choice(("glued", "family-num", "cover-cofactor"))
        j = rng.randrange(len(c["cover"]))
        if kind == "glued":
            c["glued"] = _plus_one(c["glued"])
        elif kind == "family-num":
            c["family"][j]["num"] = _plus_one(c["family"][j]["num"])
        else:
            c["cover_cofactors"][j] = _plus_one(c["cover_cofactors"][j])
        return kind, c
    gens = c["open"] if c["claim"] == "point" else c["generators"]
    choices = [j for j in range(len(c["cofactors"]))
               if c["claim"] == "point" or gens[j] != "0"]
    j = rng.choice(choices)
    c["cofactors"][j] = _plus_one(c["cofactors"][j])
    return "cofactor", c


def _cut_family(rng, cert, emptied):
    c = json.loads(json.dumps(cert))
    if emptied:
        c["family"] = []
        c["glued"] = _plus_one(c["glued"])
        return "family-emptied", c
    c["family"] = c["family"][:rng.randrange(1, len(c["family"]))]
    return "family-truncated", c


def _family(cert):
    """Claim and ring shape: certificates of one family cost about the
    same to verify."""
    ring = cert.get("ring") or cert["domain"]
    return (cert["claim"], ring["kind"], str(ring.get("base")),
            len(ring.get("variables", ())))


def cert_replay(seed, certs):
    """Report files for the verify workload.

    certs: (certificate, valid) pairs emitted by the decision workloads,
    valid being the benchmark's own check of the certificate.  Within
    each family (claim and ring shape), every TAMPER_SHARE-th certificate
    (in a seeded order) gets a tampered copy, and CUT_PER_FAMILY glue
    certificates of each family get a truncated and an emptied family
    list.  Files hold one or two certificates of one family where
    possible, so the mix of work per file is the same for every seed.
    Returns (files, expected, kinds): files is a list of reports, each a
    list of (id, certificate); expected maps an id to whether it must be
    accepted; kinds maps an id to its edit.
    """
    rng = random.Random(f"cert-replay/{seed}")
    families = {}
    for cert, valid in certs:
        families.setdefault(_family(cert), []).append((cert, valid))
    items = []
    for family in sorted(families):
        group = families[family]
        rng.shuffle(group)
        block = []
        for pos, (cert, valid) in enumerate(group):
            block.append(("original", cert, valid))
            if pos % TAMPER_SHARE == 0:
                block.append(_tamper(rng, cert) + (False,))
        if family[0] == "glue":
            for cert, _ in group[:CUT_PER_FAMILY]:
                for emptied in (False, True):
                    block.append(_cut_family(rng, cert, emptied) + (False,))
        rng.shuffle(block)
        items.extend(block)
    files, expected, kinds = [], {}, {}
    i = 0
    while i < len(items):
        size = 1 + len(files) % 2
        group = []
        for kind, cert, ok in items[i:i + size]:
            cid = f"c{len(expected):04d}"
            expected[cid] = ok
            kinds[cid] = kind
            group.append((cid, cert))
        files.append(group)
        i += size
    return files, expected, kinds
