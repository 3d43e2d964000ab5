"""Known-answer gate.

check_statement compares one report entry with the answer its statement
was built to have (see gen.py).  check_certificate re-checks a
certificate by plain evaluation: both sides of the claimed identity are
evaluated at seeded random points with exact rationals or modular
integers.  Nothing here asks zkit for an answer.
"""
from __future__ import annotations

import random

from . import poly as P


def _ring(data):
    """(variable names, modulus or None, relations) of a ring's JSON."""
    kind = data["kind"]
    if kind == "Z":
        return (), None, []
    if kind == "Zmod":
        return (), data["n"], []
    mod = None if data["base"] == "Q" else data["base"]["Fp"]
    return tuple(data["variables"]), mod, data["relations"]


def _points(names, mod, count=2):
    rng = random.Random(",".join(names) + str(mod))
    if mod is None:
        return [{n: rng.randint(-10**6, 10**6) for n in names}
                for _ in range(count)]
    return [{n: rng.randrange(mod) for n in names} for _ in range(count)]


def _equal(lhs, rhs, names, mod):
    """lhs(env) == rhs(env) at the seeded points; each side maps an
    environment to a value."""
    for env in _points(names, mod):
        a, b = lhs(env), rhs(env)
        if mod is not None:
            a, b = a % mod, b % mod
        if a != b:
            return False
    return True


def _combination(cofs, gens, mod):
    def value(env):
        return sum(P.read(c, env, mod) * P.read(g, env, mod)
                   for c, g in zip(cofs, gens))
    return value


def check_certificate(cert) -> str | None:
    """None when the certificate's identity holds, else the reason."""
    if cert is None:
        return "no certificate"
    claim = cert.get("claim")
    if claim == "point":
        return _check_point(cert)
    names, mod, relations = _ring(cert["ring"])
    if relations:
        return None  # identities hold modulo relations; not re-checked
    if claim == "bezout":
        if len(cert["cofactors"]) != len(cert["generators"]):
            return "cofactor count differs from generator count"
        ok = _equal(_combination(cert["cofactors"], cert["generators"], mod),
                    lambda env: 1, names, mod)
        return None if ok else "sum(cofactor*generator) != 1"
    if claim == "radical-membership":
        k = cert["exponent"]
        ok = _equal(_combination(cert["cofactors"], cert["generators"], mod),
                    lambda env: P.read(cert["element"], env, mod) ** k,
                    names, mod)
        return None if ok else f"sum(cofactor*generator) != element^{k}"
    if claim == "glue":
        if len(cert["family"]) != len(cert["cover"]):
            return "family length differs from cover length"
        if not _equal(_combination(cert["cover_cofactors"], cert["cover"],
                                   mod), lambda env: 1, names, mod):
            return "cover certificate does not sum to 1"
        for fr in cert["family"]:
            if not _equal(lambda env: P.read(fr["num"], env, mod),
                          lambda env: P.read(cert["glued"], env, mod)
                          * P.read(fr["den"], env, mod) ** fr["exp"],
                          names, mod):
                return f"component {fr['num']} does not restrict the glued element"
        return None
    return f"unexpected claim {claim!r}"


def _check_point(cert) -> str | None:
    names, _, relations = _ring(cert["domain"])
    _, p, _ = _ring(cert["codomain"])
    env = {n: P.read(v, {}, p) for n, v in zip(names, cert["images"])}
    if any(P.read(r, env, p) for r in relations):
        return "images do not satisfy the relations"
    values = sorted({P.read(g, env, p) for g in cert["open"]} - {0})
    cofs = [P.read(c, {}, p) for c in cert["cofactors"]]
    if len(cofs) != len(values):
        return "cofactor count differs from the pulled-back open"
    if sum(c * v for c, v in zip(cofs, values)) % p != 1:
        return "pulled-back open does not sum to 1"
    return None


def check_statement(expect, entry) -> str | None:
    """None when the entry matches its known answer, else the reason.
    Certificates are checked separately, by check_certificate."""
    status, res = entry["status"], entry["result"]
    if status != expect["status"]:
        return f"status {status}, expected {expect['status']}: {str(res)[:160]}"
    if "kind" in expect and res.get("kind") != expect["kind"]:
        return f"error kind {res.get('kind')}, expected {expect['kind']}"
    if "exp_max" in expect:
        e = res.get("exponent")
        if e is None or not 1 <= e <= expect["exp_max"]:
            return f"exponent {e}, expected 1..{expect['exp_max']}"
    if "count" in expect and res["count"] != expect["count"]:
        return f"{res['count']} points, expected {expect['count']}"
    if "n" in expect:
        n = res["cover"]["n"] if "cover" in res else res["n"]
        if n != expect["n"]:
            return f"cover of {n} opens, expected {expect['n']}"
    if "whole" in expect and res["covers_whole_scheme"] != expect["whole"]:
        return f"covers_whole_scheme is {res['covers_whole_scheme']}"
    if "glued" in expect:
        names, mod = tuple(expect["names"]), expect["mod"]
        if not _equal(lambda env: P.read(res["glued"], env, mod),
                      lambda env: P.read(expect["glued"], env, mod),
                      names, mod):
            return f"glued {res['glued']}, expected {expect['glued']}"
    if "value" in expect:
        if P.read(res["value"], {}, expect["mod"]) != expect["value"]:
            return f"value {res['value']}, expected {expect['value']}"
    return None


def check_verify(files, entry, expected) -> list:
    """Per-certificate verdicts of one verify statement.

    files: the certificate ids in the report it reads; expected maps an
    id to True (must be accepted) or False (must be rejected).  Returns
    (id, reason) for every certificate whose verdict is wrong.
    """
    res = entry["result"]
    if entry["status"] not in ("ok", "refuted") or "failures" not in res:
        return [(cid, f"verify {entry['status']}: {str(res)[:120]}")
                for cid in files]
    rejected = {f["cmd"] for f in res["failures"]}
    wrong = []
    for cid in files:
        accepted = cid not in rejected
        if accepted != expected[cid]:
            wrong.append((cid, "accepted" if accepted else "rejected"))
    if res["checked"] != len(files):
        wrong.extend((cid, f"checked {res['checked']} of {len(files)}")
                     for cid in files)
    return wrong
