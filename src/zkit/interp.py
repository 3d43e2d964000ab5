"""Batch execution of parsed scripts.

Statements run in order against an environment of named rings and
bindings; the most recently declared ring is the context for expression
evaluation.  Each command yields one result record (echoed command,
status, JSON result, optional certificate, elapsed milliseconds) and
failures are contained per statement unless fail_fast is set.

Status semantics: "ok" means the command's claim holds, "refuted" means
the decision procedure answered no (the result carries the failing
sub-check), and "error" means the command could not be decided at all
(bad names, type errors, resource caps).
"""
from __future__ import annotations

import json
import signal
import threading
import time
from pathlib import Path

from . import dsl, serialize
from .errors import (IncompatibleFamily, InvalidWitness, NotUnimodular,
                     NotWellDefined, ResourceExceeded, TypeMismatch,
                     UnknownName, UnsupportedBase, ZkitError)
from .gluing import glue_element, make_cover, make_family
from .ideals import fin_gen_ideal, radical_witness, unimodular_certificate
from .lattice import ZarElt, zar_elt, zar_eq, zar_join, zar_leq, zar_meet
from .limits import current_limits, limits
from .localization import localize
from .poly import PrimeField, Rationals
from .records import field, record
from .rings import (IntegerRing, QuotientRing, ResidueRing, RingElement,
                    hom_apply, make_hom, quotient_by)
from .schemes import (AffineScheme, CompactOpen, affine_cover,
                      point_membership, points_over, qcqs_certificate,
                      whole_scheme)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "results"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["cmd", "status", "result", "certificate", "ms"],
                "additionalProperties": False,
                "properties": {
                    "cmd": {"type": "string"},
                    "status": {"enum": ["ok", "refuted", "error"]},
                    "result": {},
                    "certificate": {},
                    "ms": {"type": "number"},
                },
            },
        },
    },
}


@record
class Options:
    seed: int = 0
    fail_fast: bool = False
    max_pairs: int = None
    max_exponent: int = None
    timeout_ms: int = None
    base_dir: Path = None


@record
class CommandResult:
    cmd: str
    status: str                  # ok | refuted | error
    result: object = None
    certificate: object = None
    ms: float = 0.0

    def to_json(self) -> dict:
        return {"cmd": self.cmd, "status": self.status, "result": self.result,
                "certificate": self.certificate, "ms": round(self.ms, 3)}


@record
class Report:
    results: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"version": 1, "results": [r.to_json() for r in self.results]}

    @property
    def exit_code(self) -> int:
        if any(r.status == "error" for r in self.results):
            return 2
        if any(r.status == "refuted" for r in self.results):
            return 1
        return 0


@record
class _Binding:
    kind: str      # elem | latt | ideal
    value: object


class _Env:
    def __init__(self):
        self.rings = {}
        self.bindings = {}
        self.current = None

    def current_ring(self):
        if self.current is None:
            raise UnknownName("no ring declared yet")
        return self.rings[self.current]

    def ring(self, name: str):
        if name not in self.rings:
            raise UnknownName(f"unknown ring {name!r}")
        return self.rings[name]


class _Timeout(ZkitError):
    pass


def _build_ring(expr: dsl.RingExpr, env: _Env):
    if isinstance(expr, dsl.RingName):
        return env.ring(expr.name)
    if expr.kind == "Z":
        return IntegerRing()
    if expr.kind == "Zmod":
        return ResidueRing(expr.modulus)
    base = Rationals() if expr.kind == "Q" else PrimeField(expr.modulus)
    free = QuotientRing(base, expr.variables)
    return quotient_by(free, [serialize.eval_element_expr(free, r)
                              for r in expr.relations])


_ELEMENT_NODES = (dsl.IntLit, dsl.RatLit, dsl.NameRef, dsl.Neg, dsl.Chain,
                  dsl.Pow)


def _eval(env: _Env, ring, node):
    """Evaluate an expression to ('elem', e) or ('latt', u).

    Element arithmetic is serialize.eval_element_expr's, with bound
    names as its leaves; a bare name gives its binding as it is.
    """
    if isinstance(node, dsl.NameRef) and node.name not in ring.variables:
        if node.name in env.bindings:
            b = env.bindings[node.name]
            return b.kind, b.value
        raise UnknownName(f"unknown name {node.name!r}")
    if isinstance(node, dsl.Chain) and node.ops[0] in ("|", "&"):
        op = node.ops[0]
        ltag, lv = _eval(env, ring, node.args[0])
        for arg in node.args[1:]:
            rtag, rv = _eval(env, ring, arg)
            if ltag != "latt" or rtag != "latt":
                raise TypeMismatch(f"{op!r} applies to lattice elements")
            lv = (zar_join if op == "|" else zar_meet)(lv, rv)
        return "latt", lv
    if isinstance(node, dsl.DLit):
        elems = []
        for arg in node.args:
            tag, v = _eval(env, ring, arg)
            if tag != "elem":
                raise TypeMismatch("D(...) takes ring elements")
            elems.append(v)
        owner = elems[0].ring if elems else ring
        return "latt", zar_elt(owner, elems)
    if not isinstance(node, _ELEMENT_NODES):
        raise TypeMismatch(f"cannot evaluate {node!r}")
    return "elem", serialize.eval_element_expr(
        ring, node, lambda sub: _eval_elem(env, ring, sub))


def _eval_elem(env, ring, node) -> RingElement:
    tag, v = _eval(env, ring, node)
    if tag != "elem":
        raise TypeMismatch("expected a ring element")
    return v


def _eval_latt(env, ring, node) -> ZarElt:
    tag, v = _eval(env, ring, node)
    if tag == "latt":
        return v
    raise TypeMismatch("expected a lattice element")


def _eval_ideal(env, ring, node):
    if isinstance(node, dsl.BracketList):
        return fin_gen_ideal(ring, [_eval_elem(env, ring, e)
                                    for e in node.items])
    if isinstance(node, dsl.NameRef) and node.name in env.bindings:
        b = env.bindings[node.name]
        if b.kind != "ideal":
            raise TypeMismatch(f"{node.name!r} is not an ideal")
        return b.value
    raise TypeMismatch("expected an ideal (bracket list or bound name)")


def _hom_from_spec(env, domain, codomain, spec: dsl.HomSpec):
    """Build a verified hom domain -> codomain from a {x -> e} spec;
    image expressions evaluate over the codomain."""
    assigned = {name: expr for name, expr in spec.assignments}
    expected = list(domain.variables)
    if sorted(assigned) != sorted(expected):
        raise TypeMismatch(
            f"hom spec names {sorted(assigned)} do not match the domain "
            f"variables {sorted(expected)}")
    images = tuple(_eval_elem(env, codomain, assigned[v]) for v in expected)
    return make_hom(domain, codomain, images)


# ---------------------------------------------------------------------------
# command execution

def _point_json(pt) -> dict:
    phi = pt.hom
    return {v: str(i)
            for v, i in zip(phi.domain.variables, phi.generator_images)}


def _execute(stmt, env: _Env, options: Options):
    if isinstance(stmt, dsl.RingDecl):
        ring = _build_ring(stmt.ring, env)
        env.rings[stmt.name] = ring
        env.current = stmt.name
        return "ok", {"ring": str(ring)}, None
    if isinstance(stmt, dsl.Bind):
        ring = env.current_ring()
        if stmt.kind == "elem":
            value = _eval_elem(env, ring, stmt.value)
            result = {"elem": str(value)}
        elif stmt.kind == "latt":
            value = _eval_latt(env, ring, stmt.value)
            result = {"latt": str(value)}
        else:
            value = _eval_ideal(env, ring, stmt.value)
            result = {"ideal": [str(g) for g in value.generators]}
        env.bindings[stmt.name] = _Binding(stmt.kind, value)
        return "ok", result, None
    if isinstance(stmt, dsl.CheckCmd):
        ring = env.current_ring()
        ltag, lv = _eval(env, ring, stmt.left)
        rtag, rv = _eval(env, ring, stmt.right)
        if ltag == "latt" and rtag == "latt":
            holds = (zar_eq if stmt.op == "==" else zar_leq)(lv, rv)
        elif ltag == "elem" and rtag == "elem":
            if stmt.op == "<=":
                raise TypeMismatch("'<=' compares lattice elements")
            holds = lv == rv
        else:
            raise TypeMismatch("cannot compare a ring element with a "
                               "lattice element")
        return ("ok" if holds else "refuted"), {"holds": holds}, None
    if isinstance(stmt, dsl.UnimodularCmd):
        ring = env.current_ring()
        elems = [_eval_elem(env, ring, e) for e in stmt.items]
        cert = unimodular_certificate(elems)
        if cert is None:
            return "refuted", {"unimodular": False,
                               "reason": "1 is not in the ideal"}, None
        return "ok", {"unimodular": True}, serialize.bezout_to_json(cert)
    if isinstance(stmt, dsl.RadicalMemberCmd):
        ring = env.current_ring()
        a = _eval_elem(env, ring, stmt.element)
        ideal = _eval_ideal(env, ring, stmt.ideal)
        # a positive answer carries its witness: past the exponent cap
        # the statement is radical_witness's ResourceExceeded record
        witness = radical_witness(a, ideal)
        if witness is None:
            return "refuted", {"member": False}, None
        exponent, cofs = witness
        cert = serialize.membership_to_json(ideal.ring, a, ideal.generators,
                                            cofs, exponent)
        return "ok", {"member": True, "exponent": exponent}, cert
    if isinstance(stmt, dsl.LocalizeCmd):
        ring = env.ring(stmt.ring_name)
        f = _eval_elem(env, ring, stmt.at)
        L = localize(ring, f)
        try:
            pres = serialize.ring_to_json(L.presentation)
        except UnsupportedBase:
            pres = None
        return "ok", {"localization": str(L), "presentation": pres}, None
    if isinstance(stmt, dsl.GlueCmd):
        ring = env.current_ring()
        elems = [_eval_elem(env, ring, e) for e in stmt.cover_items]
        try:
            cover = make_cover(ring, elems)
        except NotUnimodular as exc:
            return "refuted", {"glued": None, "reason": str(exc)}, None
        if len(stmt.fractions) != len(cover):
            raise TypeMismatch("family size does not match the cover")
        cap = current_limits().max_exponent
        top = max(lit.exp for lit in stmt.fractions)
        if top > cap:  # verify refuses certificates with such exponents
            raise ResourceExceeded(
                f"glue: exponent {top} exceeds max_exponent={cap}")
        fracs = []
        for f, lit in zip(cover.elements, stmt.fractions):
            den = _eval_elem(env, ring, lit.den)
            if den != f:
                raise TypeMismatch(
                    f"denominator {den} is not the cover element {f}")
            num = _eval_elem(env, ring, lit.num)
            fracs.append(localize(ring, f).fraction(num, lit.exp))
        try:
            fam = make_family(cover, tuple(fracs))
            glued = glue_element(fam)
        except IncompatibleFamily as exc:
            return "refuted", {"glued": None, "reason": str(exc)}, None
        cert = serialize.glue_to_json(cover, fam.elements, fam.witnesses,
                                      glued)
        return "ok", {"glued": str(glued)}, cert
    if isinstance(stmt, dsl.PointsCmd):
        ring = env.ring(stmt.ring_name)
        codomain = _build_ring(stmt.over, env)
        pts = points_over(whole_scheme(ring), codomain)
        return "ok", {"count": len(pts),
                      "points": [_point_json(p) for p in pts]}, None
    if isinstance(stmt, dsl.CoverCmd):
        ring = env.current_ring()
        u = _eval_latt(env, ring, stmt.latt)
        cov = affine_cover(_compact_open(u))
        cert = (serialize.bezout_to_json(cov.top_certificate)
                if cov.top_certificate is not None else None)
        return "ok", {"n": cov.n,
                      "opens": [str(o.element) for o in cov.opens],
                      "join_matches": cov.join_matches,
                      "covers_whole_scheme": cov.top_certificate is not None,
                      "degenerate": cov.degenerate}, cert
    if isinstance(stmt, dsl.MemberCmd):
        ring = env.current_ring()
        u = _eval_latt(env, ring, stmt.latt)
        domain = u.ring
        codomain = (_build_ring(stmt.over, env) if stmt.over is not None
                    else ring)
        try:
            phi = _hom_from_spec(env, domain, codomain, stmt.homspec)
        except NotWellDefined as exc:
            return "refuted", {"member": False,
                               "reason": f"not a point: {exc}"}, None
        pt = point_membership(_compact_open(u), phi)
        if pt is None:
            return "refuted", {"member": False,
                               "reason": "pulled-back open is not top"}, None
        return "ok", {"member": True}, serialize.point_to_json(pt)
    if isinstance(stmt, dsl.EvalCmd):
        ring = env.current_ring()
        r = _eval_elem(env, ring, stmt.expr)
        codomain = (_build_ring(stmt.over, env) if stmt.over is not None
                    else ring)
        phi = _hom_from_spec(env, r.ring, codomain, stmt.homspec)
        value = hom_apply(phi, r)
        return "ok", {"value": str(value)}, None
    if isinstance(stmt, dsl.QcqsCmd):
        ring = env.current_ring()
        u = _eval_latt(env, ring, stmt.latt)
        report = qcqs_certificate(_compact_open(u), seed=options.seed)
        cert = (serialize.bezout_to_json(report.cover.top_certificate)
                if report.cover.top_certificate is not None else None)
        result = {
            "open": str(u),
            "cover": {"n": report.cover.n,
                      "opens": [str(o.element) for o in report.cover.opens],
                      "join_matches": report.cover.join_matches},
            "locality_trials": [
                {"ring": t.ring, "cover": list(t.cover_elements),
                 "point": t.point, "ok": t.ok} for t in report.trials],
            "note": report.note,
            "ok": report.ok,
        }
        return ("ok" if report.ok else "refuted"), result, cert
    if isinstance(stmt, dsl.VerifyCmd):
        path = Path(stmt.path)
        if options.base_dir is not None and not path.is_absolute():
            path = options.base_dir / path
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise UnknownName(f"cannot read report {stmt.path!r}: {exc}")
        except (ValueError, RecursionError) as exc:
            # undecodable bytes, invalid JSON, an integer past Python's
            # digit limit, or nesting past the recursion limit: the input
            # is at fault, not a name
            raise InvalidWitness(f"report {stmt.path!r} is not readable "
                                 f"JSON: {exc}")
        entries = data.get("results", []) if type(data) is dict else None
        if type(entries) is not list or any(type(e) is not dict
                                            for e in entries):
            raise InvalidWitness(f"report {stmt.path!r} is not an object "
                                 "with a list of result objects")
        failures = []
        checked = 0
        for entry in entries:
            cert = entry.get("certificate")
            if cert is None:
                continue
            checked += 1
            ok, detail = serialize.verify_certificate(cert)
            if not ok:
                failures.append({"cmd": entry.get("cmd"), "detail": detail})
        result = {"checked": checked, "passed": checked - len(failures),
                  "failures": failures}
        return ("ok" if not failures else "refuted"), result, None
    raise TypeMismatch(f"cannot execute {stmt!r}")


def _compact_open(u: ZarElt) -> CompactOpen:
    return CompactOpen(AffineScheme(u.ring), u)


# ---------------------------------------------------------------------------
# driver

class _AlarmGuard:
    """SIGALRM-based statement timeout; only usable on the main thread.

    The handler raises _Timeout wherever Python happens to run it.  Where
    that exception is swallowed (inside a gc callback it is only printed
    as unraisable), the flag it sets makes the block raise _Timeout on
    exit all the same.
    """

    def __init__(self, timeout_ms):
        self.timeout_ms = timeout_ms
        self.usable = (timeout_ms and hasattr(signal, "setitimer")
                       and threading.current_thread()
                       is threading.main_thread())
        self.message = f"statement exceeded {timeout_ms} ms"
        self.fired = False

    def _handler(self, signum, frame):
        self.fired = True
        raise _Timeout(self.message)

    def __enter__(self):
        if self.usable:
            self._old = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.timeout_ms / 1000.0)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.usable:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
            if self.fired and exc_type is None:
                raise _Timeout(self.message)
        return False


def run_script(script: dsl.Script, options: Options = None) -> Report:
    options = options or Options()
    overrides = {}
    if options.max_pairs is not None:
        overrides["max_pairs"] = options.max_pairs
    if options.max_exponent is not None:
        overrides["max_exponent"] = options.max_exponent
    env = _Env()
    report = Report()
    with limits(**overrides):
        for stmt in script.statements:
            echo = dsl.print_statement(stmt)
            start = time.perf_counter()
            try:
                with _AlarmGuard(options.timeout_ms):
                    status, result, cert = _execute(stmt, env, options)
            except ZkitError as exc:
                status = "error"
                result = {"kind": exc.kind, "message": str(exc)}
                cert = None
            ms = (time.perf_counter() - start) * 1000.0
            report.results.append(CommandResult(echo, status, result, cert, ms))
            if options.fail_fast and status != "ok":
                break
    return report


def run_source(source: str, options: Options = None) -> Report:
    return run_script(dsl.parse(source), options)
