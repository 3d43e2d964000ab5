"""Span wrappers installed from outside zkit on its public functions.

zkit imports names with `from .x import y`, so a function is reachable
through every module that imported it; install() replaces each binding
that is the original function object.  Hot leaf arithmetic (p_mul,
ring_arith, normalize) is left alone.

Spans are kept in memory as parallel lists (name, start, end, parent,
statement id) and written once, at the end of the run.  A statement id
advances each time run_script echoes a statement, which it does once per
statement just before executing it.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute, span name); buchberger and groebner get their own
# wrappers below because their span names depend on the call
SPANS = [
    ("poly", "p_divmod", "poly.p_divmod"),
    ("poly", "normal_form", "poly.normal_form"),
    ("ideals", "radical_member", "ideals.radical_member"),
    ("ideals", "radical_witness", "ideals.radical_witness"),
    ("ideals", "ideal_member", "ideals.ideal_member"),
    ("ideals", "unimodular_certificate", "ideals.unimodular_certificate"),
    ("ideals", "power_certificate", "ideals.power_certificate"),
    ("ideals", "saturates", "ideals.saturates"),
    ("lattice", "zar_leq", "lattice.zar_leq"),
    ("lattice", "zar_eq_top", "lattice.zar_eq_top"),
    ("localization", "frac_eq", "localization.frac_eq"),
    ("gluing", "make_cover", "gluing.make_cover"),
    ("gluing", "glue_element", "gluing.glue_element"),
    ("rings", "make_hom", "rings.make_hom"),
    ("schemes", "points_over", "schemes.points_over"),
    ("schemes", "point_membership", "schemes.point_membership"),
    ("schemes", "qcqs_certificate", "schemes.qcqs_certificate"),
    ("schemes", "affine_cover", "schemes.affine_cover"),
    ("serialize", "verify_certificate", "serialize.verify_certificate"),
    ("serialize", "element_from_str", "serialize.element_from_str"),
    ("dsl", "parse", "dsl.parse"),
    ("interp", "run_script", "interp.run_script"),
]


class Tracer:
    def __init__(self):
        self.names = []          # span name table
        self._ids = {}
        self.reset()

    def reset(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stmt = []
        self.stack = [-1]
        self.stmt_id = -1
        self.basis_len_max = 0
        self.homs_enumerated = 0
        self.groebner_hits = 0
        self.groebner_misses = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.stmt.append(self.stmt_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name, fn):
        name_id = self._id(name)
        opn, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = opn(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def buchberger(self, fn):
        tracked = self._id("poly.buchberger_tracked")
        untracked = self._id("poly.buchberger_untracked")

        def wrapper(ctx, gens, *, track=False, stop_at_one=False):
            idx = self._open(tracked if track else untracked)
            try:
                out = fn(ctx, gens, track=track, stop_at_one=stop_at_one)
            finally:
                self._close(idx)
            self.basis_len_max = max(self.basis_len_max, len(out[0]))
            return out

        return wrapper

    def groebner(self, fn):
        """groebner is lru-cached: count hits and misses from the
        original function's cache_info, and time misses only."""
        miss = self._id("ideals.groebner_miss")
        hit = self._id("ideals.groebner_hit")

        def wrapper(ideal):
            before = fn.cache_info().misses
            idx = self._open(miss)
            try:
                return fn(ideal)
            finally:
                self._close(idx)
                if fn.cache_info().misses == before:
                    self.name[idx] = hit
                    self.groebner_hits += 1
                else:
                    self.groebner_misses += 1

        return wrapper

    def enumerate_homs(self, fn):
        inner = self.span("rings.enumerate_homs", fn)

        def wrapper(domain, codomain):
            homs = inner(domain, codomain)
            self.homs_enumerated += len(homs)
            return homs

        return wrapper

    def print_statement(self, fn):
        def wrapper(stmt):
            self.stmt_id += 1
            return fn(stmt)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        import zkit.dsl
        import zkit.interp
        mods = {m.split(".")[-1]: sys.modules[m] for m in list(sys.modules)
                if m == "zkit" or m.startswith("zkit.")}
        pairs = [(getattr(mods[mod], attr),
                  self.span(name, getattr(mods[mod], attr)))
                 for mod, attr, name in SPANS]
        ideals, poly, rings = mods["ideals"], mods["poly"], mods["rings"]
        pairs.append((poly.buchberger, self.buchberger(poly.buchberger)))
        pairs.append((ideals.groebner, self.groebner(ideals.groebner)))
        pairs.append((rings.enumerate_homs,
                      self.enumerate_homs(rings.enumerate_homs)))
        pairs.append((zkit.dsl.print_statement,
                      self.print_statement(zkit.dsl.print_statement)))
        for orig, wrapped in pairs:
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        report = zkit.interp.Report
        report.to_json = self.span("interp.report_json", report.to_json)

    # -- results ---------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds, total seconds)}: self time is
        a span's duration minus the time covered by its direct children;
        total time counts the outermost spans of a name in full."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {}
        for i in range(n):
            name_id = self.name[i]
            outer = True
            p = parent[i]
            while p >= 0 and outer:
                outer = self.name[p] != name_id
                p = parent[p]
            calls, own, total = out.get(self.names[name_id], (0, 0.0, 0.0))
            span = end[i] - start[i]
            out[self.names[name_id]] = (calls + 1, own + span - covered[i],
                                        total + span if outer else total)
        return out

    def dump(self, path):
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name,
                       "start": [round(s - t0, 7) for s in self.start],
                       "end": [round(e - t0, 7) for e in self.end],
                       "parent": self.parent, "stmt": self.stmt}, fh)
