"""Print the functions of zkit that no statement reaches.

    python tools/reach.py SRC

SRC is a directory holding the zkit package, as `src` does.  With a
profiler set before zkit is imported from SRC, so that calls made at
import count, the CLI (zkit.cli.main, in this process) runs the scripts
that tools/same_output.py runs: the corpus, the bench.gen decision
scripts of seeds 1-3, a verify script over each workload and seed's
reports, and one over the seed-1 replay reports.  Each code object that
was called is matched to its def in SRC/zkit by file and first line
(the first decorator's, for a decorated def).

Every function or method that no call reached is printed as
module.qualname, apart from those on ALLOW, which gives the reason each
of them is kept.  The exit code is 1 when any other name is left.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from same_output import replay_reports, scripts, verify_script

# why each unreached function is kept: {reason: names}
ALLOW = {
    "the only map out of Z[1/f], which has no presentation": (
        "localization.universal_property",
        "localization.InducedMap.__call__"),
    "tests/test_acceptance.py criteria 1 and 3-5 call it, directly or "
    "through restrict_hom; ROADMAP item 7 will use point_to_localized_hom": (
        "localization.canonical_map", "lattice.restrict", "lattice.pushdown",
        "lattice.zar_bottom", "gluing.restrict_hom", "rings.hom_compose",
        "schemes.point_from_localized_hom",
        "schemes.point_to_localized_hom"),
    "the README tour calls it, and a test takes it as an oracle": (
        "gluing.restrict_element", "rings.is_unit"),
    "a member of the ring or coefficient protocol that no statement calls": (
        "localization.LocalizedIntegers.neg",
        "localization.LocalizedIntegers.sub",
        "localization.LocalizedRing.render", "localization._Presented.neg",
        "localization._Presented.sub", "poly.Rationals.div",
        "poly.Rationals.invert", "poly.Rationals.sub",
        "poly._Integers.coerce", "rings.QuotientRing.neg",
        "rings.RingElement.__neg__", "rings.RingElement.__radd__",
        "rings.RingElement.__rmul__", "rings.RingElement.__rsub__",
        "rings._Integers.neg", "rings._Ring.gens"),
    "a refusal or an error path, which no script of the map takes": (
        "dsl._Parser.error", "errors.ScriptSyntaxError.__init__",
        "interp._AlarmGuard._handler", "localization.LocalizedRing.ambient",
        "localization.LocalizedRing.localization", "records._frozen_delattr",
        "records._frozen_setattr", "serialize._not_an_element"),
    "the printed form of a value for a library reader; reports print "
    "through serialize": (
        "gluing.CompatibleFamily.__str__", "gluing.UnimodularCover.__str__",
        "localization.Fraction.__repr__", "localization.Fraction.__str__",
        "records._repr", "rings.RingElement.__repr__",
        "schemes.SchemePoint.__str__"),
    "a standing decision of ROADMAP item 10: the corpus round-trips "
    "through the printer": (
        "dsl.parse_expression", "dsl.pretty_print"),
    "a term order that a ring's JSON in a certificate can name": (
        "poly._desc_grlex", "poly._desc_lex", "poly._key_grlex",
        "poly._key_lex"),
    "a Buchberger run to a reduced basis (a quotient by more than one "
    "relation) or a finite quotient's monomials: no script of the map "
    "takes these paths": (
        "poly._minimal", "poly._reduced", "poly.mono_divides"),
    "the engine API that bench/trace.py wraps (ROADMAP item 3), or only "
    "it calls": (
        "ideals.groebner", "ideals.ideal_member", "localization.frac_eq",
        "rings.FieldRing.ideal_basis", "rings.QuotientRing.ideal_basis",
        "rings._Integers.ideal_basis"),
    "a library entry point that tests call; the map runs the CLI with "
    "--json, not its table": (
        "cli._render_table", "interp.run_source"),
}
KEPT = {name for names in ALLOW.values() for name in names}


def definitions(src: Path) -> dict:
    """{(file, first line): module.qualname} of every def in src/zkit."""
    found = {}

    def walk(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found[str(path), first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted((src / "zkit").glob("*.py")):
        path = path.resolve()
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def called(src: Path) -> set:
    """The code objects that the scripts' runs call."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(src.resolve()))
    sys.setprofile(profile)
    try:
        from zkit.cli import main

        def cli(path: Path) -> str:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                main(["--json", "--seed", "11", str(path)])
            return out.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            out, outputs, printed = Path(tmp), {}, {}
            for name, path, group in scripts(out):
                text = cli(path)
                outputs[name] = {"report": json.loads(text)}
                if group is not None:
                    printed.setdefault(f"verify-{group}", {})[name] = text
            where = out / "verify"
            printed["cert-replay-1"] = replay_reports(outputs)
            for name, reports in printed.items():
                cli(verify_script(where, name, reports))
    finally:
        sys.setprofile(None)
    return seen


def main(argv: list) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "zkit").is_dir():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0])
    defs = definitions(src)
    reached = {defs.get((str(Path(code.co_filename).resolve()),
                         code.co_firstlineno)) for code in called(src)}
    left = sorted(set(defs.values()) - reached)
    extra = [name for name in left if name not in KEPT]
    for name in extra:
        print(name)
    print(f"{len(left)} of {len(defs)} functions unreached, "
          f"{len(left) - len(extra)} of them on the allow-list")
    return 1 if extra else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
