import time

import pytest

from zkit import interp
from zkit.dsl import (Chain, DLit, FracLit, IntLit, Pow, RatLit, parse,
                      parse_expression)
from zkit.errors import ScriptSyntaxError
from zkit.interp import Options, run_source


def test_tokenizer_positions():
    with pytest.raises(ScriptSyntaxError) as err:
        parse("ring R = Z;\ncheck D(2) ?? D(3);")
    assert (err.value.line, err.value.column) == (2, 12)
    with pytest.raises(ScriptSyntaxError) as err:
        parse("ring R = Z; # a comment\n\t  elem a = (x +\n  * 2);")
    assert (err.value.line, err.value.column) == (3, 3)


def test_parse_examples():
    script = parse("ring R = Fp(7)[x,y,z]/(x^3+y^3-z^3);")
    decl = script.statements[0]
    assert decl.ring.kind == "Fp" and decl.ring.modulus == 7
    assert decl.ring.variables == ("x", "y", "z")
    script = parse("latt u = D(x, y-1);")
    assert isinstance(script.statements[0].value, DLit)
    script = parse("check D(x^2) == D(x);")
    assert script.statements[0].op == "=="


def test_expression_shapes():
    e = parse_expression("1/2 * x + 3")
    assert isinstance(e, Chain) and e.ops == ("+",)
    assert isinstance(e.args[0].args[0], RatLit)
    e = parse_expression("x^3")
    assert isinstance(e, Pow) and e.exp == 3
    e = parse_expression("D(x) | D(y) & D(z)")
    assert e.ops == ("|",) and e.args[1].ops == ("&",)


def test_fraction_literals():
    script = parse("glue cover [2, 3] with [10 / 2^1, 15 / 3^1];")
    fr = script.statements[0].fractions[0]
    assert isinstance(fr, FracLit) and fr.exp == 1
    assert isinstance(fr.num, IntLit) and fr.num.value == 10
    # numerators with operators need no parens before the slash
    script = parse("glue cover [x] with [x^2 + x / x^1];")
    fr = script.statements[0].fractions[0]
    assert isinstance(fr.num, Chain)


def test_syntax_errors():
    for bad in ["ring;", "check D(x) = D(y);", "elem = 3;",
                "glue cover [2] with [1 / 2];", 'verify noquotes;',
                "points R over;"]:
        with pytest.raises(ScriptSyntaxError):
            parse(bad)
    # an integer literal with more digits than Python reads into an int
    with pytest.raises(ScriptSyntaxError) as info:
        parse("ring R = Z;\nelem a = 1" + "0" * 5000 + ";")
    assert (info.value.line, info.value.column) == (2, 10)


def test_unknown_and_mismatch_are_contained():
    report = run_source("ring R = Z; check D(zz) == D(1);")
    assert report.results[1].status == "error"
    assert report.results[1].result["kind"] == "UnknownName"
    report = run_source("ring S = Q[x]; check D(x) == x;")
    assert report.results[1].status == "error"
    assert report.results[1].result["kind"] == "TypeMismatch"
    report = run_source("ring S = Q[x]; check x + D(x) == x;")
    assert report.results[1].status == "error"


def test_rational_literal_needs_q():
    report = run_source("ring R = Z; elem a = 1/2;")
    assert report.results[1].status == "error"
    assert report.results[1].result["kind"] == "TypeMismatch"


def test_bindings_and_scope():
    report = run_source("""
        ring S = Q[x];
        elem f = x^2;
        latt u = D(f);
        check u == D(x);
        ideal I = [f, x^3];
        radical-member x in I;
    """)
    assert [r.status for r in report.results] == ["ok"] * 6


def test_no_ring_declared():
    report = run_source("check D(2) == D(1);")
    assert report.results[0].status == "error"
    assert report.results[0].result["kind"] == "UnknownName"


def test_fail_fast():
    source = "ring R = Z; check D(2) == D(1); unimodular [3, 5];"
    report = run_source(source)
    assert len(report.results) == 3
    report = run_source(source, Options(fail_fast=True))
    assert len(report.results) == 2


def test_statement_timeout():
    # 97^3 assignments, just under max_assignments: far more than 1 ms
    # of work on any host, so the timeout always fires first
    source = ("ring F = Fp(97)[x,y,z]/(x^3 + y^3 - z^3);"
              "points F over Fp(97);")
    report = run_source(source, Options(timeout_ms=1))
    assert report.results[1].status == "error"
    assert "exceeded" in report.results[1].result["message"]
    assert report.exit_code == 2


def test_swallowed_timeout_still_reported(monkeypatch):
    # a body that catches the alarm's exception (as a gc callback does)
    # and keeps running past the limit must still end in a timeout error
    def swallowing(stmt, env, options):
        deadline = time.perf_counter() + 1.0
        try:
            while time.perf_counter() < deadline:
                pass
        except BaseException:
            pass
        end = time.perf_counter() + 0.01
        while time.perf_counter() < end:
            pass
        return "ok", {}, None

    monkeypatch.setattr(interp, "_execute", swallowing)
    report = run_source("ring R = Z;", Options(timeout_ms=5))
    assert report.results[0].status == "error"
    assert report.results[0].result["kind"] == "_Timeout"
    assert "exceeded 5 ms" in report.results[0].result["message"]
    assert report.exit_code == 2



@pytest.mark.parametrize("opener, closer", [("(", ")"), ("D(", ")"),
                                            ("-", ""), ("-(", ")")])
def test_nesting_past_the_bound_is_a_syntax_error(opener, closer):
    """MAX_NESTING levels of parentheses, D(...) and prefix minus parse;
    one more, or 5000, is a ScriptSyntaxError at the token that opens
    the level too many, never a RecursionError."""
    from zkit.dsl import MAX_NESTING
    per_copy = 2 if opener == "-(" else 1      # levels one opener adds
    width = 2 if opener == "D(" else 1         # characters per level

    def source(copies):
        return ("ring S = Q[x];\nelem a = " + opener * copies + "x"
                + closer * copies + ";")

    parse(source(MAX_NESTING // per_copy))
    for copies in (MAX_NESTING // per_copy + 1, 5000):
        with pytest.raises(ScriptSyntaxError,
                           match=f"nested deeper than {MAX_NESTING} levels"
                           ) as err:
            parse(source(copies))
        column = len("elem a = ") + width * MAX_NESTING + 1
        assert (err.value.line, err.value.column) == (2, column)


def test_nesting_at_the_bound_runs():
    """Expressions nested MAX_NESTING deep, with every precedence level
    between the openings, parse, print and evaluate without running out
    of stack."""
    from zkit.dsl import MAX_NESTING as N
    exprs = ["x | x & x + x * (" * N + "x" + ")" * N,
             "D(x | x & x + x * -" * (N // 2) + "x" + ")" * (N // 2),
             "D(x) | D(x) & (" * (N - 1) + "D(x)" + ")" * (N - 1),
             "x * -" * N + "x^2"]
    for e in exprs:
        for stmt in (f"elem a = {e};", f"check {e} == D(x);",
                     f"radical-member {e} in [x];",
                     f"glue cover [1] with [{e} / 1^0];"):
            report = run_source("ring S = Q[x];\n" + stmt)
            assert len(report.results) == 2
            assert report.results[1].status in ("ok", "refuted", "error")
