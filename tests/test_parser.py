"""The table-driven parser and printer against the recursive-descent
parser and the statement printer they replaced (tests/helpers.py):
equal ASTs, equal printed statements, and equal syntax errors down to
the line and column.  Both read the operators of one precedence level
into one flat Chain, and a parenthesized first operand of that level
into the same Chain, so the expressions below include long chains and
same-level operands in parentheses on either side.

These hypothesis tests live apart from test_dsl.py's statement timeout
tests.  Hypothesis installs a gc callback, and an alarm that fires during
a collection raises inside that callback, where the exception is
swallowed; the statement still ends in a timeout error
(test_swallowed_timeout_still_reported), but the split keeps those
tests independent of the order in which modules run.
"""
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (reference_parse, reference_parse_expression,
                     reference_print_statement)
from zkit.dsl import IntLit, parse, parse_expression, print_statement
from zkit.errors import ScriptSyntaxError

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # the bench package generates scripts

from bench import gen  # noqa: E402

SCRIPTS = sorted((Path(__file__).parent / "scripts").glob("*.zk"))


def _outcome(parse_fn, source):
    """The AST, or the error's type, message, line and column."""
    try:
        return parse_fn(source)
    except ScriptSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _same_as_reference(source):
    """Both parsers give one AST, and both printers one text for each of
    its statements."""
    script = parse(source)
    assert script == reference_parse(source)
    for stmt in script.statements:
        assert print_statement(stmt) == reference_print_statement(stmt)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_parser_matches_reference_on_corpus(path):
    """The table-driven parser and printer give the recursive-descent
    parser's AST and the reference printer's text on every corpus
    script."""
    _same_as_reference(path.read_text())


def test_parser_matches_reference_on_every_statement_form():
    """Each statement kind in each of its forms, verify (which no corpus
    script holds) and the optional over clause included."""
    _same_as_reference("""
        ring R = Fp(5)[x,y]/(x^2 - y); ring S = Z/6; ring T = Q;
        elem a = x + 1; latt u = D(x) | D(y); ideal I = [x, y]; ideal J = I;
        check a == x; check u <= D(1); unimodular [x, 1 - x];
        radical-member a in [x^2]; radical-member a in I;
        localize R at x; glue cover [x, 1 - x] with [1 / x^0, 1 / (1 - x)^2];
        points R over Fp(5); points R over S; cover u; qcqs u;
        member {x -> 1, y -> 1} in u; member {} in u over T;
        eval a at {x -> 1, y -> 1}; eval a at {x -> 2, y -> 4} over Fp(5)[z];
        verify "report.json"; verify "";
    """)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parser_matches_reference_on_generated_scripts(seed):
    """The same on the bench.gen decision scripts that the benchmark
    runs, about 600 statements a seed."""
    for make in (gen.ideal_decide, gen.points_glue):
        for sc in make(seed):
            _same_as_reference(sc.source())


_ATOMS = st.one_of(
    st.integers(0, 40).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["x", "y", "z1", "D", "_t"]))


# the operators of each precedence level
_LEVELS = [["+", "-"], ["*"], ["|"], ["&"]]


def _chain(children, ops):
    """Three to six operands joined by operators drawn from ops."""
    return st.tuples(children, st.lists(
        st.tuples(st.sampled_from(ops), children), min_size=2, max_size=5)
    ).map(lambda t: t[0] + "".join(f" {op} {e}" for op, e in t[1]))


def _same_level(children, ops):
    """(a op b) op c or a op (b op c), both operators drawn from ops."""
    op = st.sampled_from(ops)
    return st.tuples(children, op, children, op, children, st.booleans()).map(
        lambda t: (f"({t[0]} {t[1]} {t[2]}) {t[3]} {t[4]}" if t[5]
                   else f"{t[0]} {t[1]} ({t[2]} {t[3]} {t[4]})"))


def _combine(children):
    levels = st.sampled_from(_LEVELS)
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "|", "&"]),
                  children).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        levels.flatmap(lambda ops: _chain(children, ops)),
        levels.flatmap(lambda ops: _same_level(children, ops)),
        children.map(lambda e: f"-{e}"),
        st.tuples(children, st.integers(0, 12)).map(
            lambda t: f"{t[0]}^{t[1]}"),
        children.map(lambda e: f"({e})"),
        st.lists(children, min_size=1, max_size=3).map(
            lambda es: "D(" + ", ".join(es) + ")"))


EXPRESSIONS = st.recursive(_ATOMS, _combine, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_parser_matches_reference_on_expressions(text):
    """Precedence, unary minus, ^, rational literals and D(...)."""
    assert (_outcome(parse_expression, text)
            == _outcome(reference_parse_expression, text))


@settings(max_examples=150, deadline=None)
@given(st.lists(EXPRESSIONS, min_size=1, max_size=3), EXPRESSIONS,
       st.integers(0, 5))
def test_parser_matches_reference_on_fraction_literals(nums, den, exp):
    """Numerators and denominators of glue fractions, where INT/INT is
    not a rational literal."""
    family = ", ".join(f"{n} / {den}^{exp}" for n in nums)
    source = f"glue cover [x, 1 - x] with [{family}];"
    assert _outcome(parse, source) == _outcome(reference_parse, source)


_NOISE = ["?", "@", "^", ")", "(", "/", "-", ",", ";", "\n", " # c\n",
          "1/", "D(", "->", "==", "<=", "{", "]", '"', "\t"]


def test_parser_errors_match_reference_on_malformed_scripts():
    """Corpus scripts with a character deleted or some noise inserted:
    both parsers accept with equal ASTs, or fail with the same message,
    line and column."""
    rng = random.Random(7)
    failures = 0
    for path in SCRIPTS:
        source = f"# {path.stem}\n" + path.read_text()
        for _ in range(25):
            pos = rng.randrange(len(source))
            if rng.random() < 0.4:
                bad = source[:pos] + source[pos + 1:]
            else:
                bad = source[:pos] + rng.choice(_NOISE) + source[pos:]
            new, ref = _outcome(parse, bad), _outcome(reference_parse, bad)
            assert new == ref, (path.stem, bad)
            if isinstance(new, tuple):
                failures += 1
            else:
                for stmt in new.statements:
                    assert (print_statement(stmt)
                            == reference_print_statement(stmt)), bad
    assert failures > 500  # most mutations are syntax errors


# Token boundaries of the findall tokenizer: comments and blanks before
# the end of the input (which give a second, empty end match the parser
# must not read past), \r\n line ends, a quote that opens no string, a
# digit outside ASCII, a letter outside ASCII and the \b that ends
# radical-member.
@pytest.mark.parametrize("source", [
    "ring R = Z; # a comment that ends the input",
    "ring R = Z;   \t",
    "ring R = Z;\n  \n\t",
    "ring R = Z;\r\nelem a = 2;\r\n",
    "ring R = Z;\nelem a = ٣;",
    "ring R = Q[x];\nradical-member x in [x];",
])
def test_token_boundaries_accepted(source):
    assert parse(source) == reference_parse(source)


def test_non_ascii_digits_read_as_their_value():
    (decl,) = parse("elem a = ٣;").statements
    assert decl.value == IntLit(3)


@pytest.mark.parametrize("source, message, line, column", [
    ('verify "abc', "unexpected character '\"'", 1, 8),
    ("ring é = Z;", "unexpected character 'é'", 1, 6),
    ("ring R = Z;\r\nelem a = ?;\r\n", "unexpected character '?'", 2, 10),
    ("ring R = Z;\r\nelem a = ;", "expected an expression, found ';'", 2, 10),
    ("ring R = Z; radical-membership 1 in [1];",
     "unknown statement 'radical'", 1, 13),
    ("ring R = Z # no semicolon", "expected ';' after statement, found ''",
     1, 26),
    ("ring R = Z\n# no semicolon\n", "expected ';' after statement, found ''",
     3, 1),
    ("ring R = Z  ", "expected ';' after statement, found ''", 1, 13),
])
def test_token_boundaries_rejected(source, message, line, column):
    expected = ("error", f"{line}:{column}: {message}", line, column)
    assert _outcome(parse, source) == expected
    assert _outcome(reference_parse, source) == expected


@pytest.mark.parametrize("source", ["x + 1  ", "x + 1 # c", "x +  ", "x # c",
                                    "x y  "])
def test_expression_ends_match_reference(source):
    assert (_outcome(parse_expression, source)
            == _outcome(reference_parse_expression, source))
