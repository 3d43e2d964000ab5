"""The precedence-climbing parser against the recursive-descent parser
it replaced (tests/helpers.py): equal ASTs, and equal syntax errors down
to the line and column.  Both read the operators of one precedence level
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
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_parse, reference_parse_expression
from zkit.dsl import parse, parse_expression
from zkit.errors import ScriptSyntaxError

SCRIPTS = sorted((Path(__file__).parent / "scripts").glob("*.zk"))


def _outcome(parse_fn, source):
    """The AST, or the error's type, message, line and column."""
    try:
        return parse_fn(source)
    except ScriptSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_parser_matches_reference_on_corpus(path):
    """The precedence-climbing parser gives the recursive-descent
    parser's AST on every corpus script."""
    source = path.read_text()
    assert parse(source) == reference_parse(source)


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
            failures += isinstance(new, tuple)
    assert failures > 500  # most mutations are syntax errors
