"""The script language: tokenizer, parser, AST and pretty-printer.

A script is a ;-terminated list of ring declarations, bindings and
commands.  Statements are evaluated against the most recently declared
ring.  The expression grammar covers ring elements (+, -, *, ^, rational
literals over Q), lattice literals D(...) with join | and meet &, bracket
lists for ideals, fraction literals num / (den)^k inside glue commands,
and hom specifications {x -> e, ...}.

Parsing is independent of any ring; name and sort resolution happen at
evaluation time, so a lattice operation applied to a ring element is a
TypeMismatch report, not a parse error.

The tokenizer is one regex findall into parallel lists of token kinds
and texts; only a syntax error scans again, for its line and column.
Expressions are read by precedence climbing over one table (_PREC: |
below & below + and - below *), with prefix minus and ^ on an operand:
-x^2 is -(x^2) and -x*y is (-x)*y.  The operators of one precedence
level make one Chain, read left to right, and a parenthesized first
operand of that level joins it: (a + b) + c is a + b + c.  The printer
uses the same table, so printing and re-parsing gives the same AST.

Statements are read and printed by one table too, _SYNTAX, whose
parts the parser walks and the printer joins.  As a wrong entry would
still round-trip, the round trip also rests on tests/test_parser.py,
which checks both against the keyword ladder and printer they replaced.
"""
from __future__ import annotations

import re
import sys

from .errors import ScriptSyntaxError
from .records import record


# ---------------------------------------------------------------------------
# tokens

# Whitespace and comments before a token are part of its match, and the
# one group is its text.  The last alternative takes any one character,
# an error, or nothing at the end of the source, the eof token; a source
# that ends in blanks or a comment has a second eof token, never read.
_TOKEN_RE = re.compile(r"""(?:\s+|\#[^\n]*)*(
    radical-member\b | [A-Za-z_][A-Za-z0-9_]* | \d+ | -> | == | <=
  | [;=()\[\]{},+\-*/^|&] | "[^"\n]*" | .?
)""", re.VERBOSE)

# A token's kind by its whole text, else by its first character;
# _rare_kind decides the rest as the regex's alternatives did.
_KINDS = {"": "eof", **{s: s for s in (*";=()[]{},+-*/^|&", "->", "==", "<=")},
          **dict.fromkeys("0123456789", "int"), **dict.fromkeys(
              "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name")}


def _rare_kind(text: str) -> str:
    """A string, an int of non-ASCII digits (\\d takes every Unicode
    decimal digit) or an unexpected character, which is kind "bad"."""
    if text[0] == '"' and len(text) > 1:
        return "string"
    return "int" if text[0].isdecimal() else "bad"


def tokenize(source: str):
    """Parallel lists of the kinds and texts of the tokens, which end
    with an eof token, or two when the source ends in blanks."""
    get = _KINDS.get
    texts = _TOKEN_RE.findall(source)
    return [get(t) or get(t[0]) or _rare_kind(t) for t in texts], texts


# ---------------------------------------------------------------------------
# AST

@record(frozen=True)
class RingExpr:
    kind: str                 # "Z" | "Zmod" | "Q" | "Fp"
    modulus: int = 0          # for Zmod and Fp
    variables: tuple = ()
    relations: tuple = ()     # element expressions


@record(frozen=True)
class RingName:
    name: str


@record(frozen=True)
class IntLit:
    value: int


@record(frozen=True)
class RatLit:
    num: int
    den: int


@record(frozen=True)
class NameRef:
    name: str


@record(frozen=True)
class Neg:
    arg: object


@record(frozen=True)
class Chain:
    ops: tuple                # the len(args) - 1 operators between args,
    args: tuple               # all of one level: | or & or * or + and -


@record(frozen=True)
class Pow:
    base: object
    exp: int


@record(frozen=True)
class DLit:
    args: tuple


@record(frozen=True)
class BracketList:
    items: tuple


@record(frozen=True)
class FracLit:
    num: object
    den: object
    exp: int


@record(frozen=True)
class HomSpec:
    assignments: tuple        # ((name, expr), ...)


@record(frozen=True)
class RingDecl:
    name: str
    ring: object              # RingExpr


@record(frozen=True)
class Bind:
    kind: str                 # elem | ideal | latt
    name: str
    value: object


@record(frozen=True)
class CheckCmd:
    op: str                   # "==" | "<="
    left: object
    right: object


@record(frozen=True)
class UnimodularCmd:
    items: tuple


@record(frozen=True)
class RadicalMemberCmd:
    element: object
    ideal: object             # BracketList or NameRef


@record(frozen=True)
class LocalizeCmd:
    ring_name: str
    at: object


@record(frozen=True)
class GlueCmd:
    cover_items: tuple
    fractions: tuple


@record(frozen=True)
class PointsCmd:
    ring_name: str
    over: object              # RingExpr or RingName


@record(frozen=True)
class CoverCmd:
    latt: object


@record(frozen=True)
class MemberCmd:
    homspec: HomSpec
    latt: object
    over: object = None


@record(frozen=True)
class EvalCmd:
    expr: object
    homspec: HomSpec
    over: object = None


@record(frozen=True)
class QcqsCmd:
    latt: object


@record(frozen=True)
class VerifyCmd:
    path: str


@record(frozen=True)
class Script:
    statements: tuple


# Each statement kind's syntax, read by the parser and the printer.  A
# word or punctuation stands for itself; field:slot is a field of the
# node, read by the _Parser method the slot names and printed by
# _SLOT_PRINTERS[slot]; a first part a|b|c is one of those words.
_SYNTAX = {
    RingDecl: "ring name:name = ring:ring_expr",
    Bind: "kind:elem|ideal|latt name:name = value:bind_value",
    CheckCmd: "check left:expr op:compare right:expr",
    UnimodularCmd: "unimodular items:bracket_exprs",
    RadicalMemberCmd: "radical-member element:expr in ideal:ideal",
    LocalizeCmd: "localize ring_name:name at at:expr",
    GlueCmd: "glue cover cover_items:bracket_exprs with fractions:bracket_fracs",
    PointsCmd: "points ring_name:name over over:ring_expr_or_name",
    CoverCmd: "cover latt:expr",
    MemberCmd: "member homspec:homspec in latt:expr over:over_clause",
    EvalCmd: "eval expr:expr at homspec:homspec over:over_clause",
    QcqsCmd: "qcqs latt:expr",
    VerifyCmd: "verify path:string",
}


# ---------------------------------------------------------------------------
# parser

# binary operators and their precedence, shared with the printer
_PREC = {"|": 1, "&": 2, "+": 3, "-": 3, "*": 4}

# Parentheses, D(...) and prefix minus nest in an expression at most this
# deep; a chain of operators is one flat Chain, however long.  The parser,
# the printer and the evaluators all recurse on that nesting, so a deeper
# expression is a syntax error, not a RecursionError.
MAX_NESTING = 50


class _Parser:
    """Recursive descent over the parallel kinds and texts lists of
    tokenize, with pos the index of the next token."""

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts = kinds, texts = tokenize(source)
        self.pos = self.depth = 0  # depth: open (, D( and prefix minuses
        if "bad" in kinds:
            index = kinds.index("bad")
            raise self.error(f"unexpected character {texts[index]!r}", index)

    def error(self, message: str, index: int) -> ScriptSyntaxError:
        """The syntax error at token index, whose line and column a second
        scan finds: only a script that fails to parse pays for them."""
        matches = _TOKEN_RE.finditer(self.source)
        for _ in range(index):
            next(matches)
        start = next(matches).start(1)
        line = self.source.count("\n", 0, start) + 1
        return ScriptSyntaxError(message, line,
                                 start - self.source.rfind("\n", 0, start))

    def advance(self) -> str:
        """Pass the next token, never eof, and return its text."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, kind: str, what: str = "") -> str:
        if self.kinds[self.pos] != kind:
            raise self.error(f"expected {what or kind}, found "
                             f"{self.texts[self.pos]!r}", self.pos)
        return self.advance()

    def at(self, kind: str, text: str = None) -> bool:
        return self.kinds[self.pos] == kind and (
            text is None or self.texts[self.pos] == text)

    # -- statements ---------------------------------------------------------

    def script(self) -> Script:
        stmts = []
        while not self.at("eof"):
            stmts.append(self.statement())
            self.expect(";", "';' after statement")
        return Script(tuple(stmts))

    def statement(self):
        """The statement its first word opens, read as _SYNTAX says."""
        pos = self.pos
        self.word = word = self.texts[pos]
        if self.kinds[pos] != "name":
            raise self.error(f"expected a statement, found {word!r}", pos)
        if word not in _STATEMENTS:
            raise self.error(f"unknown statement {word!r}", pos)
        cls, parts = _STATEMENTS[word]
        # a word or punctuation reads under the key None, dropped here
        values = {field: read(self, *args) for field, read, args, _ in parts}
        values.pop(None, None)
        return cls(**values)

    def expect_word(self, word: str) -> None:
        if not self.at("name", word):
            raise self.error(
                f"expected '{word}', found {self.texts[self.pos]!r}", self.pos)
        self.pos += 1

    def name(self) -> str:
        return self.expect("name")

    def string(self) -> str:
        return self.expect("string", "a quoted file path")[1:-1]

    def compare(self) -> str:
        if self.kinds[self.pos] not in ("==", "<="):
            raise self.error(f"expected '==' or '<=', found "
                             f"{self.texts[self.pos]!r}", self.pos)
        return self.advance()

    def bind_value(self):
        """An expression, or after the word ideal also a bracket list."""
        return (self.ideal() if self.word == "ideal" and self.at("[")
                else self.expr())

    def ideal(self):
        if self.at("["):
            return BracketList(self.bracket_exprs())
        return NameRef(self.expect("name"))

    def over_clause(self):
        """The ring after an optional trailing over, else None."""
        if self.at("name", "over"):
            self.advance()
            return self.ring_expr_or_name()
        return None

    def ring_expr_or_name(self):
        if self.at("name") and self.texts[self.pos] not in ("Z", "Q", "Fp"):
            return RingName(self.advance())
        return self.ring_expr()

    def ring_expr(self) -> RingExpr:
        head = self.expect("name", "a ring expression")
        if head == "Z":
            if self.at("/"):
                self.advance()
                return RingExpr("Zmod", self.integer())
            return RingExpr("Z")
        if head == "Q":
            variables, relations = self.poly_part()
            return RingExpr("Q", 0, variables, relations)
        if head == "Fp":
            self.expect("(")
            p = self.integer()
            self.expect(")")
            variables, relations = self.poly_part()
            return RingExpr("Fp", p, variables, relations)
        raise self.error(f"unknown ring kind {head!r}", self.pos - 1)

    def poly_part(self):
        if not self.at("["):
            return (), ()
        self.advance()
        names = self.listed(lambda: self.expect("name"), "]")
        relations = ()
        if self.at("/"):
            self.advance()
            self.expect("(")
            relations = self.listed(self.expr, ")")
        return names, relations

    # -- expressions --------------------------------------------------------

    def listed(self, read, close: str) -> tuple:
        """One or more items read() separated by commas, then close."""
        items = [read()]
        while self.at(","):
            self.advance()
            items.append(read())
        self.expect(close)
        return tuple(items)

    def bracket_exprs(self) -> tuple:
        self.expect("[")
        return self.listed(self.expr, "]")

    def bracket_fracs(self) -> tuple:
        self.expect("[")
        return self.listed(self.frac_lit, "]")

    def frac_lit(self) -> FracLit:
        num = self.expr(no_div=True)
        self.expect("/", "'/' in fraction literal")
        den = self.atom(no_div=True)
        self.expect("^", "'^' with the denominator exponent")
        return FracLit(num, den, self.integer())

    def homspec(self) -> HomSpec:
        self.expect("{")
        assignments = []
        if not self.at("}"):
            while True:
                name = self.expect("name")
                self.expect("->")
                assignments.append((name, self.expr()))
                if not self.at(","):
                    break
                self.advance()
        self.expect("}")
        return HomSpec(tuple(assignments))

    def expr(self, no_div: bool = False, min_prec: int = 1):
        """Precedence climbing over _PREC: read an operand, then each
        level of operators that bind at least min_prec into one Chain,
        with right operands of strictly higher precedence; a first
        operand that is a Chain of that level, as in (a + b) + c, grows."""
        left = self.unary(no_div)
        kinds = self.kinds
        while (prec := _PREC.get(kinds[self.pos], 0)) >= min_prec:
            if type(left) is Chain and _PREC[left.ops[0]] == prec:
                ops, args = list(left.ops), list(left.args)
            else:
                ops, args = [], [left]
            while _PREC.get(op := kinds[self.pos]) == prec:
                self.pos += 1
                ops.append(op)
                args.append(self.expr(no_div, prec + 1))
            left = Chain(tuple(ops), tuple(args))
        return left

    def integer(self) -> int:
        """The value of the int token that comes next."""
        text = self.expect("int")
        try:
            return int(text)
        except ValueError:  # more digits than Python reads into an int
            raise self.error(
                f"integer literal of {len(text)} digits is past "
                f"sys.get_int_max_str_digits() = "
                f"{sys.get_int_max_str_digits()}", self.pos - 1) from None

    def nest(self, pos: int) -> None:
        """Open one more level of nesting at token pos."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"expression nested deeper than {MAX_NESTING} levels", pos)

    def unary(self, no_div: bool):
        """Prefix minus binds looser than ^ and tighter than *."""
        pos = self.pos
        if self.kinds[pos] == "-":
            self.pos += 1
            self.nest(pos)
            node = Neg(self.unary(no_div))
            self.depth -= 1
            return node
        base = self.atom(no_div)
        if self.kinds[self.pos] == "^":
            self.pos += 1
            return Pow(base, self.integer())
        return base

    def atom(self, no_div: bool = False):
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        if kind == "int":
            value = self.integer()
            if (not no_div and kinds[self.pos] == "/"
                    and kinds[self.pos + 1] == "int"):
                self.pos += 1
                return RatLit(value, self.integer())
            return IntLit(value)
        if kind == "name":
            self.pos += 1
            text = self.texts[pos]
            if text != "D" or kinds[self.pos] != "(":
                return NameRef(text)
            self.pos += 1
            self.nest(pos)
            args = self.listed(self.expr, ")")
            self.depth -= 1
            return DLit(args)
        if kind == "(":
            self.pos += 1
            self.nest(pos)
            inner = self.expr()  # parentheses re-enable rational literals
            self.expect(")")
            self.depth -= 1
            return inner
        raise self.error(
            f"expected an expression, found {self.texts[pos]!r}", pos)


def parse(source: str) -> Script:
    return _Parser(source).script()


def parse_expression(source: str):
    """Parse a single element or lattice expression, such as 1/2 * x + 3
    or D(x) | D(y).  Certificates are never read with it: their elements
    are canonical text, which serialize.element_from_str reads."""
    parser = _Parser(source)
    node = parser.expr()
    pos = parser.pos
    if parser.kinds[pos] != "eof":
        raise parser.error(f"trailing input {parser.texts[pos]!r}", pos)
    return node


# ---------------------------------------------------------------------------
# pretty-printer

def print_expr(node, parent_prec: int = 0) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, RatLit):
        # INT/INT re-parses as an atom in every div-enabled position
        return f"{node.num}/{node.den}"
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, Neg):
        text = "-" + print_expr(node.arg, 5)
        return f"({text})" if parent_prec > 3 else text
    if isinstance(node, Chain):
        prec = _PREC[node.ops[0]]
        args = node.args
        text = print_expr(args[0], prec) + "".join(
            [f" {op} {print_expr(arg, prec + 1)}"
             for op, arg in zip(node.ops, args[1:])])
        return f"({text})" if parent_prec > prec else text
    if isinstance(node, Pow):
        base = print_expr(node.base, 5)
        return f"{base}^{node.exp}"
    if isinstance(node, DLit):
        return "D(" + ", ".join(print_expr(a) for a in node.args) + ")"
    if isinstance(node, BracketList):
        return "[" + ", ".join(print_expr(a) for a in node.items) + "]"
    if isinstance(node, FracLit):
        num = print_expr(node.num)
        den = print_expr(node.den)
        if not isinstance(node.num, (IntLit, NameRef)):
            num = f"({num})"
        if not isinstance(node.den, (IntLit, NameRef)):
            den = f"({den})"
        return f"{num} / {den}^{node.exp}"
    raise TypeError(f"not an expression node: {node!r}")


def print_ring_expr(node) -> str:
    if isinstance(node, RingName):
        return node.name
    if node.kind == "Z":
        return "Z"
    if node.kind == "Zmod":
        return f"Z/{node.modulus}"
    head = "Q" if node.kind == "Q" else f"Fp({node.modulus})"
    if not node.variables:
        return head
    head += "[" + ",".join(node.variables) + "]"
    if node.relations:
        head += "/(" + ", ".join(print_expr(r) for r in node.relations) + ")"
    return head


def _bracketed(items) -> str:
    return "[" + ", ".join(map(print_expr, items)) + "]"


_SLOT_PRINTERS = {
    "name": str, "string": lambda path: f'"{path}"', "compare": str,
    "expr": print_expr, "bind_value": print_expr, "ideal": print_expr,
    "ring_expr": print_ring_expr, "ring_expr_or_name": print_ring_expr,
    "over_clause": lambda ring: (
        "" if ring is None else "over " + print_ring_expr(ring)),
    "bracket_exprs": _bracketed, "bracket_fracs": _bracketed,
    "homspec": lambda spec: "{" + ", ".join(
        [f"{n} -> {print_expr(e)}" for n, e in spec.assignments]) + "}",
}


def _tables():
    """The parts (field or None, parser method, its arguments, printer
    or text) of each statement kind, and the kind each first word opens."""
    parts_of, opened_by = {}, {}
    for cls, line in _SYNTAX.items():
        parts = []
        for part in line.split():
            field, _, slot = part.rpartition(":")
            if not field:
                read = (_Parser.expect_word if part[0].isalpha()
                        else _Parser.expect)
                parts.append((None, read, (part,), part))
            elif "|" in slot:  # the first word, that opened the statement
                parts.append((field, _Parser.advance, (), str))
            else:
                parts.append((field, getattr(_Parser, slot), (),
                              _SLOT_PRINTERS[slot]))
        parts_of[cls] = parts = tuple(parts)
        for word in line.split()[0].rpartition(":")[2].split("|"):
            opened_by[word] = cls, parts
    return parts_of, opened_by


_PARTS, _STATEMENTS = _tables()


def print_statement(stmt) -> str:
    parts = _PARTS.get(stmt.__class__)
    if parts is None:
        raise TypeError(f"not a statement node: {stmt!r}")
    return " ".join(filter(None, [
        show if field is None else show(getattr(stmt, field))
        for field, _, _, show in parts])) + ";"


def pretty_print(script: Script) -> str:
    return "\n".join(print_statement(s) for s in script.statements) + "\n"
