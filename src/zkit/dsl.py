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

The tokenizer is one regex scan; tokens are named tuples carrying their
1-based line and column.  Expressions are read by precedence climbing
over one table (_PREC: | below & below + and - below *), with prefix
minus and ^ on an operand: -x^2 is -(x^2) and -x*y is (-x)*y.  The
operators of one precedence level make one Chain, read left to right,
and a parenthesized first operand of that level joins it: (a + b) + c
is a + b + c.  The printer uses the same table, so printing and
re-parsing gives the same AST.
"""
from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .errors import ScriptSyntaxError
from .records import record


# ---------------------------------------------------------------------------
# tokens

# Blanks before a token are part of its match; other whitespace (a run
# with a newline in it) is a token of its own, so that lines are counted.
# The last group takes any single character, which is an error, so every
# position matches and one finditer scan covers the source.
_TOKEN_RE = re.compile(r"""[ \t]*(?:
    (?P<radmem>radical-member\b)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<arrow>->)
  | (?P<eqeq>==)
  | (?P<leq><=)
  | (?P<sym>[;=()\[\]{},+\-*/^|&])
  | (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<bad>.)
)""", re.VERBOSE)

# token groups whose kind is their own text
_SYMBOLIC = frozenset(("arrow", "eqeq", "leq", "sym"))


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str):
    """Tokens with 1-based line and column, ending with an eof token."""
    tokens = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without a Python-level __new__
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            newlines = m.group(kind).count("\n")
            if newlines:
                line += newlines
                line_start = source.rfind("\n", 0, m.end()) + 1
            continue
        if kind == "comment":
            continue
        text = m.group(kind)
        column = m.start(kind) - line_start + 1
        if kind in _SYMBOLIC:
            kind = text
        elif kind == "radmem":
            kind = "name"
        elif kind == "bad":
            raise ScriptSyntaxError(f"unexpected character {text!r}",
                                    line, column)
        append(new(Token, (kind, text, line, column)))
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


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
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses, D(...) and prefix minuses

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            want = what or kind
            raise ScriptSyntaxError(f"expected {want}, found {tok.text!r}",
                                    tok.line, tok.column)
        return self.advance()

    def at(self, kind: str, text: str = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    # -- statements ---------------------------------------------------------

    def script(self) -> Script:
        stmts = []
        while not self.at("eof"):
            stmts.append(self.statement())
            self.expect(";", "';' after statement")
        return Script(tuple(stmts))

    def statement(self):
        tok = self.peek()
        if tok.kind != "name":
            raise ScriptSyntaxError(f"expected a statement, found {tok.text!r}",
                                    tok.line, tok.column)
        word = tok.text
        self.advance()
        if word == "ring":
            return self.ring_decl()
        if word in ("elem", "ideal", "latt"):
            return self.bind(word)
        if word == "check":
            return self.check_cmd()
        if word == "unimodular":
            return UnimodularCmd(self.bracket_exprs())
        if word == "radical-member":
            element = self.expr()
            self.expect_word("in")
            if self.at("["):
                ideal = BracketList(self.bracket_exprs())
            else:
                ideal = NameRef(self.expect("name").text)
            return RadicalMemberCmd(element, ideal)
        if word == "localize":
            name = self.expect("name").text
            self.expect_word("at")
            return LocalizeCmd(name, self.expr())
        if word == "glue":
            self.expect_word("cover")
            items = self.bracket_exprs()
            self.expect_word("with")
            return GlueCmd(items, self.bracket_fracs())
        if word == "points":
            name = self.expect("name").text
            self.expect_word("over")
            return PointsCmd(name, self.ring_expr_or_name())
        if word == "cover":
            return CoverCmd(self.expr())
        if word == "member":
            spec = self.homspec()
            self.expect_word("in")
            latt = self.expr()
            over = self.optional_over()
            return MemberCmd(spec, latt, over)
        if word == "eval":
            expr = self.expr()
            self.expect_word("at")
            spec = self.homspec()
            over = self.optional_over()
            return EvalCmd(expr, spec, over)
        if word == "qcqs":
            return QcqsCmd(self.expr())
        if word == "verify":
            tok = self.expect("string", "a quoted file path")
            return VerifyCmd(tok.text[1:-1])
        raise ScriptSyntaxError(f"unknown statement {word!r}",
                                tok.line, tok.column)

    def expect_word(self, word: str):
        tok = self.peek()
        if tok.kind != "name" or tok.text != word:
            raise ScriptSyntaxError(f"expected '{word}', found {tok.text!r}",
                                    tok.line, tok.column)
        return self.advance()

    def ring_decl(self) -> RingDecl:
        name = self.expect("name").text
        self.expect("=")
        return RingDecl(name, self.ring_expr())

    def ring_expr_or_name(self):
        tok = self.peek()
        if tok.kind == "name" and tok.text not in ("Z", "Q", "Fp"):
            return RingName(self.advance().text)
        return self.ring_expr()

    def ring_expr(self) -> RingExpr:
        tok = self.expect("name", "a ring expression")
        if tok.text == "Z":
            if self.at("/"):
                self.advance()
                return RingExpr("Zmod", self.integer())
            return RingExpr("Z")
        if tok.text == "Q":
            variables, relations = self.poly_part()
            return RingExpr("Q", 0, variables, relations)
        if tok.text == "Fp":
            self.expect("(")
            p = self.integer()
            self.expect(")")
            variables, relations = self.poly_part()
            return RingExpr("Fp", p, variables, relations)
        raise ScriptSyntaxError(f"unknown ring kind {tok.text!r}",
                                tok.line, tok.column)

    def poly_part(self):
        if not self.at("["):
            return (), ()
        self.advance()
        names = self.listed(lambda: self.expect("name").text, "]")
        relations = ()
        if self.at("/"):
            self.advance()
            self.expect("(")
            relations = self.listed(self.expr, ")")
        return names, relations

    def bind(self, kind: str) -> Bind:
        name = self.expect("name").text
        self.expect("=")
        if kind == "ideal" and self.at("["):
            return Bind(kind, name, BracketList(self.bracket_exprs()))
        return Bind(kind, name, self.expr())

    def check_cmd(self) -> CheckCmd:
        left = self.expr()
        tok = self.peek()
        if tok.kind not in ("==", "<="):
            raise ScriptSyntaxError(f"expected '==' or '<=', found {tok.text!r}",
                                    tok.line, tok.column)
        self.advance()
        return CheckCmd(tok.kind, left, self.expr())

    def optional_over(self):
        if self.at("name", "over"):
            self.advance()
            return self.ring_expr_or_name()
        return None

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
                name = self.expect("name").text
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
        tokens = self.tokens
        while (prec := _PREC.get(tokens[self.pos].kind, 0)) >= min_prec:
            if type(left) is Chain and _PREC[left.ops[0]] == prec:
                ops, args = list(left.ops), list(left.args)
            else:
                ops, args = [], [left]
            while _PREC.get(op := tokens[self.pos].kind) == prec:
                self.pos += 1
                ops.append(op)
                args.append(self.expr(no_div, prec + 1))
            left = Chain(tuple(ops), tuple(args))
        return left

    def integer(self) -> int:
        """The value of the int token that comes next."""
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python reads into an int
            raise ScriptSyntaxError(
                f"integer literal of {len(tok.text)} digits is past "
                f"sys.get_int_max_str_digits() = "
                f"{sys.get_int_max_str_digits()}",
                tok.line, tok.column) from None

    def nest(self, tok: Token) -> None:
        """Open one more level of nesting at tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ScriptSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels",
                tok.line, tok.column)

    def unary(self, no_div: bool):
        """Prefix minus binds looser than ^ and tighter than *."""
        tok = self.tokens[self.pos]
        if tok.kind == "-":
            self.pos += 1
            self.nest(tok)
            node = Neg(self.unary(no_div))
            self.depth -= 1
            return node
        base = self.atom(no_div)
        if self.tokens[self.pos].kind == "^":
            self.pos += 1
            return Pow(base, self.integer())
        return base

    def atom(self, no_div: bool = False):
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok.kind
        if kind == "int":
            value = self.integer()
            if (not no_div and tokens[self.pos].kind == "/"
                    and tokens[self.pos + 1].kind == "int"):
                self.pos += 1
                return RatLit(value, self.integer())
            return IntLit(value)
        if kind == "name":
            self.pos += 1
            if tok.text != "D" or tokens[self.pos].kind != "(":
                return NameRef(tok.text)
            self.pos += 1
            self.nest(tok)
            args = self.listed(self.expr, ")")
            self.depth -= 1
            return DLit(args)
        if kind == "(":
            self.pos += 1
            self.nest(tok)
            inner = self.expr()  # parentheses re-enable rational literals
            self.expect(")")
            self.depth -= 1
            return inner
        raise ScriptSyntaxError(f"expected an expression, found {tok.text!r}",
                                tok.line, tok.column)


def parse(source: str) -> Script:
    return _Parser(tokenize(source)).script()


def parse_expression(source: str):
    """Parse a single element or lattice expression, such as 1/2 * x + 3
    or D(x) | D(y).  Certificates are never read with it: their elements
    are canonical text, which serialize.element_from_str reads."""
    parser = _Parser(tokenize(source))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ScriptSyntaxError(f"trailing input {tok.text!r}",
                                tok.line, tok.column)
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


def print_homspec(spec: HomSpec) -> str:
    body = ", ".join(f"{n} -> {print_expr(e)}" for n, e in spec.assignments)
    return "{" + body + "}"


def print_statement(stmt) -> str:
    if isinstance(stmt, RingDecl):
        return f"ring {stmt.name} = {print_ring_expr(stmt.ring)};"
    if isinstance(stmt, Bind):
        return f"{stmt.kind} {stmt.name} = {print_expr(stmt.value)};"
    if isinstance(stmt, CheckCmd):
        return (f"check {print_expr(stmt.left)} {stmt.op} "
                f"{print_expr(stmt.right)};")
    if isinstance(stmt, UnimodularCmd):
        return "unimodular [" + ", ".join(map(print_expr, stmt.items)) + "];"
    if isinstance(stmt, RadicalMemberCmd):
        return (f"radical-member {print_expr(stmt.element)} in "
                f"{print_expr(stmt.ideal)};")
    if isinstance(stmt, LocalizeCmd):
        return f"localize {stmt.ring_name} at {print_expr(stmt.at)};"
    if isinstance(stmt, GlueCmd):
        cov = ", ".join(map(print_expr, stmt.cover_items))
        fam = ", ".join(map(print_expr, stmt.fractions))
        return f"glue cover [{cov}] with [{fam}];"
    if isinstance(stmt, PointsCmd):
        return f"points {stmt.ring_name} over {print_ring_expr(stmt.over)};"
    if isinstance(stmt, CoverCmd):
        return f"cover {print_expr(stmt.latt)};"
    if isinstance(stmt, MemberCmd):
        text = f"member {print_homspec(stmt.homspec)} in {print_expr(stmt.latt)}"
        if stmt.over is not None:
            text += f" over {print_ring_expr(stmt.over)}"
        return text + ";"
    if isinstance(stmt, EvalCmd):
        text = f"eval {print_expr(stmt.expr)} at {print_homspec(stmt.homspec)}"
        if stmt.over is not None:
            text += f" over {print_ring_expr(stmt.over)}"
        return text + ";"
    if isinstance(stmt, QcqsCmd):
        return f"qcqs {print_expr(stmt.latt)};"
    if isinstance(stmt, VerifyCmd):
        return f'verify "{stmt.path}";'
    raise TypeError(f"not a statement node: {stmt!r}")


def pretty_print(script: Script) -> str:
    return "\n".join(print_statement(s) for s in script.statements) + "\n"
