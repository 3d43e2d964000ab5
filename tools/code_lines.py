"""Count the lines of each zkit module, and compare two source trees.

    python tools/code_lines.py [SRC]
    python tools/code_lines.py BASE_SRC SRC

Each SRC is a directory holding the zkit package, as `src` does (the
default).  For each module of SRC/zkit, and in total, the first form
prints its lines, as `wc -l` counts them, and its code lines: the lines
that hold a token other than a comment or a docstring, so that blank
lines, comments and docstrings are not counted.  The second form prints
both counts for BASE_SRC and SRC side by side, with the change; a module
in one tree only counts 0 in the other.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(source: str) -> set:
    """The (line, column) where each docstring of a module, class or
    function starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple:
    """(lines, code lines) of one Python file."""
    source = path.read_text()
    skip = _docstrings(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in skip):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def counts(src: Path) -> dict:
    """{module file name: (lines, code lines)} of src/zkit."""
    return {path.relative_to(src / "zkit").as_posix(): count(path)
            for path in sorted((src / "zkit").rglob("*.py"))}


def main(argv: list) -> int:
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a) for a in argv] or [ROOT / "src"]
    if not all((t / "zkit").is_dir() for t in trees):
        print(f"no zkit package under {' or '.join(map(str, trees))}",
              file=sys.stderr)
        return 2
    tables = [counts(t) for t in trees]
    names = sorted(set().union(*tables))
    rows = [(name, *[t.get(name, (0, 0)) for t in tables]) for name in names]
    rows.append(("total", *[(sum(n for n, _ in t.values()),
                             sum(c for _, c in t.values())) for t in tables]))
    if len(tables) == 1:
        print(f"{'module':<20}{'lines':>8}{'code':>8}")
        for name, (lines, code) in rows:
            print(f"{name:<20}{lines:>8}{code:>8}")
        return 0
    print(f"{'module':<20}{'lines':>8}{'':>8}{'':>7}{'code':>8}")
    print(f"{'':<20}{'base':>8}{'head':>8}{'change':>7}"
          f"{'base':>8}{'head':>8}{'change':>7}")
    for name, (old_lines, old_code), (lines, code) in rows:
        print(f"{name:<20}{old_lines:>8}{lines:>8}{lines - old_lines:>+7}"
              f"{old_code:>8}{code:>8}{code - old_code:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
