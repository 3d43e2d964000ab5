"""Names that live outside src/zkit still resolve in zkit: README's
Python examples and the span table the benchmark's tracer wraps; and
src/zkit keeps the rules its readers rely on."""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, in order, in one
    namespace."""
    readme = ROOT / "README.md"
    text = readme.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        # pad with blank lines so tracebacks give README's line numbers
        pad = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(pad + block.group(1), str(readme), "exec"), namespace)


def test_trace_spans_resolve():
    """bench/trace.py wraps each (module, attribute) of SPANS by name, and
    rings.enumerate_homs, poly.buchberger and ideals.groebner with
    wrappers of their own; a rename in zkit must fail here, not only in
    a benchmark run.  trace.py is read, not imported, so nothing is
    written under bench/."""
    source = (ROOT / "bench" / "trace.py").read_text()
    spans = next(ast.literal_eval(node.value)
                 for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    assert spans
    wrapped = [(mod, attr) for mod, attr, _ in spans] + [
        ("rings", "enumerate_homs"), ("poly", "buchberger"),
        ("ideals", "groebner")]
    for mod, attr in wrapped:
        module = importlib.import_module(f"zkit.{mod}")
        assert callable(getattr(module, attr, None)), f"zkit.{mod}.{attr}"


def test_src_has_no_assert_statements():
    """Invariants raise: `python -O` strips assert statements."""
    found = []
    for path in sorted((ROOT / "src" / "zkit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/zkit: {found}"
