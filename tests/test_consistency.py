"""Names that live outside src/zkit still resolve in zkit: README's
Python examples and the span table the benchmark's tracer wraps; and
src/zkit keeps the rules its readers rely on."""
import ast
import importlib
import importlib.util
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
    """bench/trace.py wraps each (module, attribute) of SPANS by name."""
    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "bench" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.SPANS
    for mod, attr, _ in trace.SPANS:
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
