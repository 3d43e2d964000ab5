"""Names that live outside src/zkit still resolve in zkit: README's
Python examples, the span table and signatures of the functions the
benchmark's tracer wraps, and the allow-list of tools/reach.py; src/zkit
keeps the rules its readers rely on; and tools/code_lines.py counts what
it says it counts."""
import ast
import importlib
import importlib.util
import re
from pathlib import Path

from zkit.records import _frozen_setattr

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


def _traced() -> list:
    """(module, attribute) of every zkit function that bench/trace.py
    wraps: each of SPANS, and those with wrappers of their own.
    trace.py is read, not imported, so nothing is written under bench/."""
    source = (ROOT / "bench" / "trace.py").read_text()
    spans = next(ast.literal_eval(node.value)
                 for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    assert spans
    return [(mod, attr) for mod, attr, _ in spans] + [
        ("rings", "enumerate_homs"), ("poly", "buchberger"),
        ("ideals", "groebner"), ("dsl", "print_statement")]


def test_trace_spans_resolve():
    """bench/trace.py wraps each (module, attribute) of SPANS by name, and
    rings.enumerate_homs, poly.buchberger, ideals.groebner and
    dsl.print_statement with wrappers of their own; a rename in zkit
    must fail here, not only in a benchmark run."""
    for mod, attr in _traced():
        module = importlib.import_module(f"zkit.{mod}")
        assert callable(getattr(module, attr, None)), f"zkit.{mod}.{attr}"


def test_reach_allow_list_resolves():
    """Every name on the allow-list of tools/reach.py, module.qualname,
    is a function or method defined in src/zkit under that qualname, so
    a rename or a deletion must edit the list.  reach.py is read, not
    imported, as trace.py is."""
    source = (ROOT / "tools" / "reach.py").read_text()
    allow = next(ast.literal_eval(node.value)
                 for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["ALLOW"])
    names = [name for names in allow.values() for name in names]
    assert names and len(names) == len(set(names))
    for name in names:
        mod, *path = name.split(".")
        obj = importlib.import_module(f"zkit.{mod}")
        for part in path:
            obj = getattr(obj, "__dict__", {}).get(part)
        obj = getattr(obj, "fget", getattr(obj, "func", obj))  # properties
        assert (getattr(obj, "__module__", None) == f"zkit.{mod}"
                and obj.__qualname__ == ".".join(path)
                and callable(obj)), name


def _statement_classes() -> set:
    """The node classes of the statements that the corpus parses to,
    and of verify, which no corpus script has: it reads a report file."""
    from zkit.dsl import parse
    sources = [path.read_text() for path in
               (ROOT / "tests" / "scripts").glob("*.zk")]
    return {stmt.__class__ for source in [*sources, 'verify "r.json";']
            for stmt in parse(source).statements}


def test_one_syntax_line_and_one_runner_per_statement_kind():
    """dsl._SYNTAX and interp._RUN are keyed by the same statement node
    classes, one for each statement kind that a script can hold."""
    from zkit import dsl, interp
    kinds = _statement_classes()
    assert len(kinds) == 13
    assert set(dsl._SYNTAX) == set(interp._RUN) == kinds


def _isinstance_calls(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"]


def test_no_isinstance_ladder_over_statement_kinds():
    """interp asks no isinstance of a statement node class, and
    dsl.print_statement asks no isinstance at all: each statement kind
    is dispatched through its table entry."""
    names = {cls.__name__ for cls in _statement_classes()}
    tree = ast.parse((ROOT / "src" / "zkit" / "interp.py").read_text())
    found = [ast.unparse(call) for call in _isinstance_calls(tree)
             if {node.attr for node in ast.walk(call.args[1])
                 if isinstance(node, ast.Attribute)} & names]
    assert not found, f"isinstance on statement classes in interp: {found}"
    tree = ast.parse((ROOT / "src" / "zkit" / "dsl.py").read_text())
    printer = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "print_statement")
    assert not _isinstance_calls(printer)


def test_tables_hold_no_traced_function():
    """The tracer swaps a wrapped function's module-global bindings, so
    a table that held one would call it unwrapped: no value of
    interp._RUN, of dsl._SLOT_PRINTERS or of a statement's parts is a
    function that bench/trace.py wraps."""
    from zkit import dsl, interp
    traced = {getattr(importlib.import_module(f"zkit.{mod}"), attr)
              for mod, attr in _traced()}
    held = [*interp._RUN.values(), *dsl._SLOT_PRINTERS.values()]
    held += [fn for parts in dsl._PARTS.values()
             for _, read, _, show in parts for fn in (read, show)]
    assert not [fn for fn in held if fn in traced]


def _tracer_wrappers():
    """{method name: (its inner wrapper's FunctionDef, attributes it
    reads on fn)} for the methods of bench/trace.py's Tracer that wrap a
    zkit function with a signature of their own."""
    source = (ROOT / "bench" / "trace.py").read_text()
    tracer = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    out = {}
    for method in tracer.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        wrapper = next((node for node in ast.walk(method)
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "wrapper"), None)
        reads = {node.attr for node in ast.walk(method)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "fn"}
        out[method.name] = (wrapper, reads)
    return out


def test_trace_wrappers_match_signatures():
    """The tracer calls poly.buchberger(ctx, gens, track=..,
    stop_at_one=..) and reads len(out[0]), reads ideals.groebner's
    cache_info(), and calls rings.enumerate_homs(domain, codomain): each
    wrapper's parameters must bind to the zkit function's signature, its
    keyword-only ones as keyword-only, with nothing else required, and
    every attribute it reads on the function must exist."""
    import inspect
    wrappers = _tracer_wrappers()
    for method, (mod, attr) in {"buchberger": ("poly", "buchberger"),
                                "groebner": ("ideals", "groebner"),
                                "enumerate_homs": ("rings",
                                                   "enumerate_homs")}.items():
        wrapper, reads = wrappers[method]
        fn = getattr(importlib.import_module(f"zkit.{mod}"), attr)
        params = inspect.signature(fn).parameters
        positional = [a.arg for a in wrapper.args.args]
        keywords = [a.arg for a in wrapper.args.kwonlyargs]
        assert list(params)[:len(positional)] == positional, method
        for name in keywords:
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        required = [name for name, p in params.items()
                    if p.default is inspect.Parameter.empty]
        assert set(required) <= set(positional), (method, required)
        for name in reads:
            assert hasattr(fn, name), f"zkit.{mod}.{attr}.{name}"
    assert wrappers["groebner"][1] == {"cache_info"}
    assert [a.arg for a in wrappers["buchberger"][0].args.kwonlyargs] == [
        "track", "stop_at_one"]
    from zkit.poly import PolyContext, Rationals, buchberger, var_poly
    ctx = PolyContext(Rationals(), 1)
    for track in (False, True):
        for stop_at_one in (False, True):
            out = buchberger(ctx, [var_poly(ctx, 0)], track=track,
                             stop_at_one=stop_at_one)
            assert len(out[0]) == 1


def test_src_has_no_assert_statements():
    """Invariants raise: `python -O` strips assert statements.  So do the
    test helpers and conftest, which hold the post-hoc Buchberger check
    that the suite also runs under -O."""
    found = []
    paths = [*sorted((ROOT / "src" / "zkit").rglob("*.py")),
             ROOT / "tests" / "helpers.py", ROOT / "tests" / "conftest.py"]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements: {found}"


_CACHES = {"lru_cache", "cache"}  # functools' memoizing decorators
_EMPTY = {"set", "dict", "list"}  # empty when called with no arguments
_STATE = {"OrderedDict", "defaultdict", "deque", "Counter", "ChainMap",
          "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}


def _cache_names(tree):
    """The names one module binds to functools' caches, and those it
    binds to functools itself, by its imports (aliases included)."""
    caches, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            caches |= {a.asname or a.name for a in node.names
                       if a.name in _CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
    return caches, modules


def _is_cache(node, names) -> bool:
    caches, modules = names
    return (isinstance(node, ast.Name) and node.id in caches
            or isinstance(node, ast.Attribute) and node.attr in _CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules)


def _cache_factory(node, names) -> bool:
    """A cache decorator itself, or one called without a function."""
    return _is_cache(node, names) or (isinstance(node, ast.Call)
                                      and _is_cache(node.func, names)
                                      and not node.args)


def _is_state(node) -> bool:
    """An empty {}, [], set(), dict() or list(), or any call of a
    mutable container type of collections or weakref."""
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Dict):
        return not node.keys
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)
    return (name in _STATE
            or name in _EMPTY and not node.args and not node.keywords)


def test_src_keeps_no_module_level_cache():
    """Nothing a run computes outlives it in a module, apart from
    ideals.groebner's LRU (read by the tracer) and poly._Layout's table,
    which is keyed by arity, order and width, not by input values.  In
    src/zkit, functools' lru_cache and cache, under any import alias, are
    applied, as a decorator or as a call, to those two only; and no
    module-level name is bound to an empty {}, [], set(), dict() or
    list(), or to an OrderedDict, defaultdict, deque, Counter, ChainMap
    or weak container.  Non-empty literal tables (ORDER_KEYS, _PREC and
    the like) are constants and are not checked.  No module-level name
    of an imported zkit module holds an instance of a zkit class other
    than a frozen record (such as poly._ZZ)."""
    allowed = {("ideals.py", "groebner"), ("poly.py", "_Layout")}
    applied, refs, state = [], 0, []
    for path in sorted((ROOT / "src" / "zkit").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _cache_names(tree)
        for node in ast.walk(tree):
            refs += _is_cache(node, names)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                applied += [(path.name, node.name)
                            for d in node.decorator_list
                            if _cache_factory(d, names)]
            elif (isinstance(node, ast.Call)
                  and _cache_factory(node.func, names) and node.args):
                applied.append((path.name, ast.unparse(node.args[0])))
        state += [f"{path.name}:{node.lineno}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None and _is_state(node.value)]
        module = importlib.import_module(f"zkit.{path.stem}")
        state += [f"{path.name}:{name}" for name, value in vars(module).items()
                  if type(value).__module__.startswith("zkit.")
                  and type(value).__setattr__ is not _frozen_setattr]
    assert set(applied) <= allowed, f"caches applied to {applied}"
    assert refs == len(applied), "a cache is named but not applied"
    assert not state, f"module-level mutable state in src/zkit: {state}"


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    """tools/code_lines.py counts a line when it holds a token that is
    neither a comment nor a docstring; every line of a multi-line string
    that is not a docstring counts."""
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    path = tmp_path / "m.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\n'
                    'def f():\n    """Doc."""\n    return """a\nb"""  # c\n'
                    '\n\nclass C:\n    x = 1\n')
    assert code_lines.count(path) == (12, 5)
