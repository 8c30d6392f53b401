"""The runtime depends on the standard library alone, and on its public
names, every module uses what it imports, every private helper has a
caller, every public function, exported or not, has a caller in the
package, the demos or the benchmark, and only the point gate's module
and the documents read point offsets."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coarsegeom"


def test_runtime_imports_only_the_standard_library():
    """Only the standard library's public names: none beginning with _
    (such as _json) and not json's c_make_encoder, so the package keeps to
    json's public API, which works where json's C accelerator is missing."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                parts = name.split(".")
                if parts[0] == "__future__":
                    continue
                if ((parts[0] != "coarsegeom" and parts[0] not in sys.stdlib_module_names)
                        or any(part.startswith("_") for part in parts)
                        or name == "json.encoder.c_make_encoder"):
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert not outside, outside


def test_modules_use_every_import():
    # __init__.py imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in bound.items()
                   if name not in used]
    assert not unused, unused


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_private_helpers_are_used():
    """Every private module-level function or class has a user, and every
    private attribute or method, one that src stores on an object or
    defines in a class body, is read somewhere in src: a store no one
    reads is a piece of an old design left behind."""
    defined, stored, used, read = {}, {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = ([item.name] if isinstance(item, ast.FunctionDef) else
                             [t.id for t in item.targets if isinstance(t, ast.Name)]
                             if isinstance(item, ast.Assign) else [])
                    stored.update((name, f"{path.name}:{item.lineno}")
                                  for name in names if _private(name))
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif _private(node.attr):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{where}: {name}" for name, where in defined.items() if name not in used]
    unread = [f"{where}: {name}" for name, where in stored.items() if name not in read]
    assert defined and stored
    assert not unused, unused
    assert not unread, unread


def test_exported_functions_have_a_system_caller():
    """Each public module-level function of the package, exported or not,
    and each public method or property of its classes, is read by another
    function of the package, by a demo or by the benchmark; the names that
    the benchmark's tracer wraps, listed as strings, count as read."""
    root = SRC.parent.parent
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    functions, used = {}, set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)  # a recursive call is not a caller
                if path.parent == SRC and not top.name.startswith("_"):
                    functions[top.name] = f"{path.name}:{top.lineno}"
            if isinstance(top, ast.ClassDef) and path.parent == SRC:
                functions.update((f"{top.name}.{item.name}", f"{path.name}:{item.lineno}")
                                 for item in top.body if isinstance(item, ast.FunctionDef)
                                 and not item.name.startswith("_"))
            used |= names
    tracer = ast.parse((root / "bench" / "tracer.py").read_text(encoding="utf-8"))
    used |= {part for node in ast.walk(tracer)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for part in node.value.split(".")}
    uncalled = [f"{where}: {name}" for name, where in functions.items()
                if name.rpartition(".")[2] not in used]
    assert functions
    assert not uncalled, uncalled


def test_only_the_point_gate_module_reads_offsets():
    """What makes a point valid and how it becomes integers live in
    metric_graph; elsewhere only documents, which writes points out, reads
    an interior point's offset."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("metric_graph.py", "documents.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "offset"]
    assert not readers, readers


def test_one_point_gate():
    """Only metric_graph._gate checks a point: the gate's message text
    "interior offset" is in no other function of the package, docstrings
    aside, so no second copy of its checks can drift from it."""
    holders = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = fn.body[0].value if isinstance(fn.body[0], ast.Expr) else None
            if any(isinstance(node, ast.Constant) and node is not doc
                   and isinstance(node.value, str) and "interior offset" in node.value
                   for node in ast.walk(fn)):
                holders.append(f"{path.stem}.{fn.name}")
    assert holders == ["metric_graph._gate"], holders


def test_one_heap_search():
    """Only metric_graph's Dijkstra imports heapq: every other distance is
    a closed form or a read of its rows, so a second heap search is a
    second engine."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "heapq" in names:
                importers.append(path.name)
    assert importers == ["metric_graph.py"], importers


def test_one_metric_per_graph():
    """Every distance read goes through a graph's _metric: the old
    closed-form slot, row cache, search adjacency and graph-side search
    are named nowhere in the package, and only gamma_spaces._layout_of
    tests a metric's class, so no reader branches on which metric a
    graph has."""
    gone = {"_closed_form", "_rows", "_iadj", "_search", "_row"}
    kinds = {"_ArmLayout", "_SearchedMetric"}
    found, testers = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and getattr(c.func, "id", None) == "isinstance"
                    and kinds & {n.id for n in ast.walk(c.args[1]) if isinstance(n, ast.Name)}
                    for c in ast.walk(fn)):
                testers.append(f"{path.stem}.{fn.name}")
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    else None)
            if name in gone:
                found.append(f"{path.name}:{node.lineno}: {name}")
        if "_closed_form" in text:  # not even in a docstring
            found.append(f"{path.name}: _closed_form")
    assert not found, found
    assert testers == ["gamma_spaces._layout_of"], testers
