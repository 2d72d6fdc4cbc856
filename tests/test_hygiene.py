"""Source hygiene of the package: every imported name is used, every
module-level and class-level definition is referenced somewhere, nothing
is keyed on object identity, scipy is imported only where it is used,
and the benchmark's trace targets still name functions of the package."""
import ast
import importlib.util
from collections import Counter
from pathlib import Path

import qwhile

PACKAGE = Path(qwhile.__file__).parent
REPO = PACKAGE.parent.parent
# besides the package itself, where a package definition may be referenced
REFERRING = (REPO / "tests", REPO / "perfbench")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _referenced(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_scan_finds_unused_names():
    source = ("import os\nimport a.b\nfrom x import y as z, w\n"
              "def f(v: 'Q') -> 'w':\n    return a.c\n")
    assert unused_imports(source) == [("os", 1), ("z", 3)]


def test_no_unused_imports():
    # __init__.py files import names to re-export them
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"
             for name, line in unused_imports(path.read_text())]
    assert found == []


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each module-level function, class and assigned
    name, and of each method and assigned name in a class body (class
    fields declared by annotation only are data, not definitions);
    dunder names are left out."""
    found = []

    def visit(body, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, True)
            elif isinstance(node, ast.Assign):
                found.extend((t.id, node) for t in node.targets if isinstance(t, ast.Name))
            elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and not in_class):
                found.append((node.target.id, node))

    visit(tree.body, False)
    return [(name, node) for name, node in found
            if not (name.startswith("__") and name.endswith("__"))]


def references(tree: ast.AST) -> Counter:
    """How often each name is read, as a name or an attribute, or spelled
    as a whole (dotted) string such as an `__all__` entry or a
    `getattr` key."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                used.update(parts)
    return used


def unreferenced(package_sources: dict[str, str], other_sources: list[str]) -> list[str]:
    """`file:line: name` of every definition in package_sources that no
    source reads outside the definition itself (so recursion does not
    count). Names are matched by spelling only."""
    trees = {path: ast.parse(text) for path, text in package_sources.items()}
    total = Counter()
    for tree in list(trees.values()) + [ast.parse(text) for text in other_sources]:
        total += references(tree)
    found = []
    for path, tree in trees.items():
        for name, node in definitions(tree):
            own = 0 if isinstance(node, ast.Assign) else references(node)[name]
            if total[name] <= own:
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def test_scan_finds_unreferenced_definitions():
    package = {"m.py": ("LIMIT = 3\nDEAD = 4\n__all__ = ['f']\n"
                        "def f(n):\n    return f(n - 1) if n else LIMIT\n"
                        "def loop(n):\n    return loop(n)\n"
                        "class C:\n    kind = 'c'\n    def used(self): pass\n"
                        "    def unused(self): pass\n    x: int = 0\n")}
    other = ["C().used()\ngetattr(C, 'kind')\n"]
    assert unreferenced(package, other) == ["m.py:2: DEAD", "m.py:6: loop", "m.py:11: unused"]


def test_no_unreferenced_definitions():
    package = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    others = [path.read_text() for root in REFERRING for path in sorted(root.rglob("*.py"))]
    assert unreferenced(package, others) == []


def unserved(layer: dict[str, str], package: dict[str, str]) -> list[str]:
    """`file:line: name` of every definition in the `layer` modules that
    neither the layer nor the rest of `package` reads, so that only tests
    or the benchmark could. `__init__.py` files count on neither side:
    re-exporting a name is no use."""
    own = {path: text for path, text in layer.items() if Path(path).name != "__init__.py"}
    rest = [text for path, text in package.items()
            if path not in layer and Path(path).name != "__init__.py"]
    return unreferenced(own, rest)


def test_scan_finds_definitions_the_package_does_not_read():
    layer = {"core/__init__.py": "from .m import f, h\n__all__ = ['f', 'h']\n",
             "core/m.py": "TOL = 1e-12\ndef f(): return g()\ndef g(): pass\ndef h(): pass\n"}
    package = {**layer, "engine/__init__.py": "from ..core import h\n__all__ = ['h']\n",
               "engine/e.py": "from ..core.m import f\nf()\n"}
    assert unserved(layer, package) == ["core/m.py:1: TOL", "core/m.py:4: h"]


def test_core_serves_the_package():
    # core holds what the package runs on; a reference that only tests
    # read is written out in the tests
    package = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    layer = {path: text for path, text in package.items() if Path(path).parent == Path("core")}
    assert unserved(layer, package) == []


def _exports(tree: ast.Module) -> list[ast.Assign]:
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]


def unread_exports(package_sources: dict[str, str], other_sources: list[str]) -> list[str]:
    """`file: name` of every `__all__` entry in package_sources that no
    source reads outside the `__init__.py` files, the `__all__` lists and
    the entry's own definition: being listed or re-exported is no use."""
    trees = {path: ast.parse(text) for path, text in package_sources.items()}
    total, own = Counter(), Counter()
    for path, tree in trees.items():
        if Path(path).name == "__init__.py":
            continue
        total += references(tree)
        for node in _exports(tree):
            total -= references(node)
        for name, node in definitions(tree):
            if not isinstance(node, ast.Assign):
                own[name] += references(node)[name]
    for text in other_sources:
        total += references(ast.parse(text))
    return [f"{path}: {entry}" for path, tree in trees.items() for node in _exports(tree)
            for entry in ast.literal_eval(node.value) if total[entry] <= own[entry]]


def test_scan_finds_unread_exports():
    package = {"p/__init__.py": "from .m import f, g, h, k\n__all__ = ['f', 'g', 'h', 'k']\n",
               "p/m.py": ("__all__ = ['g']\ndef f(): return g()\ndef g(): return 1\n"
                          "def h(n): return h(n - 1)\ndef k(): pass\n")}
    other = ["import p\np.f()\n"]
    assert unread_exports(package, other) == ["p/__init__.py: h", "p/__init__.py: k"]


def test_every_export_is_read():
    package = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    others = [path.read_text() for root in REFERRING for path in sorted(root.rglob("*.py"))]
    assert unread_exports(package, others) == []


def identity_reads(source: str) -> list[int]:
    """Lines that read the builtin `id`, by calling it or otherwise: an
    identity is reused once its object is gone and stays the same when
    the object changes, so no cache or table may be keyed on it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "id"
                  and isinstance(node.ctx, ast.Load))


def test_scan_finds_identity_keys():
    source = ("cache = {}\ndef f(x):\n    return cache.setdefault(id(x), x)\n"
              "key = id\nrecord.id = 3\nprint(record.id, 'id')\n")
    assert identity_reads(source) == [3, 4]


def test_nothing_is_keyed_on_id():
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py")) for line in identity_reads(path.read_text())]
    assert found == []


def closeness_calls(source: str) -> list[int]:
    """Lines that read numpy's `allclose` or `isclose`, as an attribute or
    a name: the engine compares states under its one merge rule instead."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute) and node.attr in ("allclose", "isclose"))
                  or (isinstance(node, ast.Name) and node.id in ("allclose", "isclose")))


def test_scan_finds_closeness_calls():
    source = ("import numpy as np\nfrom numpy import isclose\n"
              "ok = np.allclose(a, b)\nnear = isclose(a, b)\n"
              "'''np.allclose in a docstring'''\nf = np.abs(a - b).max() <= atol\n")
    assert closeness_calls(source) == [3, 4]


def test_engine_compares_states_under_one_rule():
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted((PACKAGE / "engine").rglob("*.py"))
             for line in closeness_calls(path.read_text())]
    assert found == []


def eager_imports(source: str, package: str) -> list[int]:
    """Lines that import `package` or one of its modules outside a
    function body, so that importing the module loads it."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and not in_function:
                names = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                         else [child.module or ""] if child.level == 0 else [])
                if any(name.split(".")[0] == package for name in names):
                    found.append(child.lineno)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), False)
    return sorted(found)


def test_scan_finds_eager_imports():
    source = ("import scipy\nfrom scipy.linalg import schur\nimport scipyx, numpy\n"
              "class C:\n    import scipy.sparse\n"
              "def f():\n    from scipy import linalg\n    return linalg\n"
              "if True:\n    import numpy, scipy as sp\nfrom . import scipy\n")
    assert eager_imports(source, "scipy") == [1, 2, 5, 10]


def test_scipy_is_imported_only_inside_functions():
    # only synthesis uses scipy; every other command starts without it
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in eager_imports(path.read_text(), "scipy")]
    assert found == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# targets known not to resolve: their functions were folded into others or
# (core.ops) deleted, and their metrics read 0 until the benchmark drops or
# renames them
KNOWN_MISSING = {
    "qwhile.cli.validate_program",
    "qwhile.engine.runtime.embed",
    "qwhile.engine.runtime.conjugate_density",
    "qwhile.engine.runtime.partial_trace",
    "qwhile.engine.runtime.sample_outcome",
    "qwhile.experiments.bb84.sample_outcome",
    "qwhile.core.ops.apply_superoperator",
    "qwhile.core.ops.measurement_probabilities",
}


def test_the_benchmark_trace_targets_resolve():
    # a renamed function would make its traced metric read 0 without a failure
    tracing = _load_tracing()
    missing = {f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if tracing._lookup(module, attr) is None}
    assert missing <= KNOWN_MISSING
