"""Source hygiene of the package: every imported name is used, every
module-level and class-level definition is referenced somewhere, nothing
is keyed on object identity, scipy is imported only where it is used,
core, synthesis and the experiments never import the engine's runtime,
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


def module_name(path: str) -> str:
    """'qwhile/core/linalg.py' -> 'qwhile.core.linalg'; a package's
    '__init__.py' names the package."""
    parts = Path(path).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _stand_in(node: ast.AST) -> str | None:
    """The dotted name that an assigned `on_first_call(namespace, module,
    name)` stands for (see qwhile.lazy), else None."""
    if (isinstance(node, ast.Call) and len(node.args) == 3
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "on_first_call"
            and all(isinstance(arg, ast.Constant) for arg in node.args[1:])):
        return f"{node.args[1].value}.{node.args[2].value}"
    return None


def _bindings(tree: ast.AST, module: str | None, is_package: bool) -> dict[str, set[str]]:
    """Each name that an import anywhere in tree binds -> the dotted names
    it is bound to. A relative import counts from `module`, and a name
    assigned a stand-in is bound to the function it stands for."""
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _stand_in(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, set()).add(_stand_in(node.value))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name if alias.asname else alias.name.split(".")[0]
                bound.setdefault(alias.asname or target, set()).add(target)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = node.module or ""
            if node.level:
                parts = (module or "").split(".")
                parts = parts[:len(parts) - node.level + is_package]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, set()).add(f"{base}.{alias.name}")
    return bound


class Index:
    """The modules of a package by dotted name, with what each defines at
    module level and what its imports bind, so that a read resolves to
    the definitions it reaches."""

    def __init__(self, sources: dict[str, str]):
        self.trees = {path: ast.parse(text) for path, text in sources.items()}
        self.defined: dict[str, set[str]] = {}
        self.bound: dict[str, dict[str, set[str]]] = {}
        self.packages = set()
        for path, tree in self.trees.items():
            module, is_package = module_name(path), Path(path).name == "__init__.py"
            if is_package:
                self.packages.add(module)
            self.defined[module] = {name for name, node in definitions(tree) if node in tree.body}
            self.bound[module] = _bindings(tree, module, is_package)

    def reached(self, dotted: str, seen: frozenset = frozenset()) -> set[str]:
        """The module-level definitions, as `module.name`, that a dotted
        name stands for: its own definition and what its binding reaches
        or, when a package neither defines nor binds the name, that name
        in the package's modules (which the package loads on first use).
        A module, or a name outside the package, reaches none."""
        module, _, name = dotted.rpartition(".")
        if dotted in self.defined or module not in self.defined or dotted in seen:
            return set()
        found = {dotted} if name in self.defined[module] else set()
        for target in self.bound[module].get(name, ()):
            found |= self.reached(target, seen | {dotted})
        if not found and module in self.packages:
            found = {f"{m}.{name}" for m in self.defined
                     if m.startswith(module + ".") and name in self.defined[m]}
        return found

    def modules_of(self, node: ast.AST, bound: dict[str, set[str]]) -> set[str]:
        """The modules of the package that an expression names."""
        if isinstance(node, ast.Name):
            return {target for target in bound.get(node.id, ()) if target in self.defined}
        if isinstance(node, ast.Attribute):
            return {f"{m}.{node.attr}" for m in self.modules_of(node.value, bound)
                    if f"{m}.{node.attr}" in self.defined}
        return set()


def references(node: ast.AST, index: Index, module: str | None = None) -> Counter:
    """How often node reads each name, as a name or an attribute, or
    spelled as a whole (dotted) string such as an `__all__` entry or a
    `getattr` key. A read counts under its spelling, and once under each
    module-level definition of the package it reaches (`module.name`):
    a name through the imports and definitions of `module` (of node
    itself when module is None), `m.x` when m names a module of the
    package, and a string that is a dotted name in the package or, in a
    module of the package, a name of that module."""
    bound = index.bound[module] if module else _bindings(node, None, False)

    def reached_name(name: str) -> set[str]:
        if module:
            return index.reached(f"{module}.{name}")
        return set().union(*(index.reached(target) for target in bound.get(name, ())))

    def reached_string(parts: list[str]) -> set[str]:
        if len(parts) == 1:
            return index.reached(f"{module}.{parts[0]}") if module else set()
        for i in range(len(parts) - 1, 0, -1):
            if ".".join(parts[:i]) in index.defined:
                return index.reached(".".join(parts[:i + 1]))
        return set()

    used = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            used[child.id] += 1
            used.update(reached_name(child.id))
        elif isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Store):
            used[child.attr] += 1
            for m in index.modules_of(child.value, bound):
                used.update(index.reached(f"{m}.{child.attr}"))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            parts = child.value.split(".")
            if all(part.isidentifier() for part in parts):
                used.update(parts)
                used.update(reached_string(parts))
    return used


def unread(index: Index, defining: list[str], reading: list[str], others: list[str]) -> list[str]:
    """`file:line: name` of every definition in the `defining` files of
    the index that neither the `reading` files nor the `others` sources
    read outside the definition itself (so recursion does not count). A
    module-level definition counts the reads that reach it; a method or
    class attribute, which any object may carry, the reads of its name."""
    total = Counter()
    for path in reading:
        total += references(index.trees[path], index, module_name(path))
    for text in others:
        total += references(ast.parse(text), index)
    found = []
    for path in defining:
        tree, module = index.trees[path], module_name(path)
        for name, node in definitions(tree):
            key = f"{module}.{name}" if node in tree.body else name
            own = 0 if isinstance(node, ast.Assign) else references(node, index, module)[key]
            if total[key] <= own:
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def unreferenced(package_sources: dict[str, str], other_sources: list[str]) -> list[str]:
    """`file:line: name` of every definition in package_sources (keyed by
    path from the package's parent) that no source reads outside the
    definition itself."""
    paths = list(package_sources)
    return unread(Index(package_sources), paths, paths, other_sources)


def package_sources() -> dict[str, str]:
    return {str(path.relative_to(PACKAGE.parent)): path.read_text()
            for path in sorted(PACKAGE.rglob("*.py"))}


def other_sources() -> list[str]:
    return [path.read_text() for root in REFERRING for path in sorted(root.rglob("*.py"))]


def test_scan_finds_unreferenced_definitions():
    package = {"m.py": ("LIMIT = 3\nDEAD = 4\n__all__ = ['f']\n"
                        "def f(n):\n    return f(n - 1) if n else LIMIT\n"
                        "def loop(n):\n    return loop(n)\n"
                        "class C:\n    kind = 'c'\n    def used(self): pass\n"
                        "    def unused(self): pass\n    x: int = 0\n")}
    other = ["from m import C\nC().used()\ngetattr(C, 'kind')\n"]
    assert unreferenced(package, other) == ["m.py:2: DEAD", "m.py:6: loop", "m.py:11: unused"]


def test_scan_resolves_each_read_through_its_binding():
    # through an import, an attribute of a module of p, a name of the same
    # module, a package that loads its modules on first use, or a
    # stand-in; numpy's kron, trace and linalg.rank read nothing of p
    package = {
        "p/__init__.py": "",
        "p/core/__init__.py": "from .linalg import dagger, kron\n",
        "p/core/linalg.py": ("def kron(a, b): pass\ndef dagger(m): pass\n"
                             "def trace(m): pass\ndef norm(m): return trace(m)\n"
                             "def unit(m): pass\ndef rank(m): pass\n"),
        "p/exp/__init__.py": ("def __getattr__(name):\n"
                              "    return getattr(__import__('p.exp.grover'), name)\n"),
        "p/exp/grover.py": "def grover_run(): pass\ndef iterate(): pass\ndef sweep(): pass\n",
        "p/run.py": ("import numpy as np\nimport p.core.linalg\nfrom .core import linalg\n"
                     "from .core import dagger as adjoint\nfrom . import exp\n"
                     "from .lazy import on_first_call\n"
                     "sweep = on_first_call(globals(), 'p.exp.grover', 'sweep')\n"
                     "np.kron(1, 2)\nnp.trace(1)\nnp.linalg.rank(1)\nadjoint(linalg.norm(1))\n"
                     "p.core.linalg.unit(1)\nexp.grover_run()\nsweep()\n"),
        "p/lazy.py": "def on_first_call(namespace, module, name): pass\n",
    }
    assert unreferenced(package, ["import p.exp\np.exp.iterate\n"]) == [
        "p/core/linalg.py:1: kron", "p/core/linalg.py:6: rank"]


def test_no_unreferenced_definitions():
    assert unreferenced(package_sources(), other_sources()) == []


def unserved(layer: dict[str, str], package: dict[str, str]) -> list[str]:
    """`file:line: name` of every definition in the `layer` modules that
    neither the layer nor the rest of `package` reads, so that only tests
    or the benchmark could. `__init__.py` files count on neither side:
    re-exporting a name is no use (their imports still resolve reads)."""
    own = [path for path in layer if Path(path).name != "__init__.py"]
    rest = [path for path in package if path not in layer and Path(path).name != "__init__.py"]
    return unread(Index(package), own, own + rest, [])


def test_scan_finds_definitions_the_package_does_not_read():
    layer = {"core/__init__.py": "from .m import f, h\n__all__ = ['f', 'h']\n",
             "core/m.py": "TOL = 1e-12\ndef f(): return g()\ndef g(): pass\ndef h(): pass\n"}
    package = {**layer, "engine/__init__.py": "from ..core import h\n__all__ = ['h']\n",
               "engine/e.py": "from ..core.m import f\nf()\n"}
    assert unserved(layer, package) == ["core/m.py:1: TOL", "core/m.py:4: h"]


def _layer(package: dict[str, str], name: str) -> dict[str, str]:
    return {path: text for path, text in package.items()
            if Path(path).parent == Path("qwhile", name)}


def test_core_serves_the_package():
    # core holds what the package runs on; a reference that only tests
    # read is written out in the tests
    package = package_sources()
    assert unserved(_layer(package, "core"), package) == []


def test_engine_serves_the_package():
    # so does the engine: a result accessor that only tests read is
    # written out in the tests
    package = package_sources()
    assert unserved(_layer(package, "engine"), package) == []


def test_synth_serves_the_package():
    # synthesis too: a formula that only tests read is written out in the tests
    package = package_sources()
    assert unserved(_layer(package, "synth"), package) == []


def runtime_imports(source: str, package: str) -> list[int]:
    """Lines of a module of the dotted `package` that import from the
    engine's runtime, absolutely or relatively."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) - node.level + 1] if node.level else []
            target = ".".join(base + (node.module.split(".") if node.module else []))
            names = [target] + [f"{target}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if "qwhile.engine.runtime" in names:
            found.append(node.lineno)
    return found


def test_scan_finds_runtime_imports():
    source = ("from ..engine.runtime import site_kernel\nfrom ..engine import runtime\n"
              "import qwhile.engine.runtime\nfrom ..core.kernels import state_of\n"
              "from ..engine.sampler import Outcomes\nfrom .runtime import step\n")
    assert runtime_imports(source, "qwhile.experiments") == [1, 2, 3]
    assert runtime_imports(source, "qwhile.engine") == [1, 2, 3, 6]


def test_kernels_are_taken_from_core():
    # core, synthesis and the experiments sit below the engine: they apply
    # operators through core.kernels, never through the engine's runtime
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for layer in ("core", "synth", "experiments")
             for path in sorted((PACKAGE / layer).rglob("*.py"))
             for line in runtime_imports(path.read_text(), f"qwhile.{layer}")]
    assert found == []


def test_scan_finds_a_core_helper_that_only_tests_read():
    # the package calls numpy's kron, and tests may read this one: neither
    # is a use of it
    package = package_sources()
    package["qwhile/core/linalg.py"] += "\n\ndef kron(a, b):\n    return np.kron(a, b)\n"
    assert [line.split(": ")[-1] for line in unserved(_layer(package, "core"), package)] == ["kron"]


def _exports(tree: ast.Module) -> list[ast.Assign]:
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]


def unread_exports(package_sources: dict[str, str], other_sources: list[str]) -> list[str]:
    """`file: name` of every `__all__` entry in package_sources that no
    source reads outside the `__init__.py` files, the `__all__` lists and
    the entry's own definition: being listed or re-exported is no use.
    An entry counts the reads that reach the definition it stands for."""
    index = Index(package_sources)
    total, own = Counter(), Counter()
    for path, tree in index.trees.items():
        if Path(path).name == "__init__.py":
            continue
        module = module_name(path)
        total += references(tree, index, module)
        for node in _exports(tree):
            total -= references(node, index, module)
        for name, node in definitions(tree):
            if node in tree.body and not isinstance(node, ast.Assign):
                key = f"{module}.{name}"
                own[key] += references(node, index, module)[key]
    for text in other_sources:
        total += references(ast.parse(text), index)
    return [f"{path}: {entry}" for path, tree in index.trees.items() for node in _exports(tree)
            for entry in ast.literal_eval(node.value)
            if not any(total[key] > own[key]
                       for key in index.reached(f"{module_name(path)}.{entry}"))]


def test_scan_finds_unread_exports():
    package = {"p/__init__.py": "from .m import f, g, h, k\n__all__ = ['f', 'g', 'h', 'k']\n",
               "p/m.py": ("__all__ = ['g']\ndef f(): return g()\ndef g(): return 1\n"
                          "def h(n): return h(n - 1)\ndef k(): pass\n"),
               "q.py": "def k(): pass\nk()\n"}
    other = ["import p\np.f()\n"]
    assert unread_exports(package, other) == ["p/__init__.py: h", "p/__init__.py: k"]


def test_every_export_is_read():
    assert unread_exports(package_sources(), other_sources()) == []


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
