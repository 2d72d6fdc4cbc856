"""Source hygiene of the package: every imported name is used."""
import ast
from pathlib import Path

import qwhile

PACKAGE = Path(qwhile.__file__).parent


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
