"""Import hygiene of the package.

The runtime dependency is numpy alone: every import in the package is numpy,
nsdfm or the standard library.  Every name a module imports is used in that
module, so a pass that removes code leaves no import behind.  And every name
a module exports is used by package code, so no API is kept that only tests
call.
"""

import ast
import sys
from pathlib import Path

import nsdfm

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nsdfm"}


def _modules() -> list[Path]:
    package = Path(nsdfm.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 5
    return modules


def test_package_imports_only_numpy_and_the_standard_library():
    outside = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside nsdfm
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_imported_name_is_used():
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "import a.b" binds a; "import a.b as c" and "from a import b" bind the last name
                    bound = alias.asname or (alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name)
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def _bound(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or an assignment's plain targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_exported_name_is_used_by_package_code():
    # a name counts as used where package code loads it, as a name or an attribute, outside the
    # statement that defines it; docstrings and __all__ lists are strings, so they count for nothing
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in _modules()}
    loads = []
    for module, tree in trees.items():
        for stmt in tree.body:
            nodes = list(ast.walk(stmt))
            loaded = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            loaded |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            loads.append((module, _bound(stmt), loaded))
    unused = [f"{module}: {name}" for module, tree in trees.items() for name in sorted(_exported(tree))
              if not any(name in loaded and not (where == module and name in bound) for where, bound, loaded in loads)]
    assert not unused, unused
