"""Import hygiene of the package.

The runtime dependency is numpy alone: every import in the package is numpy,
nsdfm or the standard library.  And every name a module imports is used in
that module, so a pass that removes code leaves no import behind.
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
