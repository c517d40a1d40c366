"""Import hygiene of the package.

The runtime dependency is numpy alone: every import in the package is numpy,
nsdfm or the standard library.  Every name a module imports is used in that
module, so a pass that removes code leaves no import behind.  And every name
a module exports is used by package code, so no API is kept that only tests
call, and every field and property of a package dataclass is read by package
code, so no field is kept that only tests read.  Both go by name: a load of
the same attribute on any object counts as a read.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass" for d in node.decorator_list)


def _called(call: ast.Call) -> str | None:
    """The name a call looks its function up by: ``f`` of ``f(...)`` and of ``module.f(...)``."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


def _iterated_classes(trees: dict[str, ast.Module]) -> set[str]:
    """The classes whose fields package code iterates: a ``fields`` or ``asdict`` call names the class,
    passes ``self`` inside it, or passes a parameter annotated with it or a local bound from a call of a
    function whose return annotation is the class."""
    returns = {node.name: node.returns.id for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and isinstance(node.returns, ast.Name)}
    iterated = set()

    def visit(node, cls, annotations):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = {a.arg: getattr(a.annotation, "id", None) for a in node.args.args}
            annotations |= {target.id: returns.get(_called(stmt.value)) for stmt in ast.walk(node)
                            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                            for target in stmt.targets if isinstance(target, ast.Name)}
        if isinstance(node, ast.Call) and node.args:
            arg = getattr(node.args[0], "id", None)
            if _called(node) in ("fields", "asdict") and arg is not None:
                iterated.add(cls if arg == "self" else annotations.get(arg) or arg)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, annotations)

    for tree in trees.values():
        visit(tree, None, {})
    return iterated


def test_every_dataclass_field_is_read_by_package_code():
    # a field or property counts as read where package code loads it as an attribute outside the
    # statement that defines it, the class's own methods included; a class whose fields the package
    # iterates is exempt
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in _modules()}
    classes = [(module, node) for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)]
    assert len(classes) > 10
    iterated = _iterated_classes(trees)
    assert {"Params", "MCConfig"} <= iterated
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, cls in classes:
        if cls.name in iterated:
            continue
        defined = {stmt.target.id: stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
        defined |= {stmt.name: stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
                    and any(getattr(d, "id", None) == "property" for d in stmt.decorator_list)}
        for name, stmt in defined.items():
            own = {id(node) for node in ast.walk(stmt)}
            if not any(node.attr == name and id(node) not in own for node in loads):
                unread.append(f"{module}: {cls.name}.{name}")
    assert not unread, unread
