"""Import hygiene of the package.

The runtime dependency is numpy alone: every import in the package is numpy,
nsdfm or the standard library.  Every name a module imports is used in that
module, so a pass that removes code leaves no import behind.  And every name
a module exports is used by package code, so no API is kept that only tests
call, and every field and property of a package dataclass is read by package
code, so no field is kept that only tests read.  An export goes by name: a
load of the same name or attribute anywhere counts as a use.  A field goes by
name and receiver: a load of the same attribute counts toward class C only
when its receiver is typed C or cannot be typed.
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


def _type_name(annotation: ast.expr | None) -> str | None:
    """The class an annotation names, ``C``, ``"C"`` or ``module.C`` as written; None for any other form."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return ast.unparse(annotation) if isinstance(annotation, ast.Attribute) else None


def _typed_nodes(trees: dict[str, ast.Module]) -> list[tuple[ast.AST, dict]]:
    """Every node of package code with the classes its function's names are typed by.

    ``self`` is typed by the enclosing class, a parameter by its annotation, and a
    local bound from a call by the called function's return annotation.  A name
    bound any other way, or to two different classes, is untyped (None), and so is
    a name the function does not bind.
    """
    returns = {node.name: _type_name(node.returns) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = []

    def visit(node, cls, types):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            types = {a.arg: _type_name(a.annotation) for a in args.posonlyargs + args.args + args.kwonlyargs}
            calls = {id(target): returns.get(_called(stmt.value)) for stmt in ast.walk(node)
                     if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call) for target in stmt.targets}
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    bound = calls.get(id(name))
                    types[name.id] = bound if types.get(name.id, bound) == bound else None
            types["self"] = cls
        out.append((node, types))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, types)

    for tree in trees.values():
        visit(tree, None, {})
    return out


def _iterated_classes(typed: list[tuple[ast.AST, dict]]) -> set[str]:
    """The classes whose fields package code iterates: a ``fields`` or ``asdict`` call passes the class
    itself or a name typed by it."""
    return {types.get(node.args[0].id) or node.args[0].id for node, types in typed
            if isinstance(node, ast.Call) and _called(node) in ("fields", "asdict")
            and node.args and isinstance(node.args[0], ast.Name)}


def _unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """The fields and properties of the dataclasses of ``trees`` that no code of ``trees`` reads.

    A field or property of class C counts as read where the code loads it as an
    attribute of a receiver typed C or untyped, outside the statement that defines
    it, the class's own methods included; a class whose fields the code iterates is
    exempt.
    """
    typed = _typed_nodes(trees)
    iterated = _iterated_classes(typed)
    loads = [(node, types.get(node.value.id) if isinstance(node.value, ast.Name) else None) for node, types in typed
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls) or cls.name in iterated:
                continue
            defined = {stmt.target.id: stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
            defined |= {stmt.name: stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
                        and any(getattr(d, "id", None) == "property" for d in stmt.decorator_list)}
            for name, stmt in defined.items():
                own = {id(node) for node in ast.walk(stmt)}
                if not any(node.attr == name and receiver in (None, cls.name) and id(node) not in own
                           for node, receiver in loads):
                    unread.append(f"{module}: {cls.name}.{name}")
    return unread


def test_every_dataclass_field_is_read_by_package_code():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in _modules()}
    assert sum(isinstance(node, ast.ClassDef) and _is_dataclass(node) for tree in trees.values()
               for node in tree.body) > 10
    assert {"Params", "MCConfig"} <= _iterated_classes(_typed_nodes(trees))
    unread = _unread_fields(trees)
    assert not unread, unread


# Report.config is loaded only through receivers typed by another class: a parameter by its
# annotation (argparse.Namespace) and a local by its call's return annotation (make() -> Sim)
RECEIVERS = """
import argparse
from dataclasses import dataclass


@dataclass
class Report:
    config: int
    elapsed: float


@dataclass
class Sim:
    config: int


def make() -> Sim:
    return Sim(1)


def use(args: argparse.Namespace, report: Report):
    sim = make()
    return args.config, sim.config, report.elapsed
"""


def test_a_field_read_counts_toward_its_receivers_class():
    assert _unread_fields({"m.py": ast.parse(RECEIVERS)}) == ["m.py: Report.config"]
    # an untyped receiver may be any class, so it reads the field of every class
    untyped = RECEIVERS.replace("args: argparse.Namespace", "args")
    assert _unread_fields({"m.py": ast.parse(untyped)}) == []
    # a name bound twice, by a typed call and otherwise, is untyped
    rebound = RECEIVERS.replace("    sim = make()", "    sim = make()\n    sim = args")
    assert _unread_fields({"m.py": ast.parse(rebound)}) == []
