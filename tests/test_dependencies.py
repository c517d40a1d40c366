"""The runtime dependency is numpy alone: every import in the package is numpy, nsdfm or the standard library."""

import ast
import sys
from pathlib import Path

import nsdfm

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nsdfm"}


def test_package_imports_only_numpy_and_the_standard_library():
    package = Path(nsdfm.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 5
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside nsdfm
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not outside, outside
