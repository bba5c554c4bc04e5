"""The package is pure Python on the standard library: every absolute
import in src/endochain is a stdlib module and the project declares no
runtime dependencies."""

import ast
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
PKG = os.path.join(ROOT, "src", "endochain")


def _absolute_imports(path):
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_stdlib():
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert files
    outside = {
        (f, name)
        for f in files
        for name in _absolute_imports(os.path.join(PKG, f))
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_no_runtime_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        text = f.read()
    assert re.search(r"^dependencies = \[\]$", text, re.M)
