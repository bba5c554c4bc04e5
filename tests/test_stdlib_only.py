"""The package is pure Python on the standard library: every absolute
import in src/endochain is a stdlib module and the project declares no
runtime dependencies.  Every name a module imports is used in it, so a
deletion leaves no stale import behind, and sibling modules are imported at
module level only; ``endo`` does not import ``resolver``.  The one true
division is ``FieldSpec.div``.  An element of K has one type, a tuple of
LaurentPoly per branch."""

import ast
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
PKG = os.path.join(ROOT, "src", "endochain")


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def _absolute_imports(path):
    for node in ast.walk(_parse(path)):
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


def _unused_imports(path):
    tree = _parse(path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - used


def test_src_imports_are_used():
    # __init__.py imports names to re-export them
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py") and f != "__init__.py")
    assert files
    unused = {(f, name) for f in files for name in _unused_imports(os.path.join(PKG, f))}
    assert not unused


def _local_relative_imports(path):
    for node in ast.walk(_parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    yield node.name, inner.lineno


def test_src_sibling_imports_at_module_level():
    # a sibling import inside a function hides a module's dependencies and
    # re-runs on every call; the package has no import cycle that needs one
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert files
    local = {(f, name, line) for f in files for name, line in _local_relative_imports(os.path.join(PKG, f))}
    assert not local


def test_endo_does_not_import_resolver():
    # the summand guard is lattice.isomorphism, so the algebra layer does not
    # depend on the resolver
    imported = {
        name
        for node in ast.walk(_parse(os.path.join(PKG, "endo.py")))
        if isinstance(node, ast.ImportFrom)
        for name in [node.module or ""] + [alias.name for alias in node.names]
    }
    assert not {name for name in imported if name.split(".")[-1] == "resolver"}


def _divisions(path):
    """Lines of every ``/`` and ``/=`` outside ``FieldSpec.div``."""
    tree = _parse(path)
    allowed = {
        id(node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "FieldSpec"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "div"
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
        and id(node) not in allowed
    ]


def test_only_fieldspec_div_divides():
    # int / int is a float, so every coefficient quotient goes through
    # FieldSpec.div, which keeps QQ exact and GF(p) in its field
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert files
    found = {(f, line) for f in files for line in _divisions(os.path.join(PKG, f))}
    assert not found


def _modular_inverses(path):
    """Lines of every ``pow(x, -1, p)``."""
    return [
        node.lineno
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
        and ast.unparse(node.args[1]) == "-1"
    ]


def test_one_modular_inverse():
    # GF(p) rows are normalized by one inverse per row, taken in one place:
    # FieldSpec._inverse, which FieldSpec.div and FieldSpec.monic share
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    found = [(f, line) for f in files for line in _modular_inverses(os.path.join(PKG, f))]
    assert [f for f, _ in found] == ["field.py"]


def test_no_runtime_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        text = f.read()
    assert re.search(r"^dependencies = \[\]$", text, re.M)


def test_one_element_type():
    # an element of K is a vector of the rank-one Ambient; the retired
    # wrapper class is named nowhere in src/ or tests/
    name = "Branch" + "Vector"
    found = []
    for top in ("src", "tests"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if f.endswith(".py"):
                    with open(os.path.join(d, f)) as fh:
                        if name in fh.read():
                            found.append(f)
    assert not found
