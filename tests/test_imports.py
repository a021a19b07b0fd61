"""Static checks on the package source: every imported name is used, and
every module-level private name is read."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "smoothloc"


def unused_imports(tree: ast.Module) -> list:
    """The names the module's imports bind and the module never reads.

    `__future__` imports, and names listed in `__all__` (re-exports), are
    exempt.  A name read anywhere in the module counts as used.
    """
    bound = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_check_finds_an_unused_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom typing import Sequence, Tuple\n"
                     "from .x import exported\n__all__ = ['exported']\n"
                     "def f(a: Tuple) -> None:\n    return os.sep\n")
    assert unused_imports(tree) == ["Sequence (line 3)"]


def _defined_names(node: ast.stmt) -> list:
    """The names a module-level def, class or plain assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_privates(trees: dict) -> list:
    """The module-level private functions, classes and constants (one
    leading underscore) that no module of `trees` (name -> module) reads.

    A read is a load of the name, an attribute of that name (as in
    `models._special`) or a `from ... import` of it, in any module.
    """
    defined = []
    read = set()
    for module, tree in trees.items():
        for node in tree.body:
            defined += [(name, module, node.lineno) for name in _defined_names(node)
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{name} ({module} line {line})"
                  for name, module, line in defined if name not in read)


def test_package_reads_every_private_name():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    assert unread_privates(trees) == []


def test_unread_private_check_finds_an_unread_name():
    trees = {"a.py": ast.parse("_A = 1\n_B: int = 2\n__all__ = []\n"
                               "def _f():\n    return _A\n"
                               "class _C:\n    _field = 0\n"
                               "def _g():\n    pass\n"),
             "b.py": ast.parse("from .a import _f\nimport a\n"
                               "_B = 3\nx = a._g\n")}
    assert unread_privates(trees) == ["_B (a.py line 2)", "_B (b.py line 3)",
                                      "_C (a.py line 6)"]
