"""Static check on the package source: every imported name is used."""

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
