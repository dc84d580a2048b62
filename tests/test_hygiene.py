"""Source hygiene of the runtime package: every imported name is used."""
import ast
from pathlib import Path

import pytest

import chered

MODULES = sorted(Path(chered.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in the module's
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_scanner_flags_unused_and_honours_all():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import gcd as g, lcm\n"
              "__all__ = ['lcm']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["g", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
