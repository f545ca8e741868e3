"""Static checks over the package source, with the stdlib `ast` only."""

import ast
from pathlib import Path

import cfinite

SRC = Path(cfinite.__file__).parent


def unused_imports(tree):
    """(line, name) of every imported name never read in the module.

    Names listed in a literal ``__all__`` count as read (re-exports);
    ``from __future__`` imports are directives, not bindings.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_checker_flags_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import xml.dom\n"
        "from math import gcd, lcm as least\n"
        "__all__ = ['gcd']\n"
        "print(xml.dom, osp)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (4, "least")]


def test_no_unused_imports_in_package():
    found = {
        path.name: unused_imports(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: dead for name, dead in found.items() if dead} == {}
