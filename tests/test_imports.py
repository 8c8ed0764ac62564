"""Every name a package module imports is used in that module, and so is
every private name it defines at module level.

__init__.py is skipped: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

import rosdos

MODULES = sorted(p for p in Path(rosdos.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as s\nfrom a import b, c\nb(os)\n") \
        == [(2, "s"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(source):
    """Module-level _names (functions, classes, assignments) that the module
    never loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in loaded)


def test_finds_an_unread_private_name():
    source = ("_A = 1\n_B, c = 2, 3\ndef _f():\n    return _A\n"
              "class _C:\n    pass\n__all__ = []\n")
    assert unread_private_names(source) == [(2, "_B"), (3, "_f"), (5, "_C")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []
