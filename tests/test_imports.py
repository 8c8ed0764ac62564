"""Every name a package module imports is used in that module.

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
