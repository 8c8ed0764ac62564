"""Every name a package module imports is used in that module, and so is
every private name it defines at module level, outside the definition
itself (a function that only calls itself is dead). Every public module-level
function or class is exported by __init__.py or read somewhere in the
package, bar the named exceptions in KEPT_UNREAD. Every field of a package
dataclass is read somewhere in the package, its tests or perfbench. Every
name a package function stores, bar _names, is loaded in that function.
Every public function or class of tests/reference.py is read by a test module
or by another reference.

__init__.py is skipped by the first two checks: its imports are the public
API.
"""

import ast
from collections import Counter
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


def loaded_names(tree):
    return Counter(node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def unread_private_names(source):
    """Module-level _names (functions, classes, assignments) that the module
    never loads outside their own definition."""
    tree = ast.parse(source)
    loaded = loaded_names(tree)
    unread = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        own = loaded_names(node)
        for name in names:
            if (name.startswith("_") and not name.startswith("__")
                    and loaded[name] == own[name]):
                unread[name] = node.lineno
    return sorted((line, name) for name, line in unread.items())


def test_finds_an_unread_private_name():
    source = ("_A = 1\n_B, c = 2, 3\ndef _f():\n    return _A\n"
              "class _C:\n    pass\n__all__ = []\n"
              "def _g(k):\n    return _g(k - 1) if k else _h()\ndef _h():\n    pass\n")
    assert unread_private_names(source) == [
        (2, "_B"), (3, "_f"), (5, "_C"), (8, "_g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def unused_locals(source):
    """(line, name) of each name a function stores and never loads, in its
    body or in a function nested in it. _names, and names declared global or
    nonlocal, are skipped."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        loaded = {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        shared = {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        found |= {(node.lineno, node.id) for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and not node.id.startswith("_") and node.id not in loaded | shared}
    return sorted(found)


def test_finds_an_unused_local():
    source = ("x = 1\ndef f(a):\n    p, n = a\n    _, m = a\n    for i in n:\n"
              "        pass\n    def g():\n        global G\n        G = m\n"
              "    return g\n")
    assert unused_locals(source) == [(3, "p"), (5, "i")]


# tests may leave a name unused on purpose, so only the package is checked
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


# public names no module reads and __init__.py does not export, with the
# reason each stays
KEPT_UNREAD = {
    ("numerics.py", "fix_signs"):
        "perfbench/layers.py wraps it by name; it goes when perfbench reads "
        "the run trace instead",
}


def dead_public_names(sources, init_source):
    """(file, line, name) of each public module-level function or class in
    sources ({file name: source}) that init_source does not import and no
    source reads, as a name or as an attribute."""
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (path, node.lineno, node.name)
        for path, source in sources.items() for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported | read)


def test_finds_a_dead_public_name():
    sources = {"a.py": "def f():\n    return g()\ndef g():\n    pass\n"
                       "class C:\n    pass\ndef _h():\n    pass\n",
               "b.py": "from . import a\n\ndef k():\n    return a.f\n"}
    init = "from .b import k\n"
    assert dead_public_names(sources, init) == [("a.py", 5, "C")]


def test_every_public_name_is_exported_or_read():
    sources = {path.name: path.read_text() for path in MODULES}
    init = (Path(rosdos.__file__).parent / "__init__.py").read_text()
    dead = [(path, name) for path, _, name in dead_public_names(sources, init)]
    assert dead == sorted(KEPT_UNREAD)


def dead_references(sources):
    """dead_public_names over test modules ({file name: source}) with nothing
    exported, kept to the entries of reference.py."""
    return [entry for entry in dead_public_names(sources, "")
            if entry[0] == "reference.py"]


def test_finds_an_unread_reference():
    sources = {"reference.py": "def f():\n    return g()\ndef g():\n    pass\n"
                               "def h():\n    pass\n",
               "test_a.py": "from reference import f\n\ndef test_f():\n    f()\n"}
    assert dead_references(sources) == [("reference.py", 5, "h")]


def test_every_reference_is_read():
    tests = Path(__file__).resolve().parent
    sources = {path.name: path.read_text()
               for path in [tests / "reference.py", *tests.glob("test_*.py")]}
    assert dead_references(sources) == []


# pyproject.toml allows Python 3.10, so no file may use later syntax
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/rosdos", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def rejects_3_10_syntax(source):
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return True
    return False


def test_finds_syntax_newer_than_3_10():
    assert rejects_3_10_syntax("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert not rejects_3_10_syntax("match x:\n    case 1:\n        pass\n")


def test_every_file_parses_as_python_3_10():
    assert len(SOURCES) > 20
    assert [str(path.relative_to(ROOT)) for path in SOURCES
            if rejects_3_10_syntax(path.read_text())] == []


def is_dataclass_node(node):
    """True for a class decorated with @dataclass or @dataclasses.dataclass,
    called or not."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def unread_dataclass_fields(sources, readers):
    """(file, line, "Class.field") of each field of a dataclass in sources
    ({file name: source}) that no source in readers loads as an attribute.

    Fields are matched by attribute name only, as in dead_public_names: a
    field counts as read when any object's attribute of that name is, so
    SyntheticDataset.manifold, say, would pass through cli's args.manifold.
    """
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ClassDef) and is_dataclass_node(node)):
                continue
            found += [(path, item.lineno, f"{node.name}.{item.target.id}")
                      for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and item.target.id not in read]
    return sorted(found)


def test_finds_an_unread_dataclass_field():
    sources = {"a.py": (
        "@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    z: int\n"
        "    def to_dict(self):\n        return {}\n"
        "class C:\n    w: int\n")}
    readers = ["def f(a):\n    a.y = 1\n    return a.x\n"]
    assert unread_dataclass_fields(sources, readers) == [
        ("a.py", 4, "A.y"), ("a.py", 7, "B.z")]


def test_every_dataclass_field_is_read():
    sources = {path.name: path.read_text() for path in MODULES}
    readers = [path.read_text() for path in SOURCES]
    assert unread_dataclass_fields(sources, readers) == []
