"""Source hygiene checks that need no linter: every import is used and
sits at module level, and every private module- or class-level name is
referenced."""

import ast
from pathlib import Path

import pytest

import pcore

MODULES = sorted(Path(pcore.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by an import but never referenced. Imports on a line
    marked `noqa: F401` are re-exports and count as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(src) == [(1, "path"), (2, "sys")]


def private_definitions(tree):
    """(line, name) of each `_name` (not a dunder) defined at module level
    or directly in a class body."""
    out = []
    bodies = [tree.body]
    bodies += [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            out += [(node.lineno, name) for name in names
                    if name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))]
    return out


def dead_private_names(sources):
    """Private names that no source reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(
        (name, line, private) for name, tree in trees.items()
        for line, private in private_definitions(tree)
        if private not in read
    )


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in MODULES}
    assert dead_private_names(sources) == []


def test_dead_private_name_is_found():
    src = ("_A = 1\n_B = _A\nclass C:\n    _k = 2\n    def _m(self):\n"
           "        return self._k\n")
    assert dead_private_names({"m.py": src}) == [("m.py", 2, "_B"),
                                                 ("m.py", 5, "_m")]


def nested_imports(source):
    """Lines of the import statements inside a function."""
    return sorted({
        n.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_nested_import_is_found():
    src = ("import os\ndef f():\n    import sys\n    def g():\n"
           "        from os import path\n")
    assert nested_imports(src) == [3, 5]
