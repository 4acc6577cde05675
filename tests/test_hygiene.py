"""Source hygiene checks that need no linter: every import is used."""

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
