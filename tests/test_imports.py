"""Every name a package module imports is referenced in that module, and
no module checks anything with an assert statement (python -O strips
them)."""

import ast
from pathlib import Path

import pytest

import ambigcolor

MODULES = sorted(p for p in Path(ambigcolor.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """The names bound by the import statements of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES + [Path(ambigcolor.__file__)],
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"
