"""Every name a package module imports is referenced in that module, no
module checks anything with an assert statement (python -O strips them),
only the CLI prints, only the CLI and the input loaders import json, and
every function the benchmark's tracer wraps by name exists."""

import ast
import importlib
import inspect
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


def reaches_stdout(node):
    """`print`, `<x>.stdout`, or `from sys import stdout`."""
    if isinstance(node, ast.Name):
        return node.id == "print"
    if isinstance(node, ast.Attribute):
        return node.attr == "stdout"
    return isinstance(node, ast.alias) and node.name == "stdout"


@pytest.mark.parametrize("path", MODULES + [Path(ambigcolor.__file__)],
                         ids=lambda p: p.name)
def test_only_the_cli_prints(path):
    # the library returns data; the CLI prints every report
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if reaches_stdout(node)]
    assert path.name == "cli.py" or not lines, \
        f"{path.name} prints or writes to stdout at lines {lines}"


def imported_modules(tree):
    """The top-level names of the modules a module imports from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.split(".")[0]


def test_only_the_cli_and_the_input_loaders_import_json():
    importers = {path.name for path in MODULES if "json" in imported_modules(
        ast.parse(path.read_text(encoding="utf-8")))}
    assert importers == {"cli.py", "dfold.py", "matrix.py"}


def test_traced_names_exist():
    # the benchmark's tracer wraps these by name; read its table without
    # importing it, so the check needs nothing from the benchmark at run time
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    traced, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "TRACED"
                       for t in node.targets))
    missing = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(
                   f"ambigcolor.{mod}"), fn, None))]
    assert not missing, f"traced names missing from ambigcolor: {missing}"
    assert "method" in inspect.signature(
        ambigcolor.perfection.is_perfect).parameters
