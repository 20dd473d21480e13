"""Every size ceiling, pinned one above its module constant.

A search's cost ceiling is a named module constant, checked once in the
function that runs the search.  Each case reads the constant, calls its
entry point one above it and expects ResourceLimitError; on the CLI that
is exit code 3 with nothing on stdout.  README's Limits table lists every
ceiling with its module and value, and is checked against the modules.
"""

import ast
import importlib
import json
import time
from math import isqrt
from pathlib import Path

import pytest

from ambigcolor import coloring, dfold, extremal, graphcore, perfection
from ambigcolor.cli import main
from ambigcolor.errors import ResourceLimitError
from ambigcolor.graphcore import SimpleGraph, empty_graph
from ambigcolor.maximality import verify_theorem1

CEILINGS = {
    "canonical_form": (graphcore, "DEFAULT_CANON_MAX_N",
                       lambda n: graphcore.canonical_form(empty_graph(n))),
    "are_isomorphic": (graphcore, "DEFAULT_CANON_MAX_N",
                       lambda n: graphcore.are_isomorphic(empty_graph(n),
                                                          empty_graph(n))),
    "clique_number": (graphcore, "DEFAULT_CLIQUE_MAX_N",
                      lambda n: graphcore.clique_number(empty_graph(n))),
    "graph_levels": (graphcore, "ENUMERATION_MAX_N",
                     lambda n: list(graphcore.graph_levels(n))),
    "enumerate_graphs": (graphcore, "ENUMERATION_MAX_N",
                         graphcore.enumerate_graphs),
    "verify_theorem1": (graphcore, "ENUMERATION_MAX_N",
                        lambda n: verify_theorem1(n, [2])),
    "brute_force_max_edges": (
        graphcore, "ENUMERATION_MAX_N",
        lambda n: extremal.brute_force_max_edges(n, 2)),
    "max_edges_by_class-n": (
        coloring, "MAX_N",
        lambda n: extremal.max_edges_by_class([(n, 2)])),
    "max_edges_by_class-k": (
        extremal, "EXTREMAL_MAX_K",
        lambda k: extremal.max_edges_by_class([(k, k)])),
    "verify_turan_theorem": (
        coloring, "MAX_N",
        lambda n: extremal.verify_turan_theorem(n, [2])),
    "verify_turan_theorem-k": (
        extremal, "EXTREMAL_MAX_K",
        lambda k: extremal.verify_turan_theorem(k, [k])),
    "enumerate_extremal-n": (coloring, "MAX_N",
                             lambda n: extremal.enumerate_extremal(n, 2)),
    "enumerate_extremal-k": (extremal, "EXTREMAL_MAX_K",
                             lambda k: extremal.enumerate_extremal(k, k)),
    "is_perfect-definition": (
        perfection, "DEFAULT_PERFECT_MAX_N",
        lambda n: perfection.is_perfect(empty_graph(n), "definition")),
    # the least k whose G(J_k) has n or more vertices
    "verify_perfectness": (
        graphcore, "MAX_VERTICES",
        lambda n: perfection.verify_perfectness([isqrt(n - 1) + 1])),
    "from_edge_list": (graphcore, "MAX_VERTICES",
                       lambda n: graphcore.from_edge_list(f"{n} 0\n")),
    "count_perfect_matchings": (
        dfold, "MATCHING_MAX_N",
        lambda n: dfold.count_perfect_matchings(empty_graph(n))),
}


@pytest.mark.parametrize("case", sorted(CEILINGS))
def test_ceiling_raises_one_above_its_constant(case):
    module, constant, call = CEILINGS[case]
    with pytest.raises(ResourceLimitError):
        call(getattr(module, constant) + 1)


def test_recover_tensor_checks_cells_before_counting():
    # 10^7 cells from 7 of the 15 colorings of four isolated vertices with
    # 10 colors: counting them before the ceiling check takes about 10 s
    assert 10 ** 7 > dfold.MAX_TENSOR_CELLS
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        dfold.recover_tensor(SimpleGraph(4), 7, 10)
    assert time.perf_counter() - start < 1


def test_one_color_tensor_is_bounded_in_d(tmp_path, capsys):
    # a k = 1 tensor has one cell at every d, but its graph costs time and
    # memory linear in d, so d is bounded for every k before k^d is taken
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"k": 1, "d": 10 ** 9, "entries_flat": [1]}))
    start = time.perf_counter()
    assert main(["build", str(p)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == ""
    d = dfold.MAX_TENSOR_CELLS.bit_length() - 1
    assert dfold.build_graph_d(dfold.ColorTensor(1, d, [1])).n == 1


@pytest.mark.parametrize("theorem, module, constant", [
    ("1", graphcore, "ENUMERATION_MAX_N"),
    ("turan", coloring, "MAX_N"),
    ("perfect", graphcore, "MAX_VERTICES"),
])
def test_verify_ceiling_exits_3(theorem, module, constant, capsys):
    limit = getattr(module, constant)
    # perfect covers every n; its ceiling is on the order k^2 of G(J_k)
    args = (["--k-list", str(isqrt(limit) + 1)] if theorem == "perfect"
            else ["--max-n", str(limit + 1)])
    assert main(["verify", "--theorem", theorem, *args]) == 3
    assert capsys.readouterr().out == ""


def test_turan_ceiling_is_checked_before_any_cell(monkeypatch, capsys):
    # neither the formula nor the oracle may run a cell, not even one of
    # k = 2 listed before a k past the ceiling, or of an order within it
    def no_cell(n, k):
        raise AssertionError("a cell ran before the ceiling check")

    monkeypatch.setattr(extremal, "_class_route", no_cell)
    monkeypatch.setattr(extremal, "ambiguous_max_edges", no_cell)
    for max_n, k_list in (("7", f"2,{extremal.EXTREMAL_MAX_K + 1}"),
                          ("100000", "2")):
        assert main(["verify", "--theorem", "turan", "--max-n", max_n,
                     "--k-list", k_list]) == 3
        assert capsys.readouterr().out == ""


def test_perfectness_ceiling_is_checked_before_any_class(monkeypatch,
                                                         capsys):
    # no G(J_k) is built, not even that of a k = 2 listed before a k whose
    # order k^2 is past the ceiling, or before a k < 1
    def no_graph(matrix):
        raise AssertionError("a graph was built before the ceiling check")

    monkeypatch.setattr(perfection, "build_graph", no_graph)
    for k_list, code in (("2,9", 3), ("2,0", 2)):
        assert main(["verify", "--theorem", "perfect",
                     "--k-list", k_list]) == code
        assert capsys.readouterr().out == ""


def limits_table():
    """(constant, module, value) for every row of README's Limits table;
    a row may list several constants and values, comma-separated, and a
    value may be a power such as 10^6."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| Constant | Module | Value | Protects |") + 2
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names, module, values = (
            cell.strip() for cell in line.split("|")[1:4])
        for name, value in zip(names.split(", "), values.split(", "),
                               strict=True):
            base, _, exponent = value.partition("^")
            table.append((name.strip("`"), module.strip("`"),
                          int(base) ** int(exponent or 1)))
    return table


def test_readme_limits_table_matches_the_modules():
    table = limits_table()
    for name, module, value in table:
        assert getattr(importlib.import_module(f"ambigcolor.{module}"),
                       name) == value, name
    listed = {(module, name) for name, module, _ in table}
    for module, constant, _ in CEILINGS.values():
        assert (module.__name__.rsplit(".", 1)[1], constant) in listed
    # and the reverse: every ceiling a module defines is listed, so a
    # deleted one cannot linger in the table nor a new one go unlisted
    assert module_ceilings() <= listed


def module_ceilings():
    """(module, name) for every int constant assigned at the top level of
    a package module whose name contains MAX or CAP (imported aliases such
    as perfection's COLORING_MAX_N are not assignments)."""
    out = set()
    for path in Path(graphcore.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"ambigcolor.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in getattr(node, "targets", ()):
                name = getattr(target, "id", "")
                if (("MAX" in name or "CAP" in name)
                        and isinstance(getattr(module, name), int)):
                    out.add((path.stem, name))
    return out
