"""Perfectness checking: definition method vs. odd-hole scan."""

import random

import pytest

from ambigcolor.errors import PreconditionError, ResourceLimitError
from ambigcolor.graphcore import (SimpleGraph, complement, complete_graph,
                                  complete_multipartite, cycle_graph,
                                  empty_graph, path_graph)
from ambigcolor.perfection import (is_perfect, perfectness_report_json,
                                   verify_perfectness)


def test_known_perfect():
    assert is_perfect(complete_graph(5))
    assert is_perfect(empty_graph(5))
    assert is_perfect(path_graph(6))
    assert is_perfect(cycle_graph(4))
    assert is_perfect(cycle_graph(6))
    assert is_perfect(complete_multipartite([2, 3, 2]))


def test_known_imperfect():
    assert not is_perfect(cycle_graph(5))
    assert not is_perfect(cycle_graph(7))
    # C7 complement has an odd antihole (the C7 itself viewed from the
    # complement side)
    assert not is_perfect(complement(cycle_graph(7)))


def test_methods_agree_on_random_graphs():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = SimpleGraph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < 0.5])
        assert is_perfect(g, "definition") == is_perfect(g, "holes"), g.edges()


def test_method_validation_and_limits():
    with pytest.raises(PreconditionError):
        is_perfect(cycle_graph(4), method="guess")
    with pytest.raises(ResourceLimitError):
        is_perfect(empty_graph(20))


def test_verify_perfectness_no_violations():
    report = verify_perfectness(6, [2, 3])
    assert report["violations"] == []
    assert report["graphs_checked"] > 100
    js = perfectness_report_json(report)
    assert '"schema_version": 1' in js
    for max_n, k_list in ((0, [2]), (4, [])):
        with pytest.raises(PreconditionError):
            verify_perfectness(max_n, k_list)
