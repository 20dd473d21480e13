"""Perfectness checking: definition method vs. odd-hole scan."""

import random

import pytest

from ambigcolor.coloring import chromatic_number
from ambigcolor.errors import PreconditionError, ResourceLimitError
from ambigcolor.graphcore import (SimpleGraph, build_graph, clique_number,
                                  complement, complete_graph,
                                  complete_multipartite, cycle_graph,
                                  empty_graph, enumerate_graphs, path_graph)
from ambigcolor.matrix import ColorMatrix
from ambigcolor.perfection import (is_perfect, perfectness_report_json,
                                   verify_perfectness)


def oracle_is_perfect(g):
    """The definition taken literally: chi = omega on the induced subgraph
    of every nonempty vertex subset, each computed from scratch."""
    for mask in range(1, 1 << g.n):
        sub = g.induced([v for v in range(g.n) if mask >> v & 1])
        if chromatic_number(sub) != clique_number(sub):
            return False
    return True


def disjoint_union(g, h):
    """g on 0..g.n-1 and h on g.n..g.n+h.n-1, no edges between them."""
    return SimpleGraph(g.n + h.n, g.edges() + [(u + g.n, v + g.n)
                                               for u, v in h.edges()])


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


def test_definition_matches_oracle_on_all_small_graphs():
    verdicts = []
    for n in range(8):
        for g in enumerate_graphs(n):
            verdict = is_perfect(g, "definition")
            assert verdict == oracle_is_perfect(g), g.edges()
            verdicts.append(verdict)
    # 1253 classes up to n = 7; the imperfect ones contain C5, C7 or co-C7
    assert len(verdicts) == 1253
    assert verdicts.count(False) == 147


def test_definition_invariant_under_vertex_order():
    rng = random.Random(31)
    graphs = [cycle_graph(5), cycle_graph(6), complement(cycle_graph(7)),
              build_graph(ColorMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]]))]
    for _ in range(20):
        n = rng.randint(5, 9)
        graphs.append(SimpleGraph(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n)
                                      if rng.random() < 0.5]))
    for g in graphs:
        expect = oracle_is_perfect(g)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert is_perfect(g.permuted(perm), "definition") == expect, (
                g.edges(), perm)


@pytest.mark.parametrize("hole", ["C5", "C7", "co-C7"])
def test_definition_finds_planted_hole(hole):
    h = {"C5": cycle_graph(5), "C7": cycle_graph(7),
         "co-C7": complement(cycle_graph(7))}[hole]
    ga = build_graph(ColorMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert ga.n == 7 and is_perfect(ga, "definition")
    for g in (disjoint_union(ga, h), disjoint_union(h, ga)):
        assert not is_perfect(g, "definition")
        assert not is_perfect(g, "holes")
