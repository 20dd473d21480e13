"""Graph container, construction from matrices, canonical forms, cliques."""

import random

import pytest

from ambigcolor.errors import InputFormatError, PreconditionError, ResourceLimitError
from ambigcolor.graphcore import (SimpleGraph, _cert_bits, _refine,
                                  are_isomorphic, build_graph, canonical_form,
                                  clique_number, complement, complete_graph,
                                  complete_multipartite, cycle_graph,
                                  empty_graph, enumerate_graphs,
                                  enumerate_labeled_graphs, from_edge_list,
                                  from_graph6, graph_levels, path_graph,
                                  to_edge_list, to_graph6, turan_graph)
from ambigcolor.matrix import ColorMatrix


def test_basic_container():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert sorted(g.non_edges()) == [(0, 2), (1, 3)]
    assert g.degree(0) == 2


def test_negative_vertex_count_rejected():
    with pytest.raises(InputFormatError):
        SimpleGraph(-1)


def test_add_edge_is_persistent():
    g = path_graph(3)
    g2 = g.add_edge(0, 2)
    assert g2.m == g.m + 1
    assert not g.has_edge(0, 2)
    with pytest.raises(PreconditionError):
        g.add_edge(0, 1)          # already present
    with pytest.raises(PreconditionError):
        g.add_edge(1, 1)


def test_induced_and_permuted():
    g = cycle_graph(5)
    sub = g.induced([0, 1, 2])
    assert sub.n == 3 and sub.m == 2
    perm = list(range(5))
    random.Random(7).shuffle(perm)
    assert are_isomorphic(g, g.permuted(perm))


def test_build_graph_figure_matrix():
    # 3x3 certificate with a fully indecomposable block of order 3
    a = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])
    g = build_graph(a)
    assert g.n == 11
    # (i, j, t) adjacent iff i != i' and j != j'
    lab = {g.labels[v]: v for v in range(g.n)}
    assert g.has_edge(lab[(1, 1, 1)], lab[(2, 2, 1)])
    assert not g.has_edge(lab[(1, 1, 1)], lab[(1, 2, 1)])   # same row
    assert not g.has_edge(lab[(2, 1, 1)], lab[(1, 1, 1)])   # same column
    # degree check: every vertex not in row i / column j is a neighbour
    for v in range(g.n):
        i, j, _ = g.labels[v]
        expect = g.n - sum(1 for (p, q, _) in g.labels if p == i or q == j)
        assert g.degree(v) == expect


def test_build_graph_diagonal_is_complete_multipartite():
    a = ColorMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 0]])
    g = build_graph(a)
    assert are_isomorphic(g, complete_multipartite([2, 2]))
    assert are_isomorphic(g, cycle_graph(4))


def test_build_graph_vertex_cap():
    assert build_graph(ColorMatrix([[32, 0], [0, 32]])).n == 64
    with pytest.raises(ResourceLimitError):
        build_graph(ColorMatrix([[33, 0], [0, 32]]))


def test_turan_graph_edges():
    assert turan_graph(4, 3).m == 5
    assert turan_graph(6, 3).m == 12
    assert turan_graph(7, 2).m == 12
    # T(n, k) with k >= n is complete
    assert turan_graph(4, 7).m == 6


def test_complement_involution():
    g = cycle_graph(5)
    assert are_isomorphic(complement(complement(g)), g)
    assert complement(complete_graph(4)).m == 0


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11),
                                     (5, 34), (6, 156), (7, 1044)])
def test_enumerate_graphs_counts(n, count):
    # OEIS A000088: graphs on n unlabeled nodes
    assert len(enumerate_graphs(n)) == count


def test_enumeration_consistent_with_labeled_filter():
    # independent oracle: canonicalize all 2^C(n,2) labeled graphs
    for n in range(1, 6):
        labeled = {canonical_form(g) for g in enumerate_labeled_graphs(n)}
        augmented = {canonical_form(g) for g in enumerate_graphs(n)}
        assert labeled == augmented


def oracle_canonical_form(g):
    """Reference: the search without twin pruning, branching on every
    vertex of each target cell."""
    n, rows = g.n, g.rows
    if n == 0:
        return (0, 0)
    best = [None]

    def search(cells):
        cells = _refine(rows, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            cert = _cert_bits(rows, [c[0] for c in cells])
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        cell = cells[target]
        for v in cell:
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:])

    search([list(range(n))])
    return (n, best[0])


def augmentation_candidates(level):
    """Every graph in `level` extended by one vertex with every possible
    neighbourhood."""
    for g in level:
        for mask in range(1 << g.n):
            rows = [r | (mask >> v & 1) << g.n for v, r in enumerate(g.rows)]
            yield SimpleGraph.from_rows(rows + [mask])


def oracle_enumerate_graphs(n):
    """Reference: vertex augmentation without twin pruning, keeping the
    first candidate of each certificate."""
    level = [SimpleGraph(0)]
    for _ in range(n):
        seen = {}
        for cand in augmentation_candidates(level):
            seen.setdefault(canonical_form(cand), cand)
        level = [seen[c] for c in sorted(seen)]
    return level


def test_twin_pruned_canonical_form_matches_oracle():
    for n in range(1, 7):
        for cand in augmentation_candidates(enumerate_graphs(n - 1)):
            assert canonical_form(cand) == oracle_canonical_form(cand)


@pytest.mark.parametrize("g", [
    build_graph(ColorMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]])),
    build_graph(ColorMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]])),
    SimpleGraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
], ids=["K333", "special-diagonal-222", "C3+C4"])
def test_twin_pruned_canonical_form_on_symmetric_graphs(g):
    # C3 + C4 is regular, so refinement never splits it, yet it has two
    # vertex orbits
    expected = oracle_canonical_form(g)
    assert canonical_form(g) == expected
    rng = random.Random(5)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.permuted(perm)) == expected


def test_twin_pruned_enumeration_matches_oracle():
    levels = dict(graph_levels(7))
    assert sorted(levels) == list(range(1, 8))
    for n in range(8):
        expected = [g.rows for g in oracle_enumerate_graphs(n)]
        assert [g.rows for g in enumerate_graphs(n)] == expected
        if n:
            assert [g.rows for g in levels[n]] == expected


def test_enumeration_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")

    def invariant(h):
        # each vertex's degree with its neighbours' degrees, sorted
        return tuple(sorted((h.degree(v), tuple(sorted(h.degree(u)
                                                       for u in h[v])))
                            for v in h))

    atlas_graphs = nx.graph_atlas_g()
    atlas = {}
    for i, h in enumerate(atlas_graphs):
        atlas.setdefault(invariant(h), []).append((i, h))
    for n in range(1, 8):
        graphs = enumerate_graphs(n)
        matched = set()
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            hits = [i for i, a in atlas.get(invariant(h), [])
                    if nx.is_isomorphic(h, a)]
            assert len(hits) == 1
            matched.update(hits)
        assert len(matched) == len(graphs)
        assert len(graphs) == sum(1 for h in atlas_graphs
                                  if h.number_of_nodes() == n)


def test_canonical_form_invariance():
    rng = random.Random(11)
    for g in enumerate_graphs(5):
        perm = list(range(5))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.permuted(perm))


def test_isomorphism_distinguishes():
    # same degree sequence, different graphs
    g1 = SimpleGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    g2 = cycle_graph(6)
    assert not are_isomorphic(g1, g2)
    assert are_isomorphic(complete_multipartite([2, 2]), cycle_graph(4))


def test_clique_number_known_values():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(empty_graph(5)) == 1
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(turan_graph(9, 3)) == 3
    assert clique_number(empty_graph(0)) == 0


def test_clique_number_against_subset_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.5])
        best = 0
        for mask in range(1, 1 << n):
            vs = [v for v in range(n) if mask >> v & 1]
            if all(g.has_edge(u, v) for i, u in enumerate(vs)
                   for v in vs[i + 1:]):
                best = max(best, len(vs))
        assert clique_number(g) == best


def test_edge_list_round_trip():
    g = cycle_graph(5)
    text = to_edge_list(g)
    assert text.splitlines()[0] == "5 5"
    g2 = from_edge_list(text)
    assert g2.n == g.n and sorted(g2.edges()) == sorted(g.edges())


def test_edge_list_rejects_garbage():
    with pytest.raises(InputFormatError):
        from_edge_list("3 1\n0 3\n")      # vertex out of range
    with pytest.raises(InputFormatError):
        from_edge_list("not a header\n")


def test_graph6_round_trip():
    for g in enumerate_graphs(6)[:40]:
        assert sorted(from_graph6(to_graph6(g)).edges()) == sorted(g.edges())
    # known encoding: C~ is K4
    assert from_graph6("C~").m == 6
