"""Graph container, construction from matrices, canonical forms, cliques."""

import random
import time
from itertools import combinations, product

import pytest

from ambigcolor import graphcore
from ambigcolor.dfold import ColorTensor, build_graph_d
from ambigcolor.errors import InputFormatError, PreconditionError, ResourceLimitError
from ambigcolor.graphcore import (MAX_VERTICES, SimpleGraph,
                                  _cert_bits, _clique_cover_order,
                                  _partition_key, _refine,
                                  are_isomorphic, build_graph, canonical_form,
                                  clique_number, complement, complete_graph,
                                  complete_multipartite, cycle_graph,
                                  empty_graph, enumerate_graphs,
                                  from_edge_list, from_graph6,
                                  graph_from_cells, graph_levels, path_graph,
                                  to_edge_list, to_graph6, turan_graph)
from ambigcolor.matrix import ColorMatrix


def test_basic_container():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert sorted(g.non_edges()) == [(0, 2), (1, 3)]
    assert g.degree(0) == 2
    same = SimpleGraph(4, [(3, 0), (2, 3), (1, 2), (0, 1)])
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != path_graph(4) and g != g.rows
    assert repr(g) == "SimpleGraph(n=4, m=4)"


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


def random_labeled_graphs(seed):
    """120 random graphs with n in 0..16, every other one labeled, as
    (n, edges, labels or None, graph)."""
    rng = random.Random(seed)
    for i in range(120):
        n = rng.randint(0, 16)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < (0.2, 0.5, 0.8)[i % 3]]
        labels = ([(rng.randrange(4), rng.randrange(4), v) for v in range(n)]
                  if i % 2 else None)
        yield n, edges, labels, SimpleGraph(n, edges, labels)


def edge_filter(edges, labels, order):
    """Oracle: the edges with both ends in `order`, each end renamed by
    its place there, and the labels of `order`."""
    pos = {v: j for j, v in enumerate(order)}
    return SimpleGraph(len(order), [(pos[u], pos[v]) for u, v in edges
                                    if u in pos and v in pos],
                       None if labels is None else [labels[v] for v in order])


def test_induced_matches_an_edge_filter():
    # n = 0 with labels [] included: the labels () are kept, not dropped
    rng = random.Random(54)
    for n, edges, labels, g in random_labeled_graphs(53):
        kept = rng.sample(range(n), rng.randint(0, n))
        expect = edge_filter(edges, labels, sorted(kept))
        sub = g.induced(kept)
        assert (sub.rows, sub.labels) == (expect.rows, expect.labels), (
            n, edges, kept)
    assert SimpleGraph(0, labels=[]).induced([]).labels == ()


def test_permuted_matches_an_edge_filter():
    rng = random.Random(56)
    for n, edges, labels, g in random_labeled_graphs(55):
        perm = rng.sample(range(n), n)
        expect = edge_filter(edges, labels, perm)
        h = g.permuted(perm)
        assert (h.rows, h.labels) == (expect.rows, expect.labels), (
            n, edges, perm)


def test_search_order_is_kept_and_not_inherited():
    # each graph computes its own order once; a derived graph is a new
    # graph with an order of its own
    rng = random.Random(29)
    for n, edges, labels, g in random_labeled_graphs(57):
        assert g._order is None
        order = g.clique_cover_order()
        assert order == tuple(_clique_cover_order(g.rows))
        assert g.clique_cover_order() is order
        kept = rng.sample(range(n), rng.randint(0, n))
        derived = [g.permuted(rng.sample(range(n), n)), g.induced(kept),
                   complement(g), SimpleGraph.from_rows(g.rows, g.labels)]
        if g.non_edges():
            derived.append(g.add_edge(*rng.choice(g.non_edges())))
        for h in derived:
            assert h._order is None
            assert h.clique_cover_order() == tuple(_clique_cover_order(h.rows))
        # equality and hashing ignore the stored order
        fresh = SimpleGraph(n, edges, labels)
        assert fresh == g and hash(fresh) == hash(g)
        fresh.clique_cover_order()
        assert fresh == g and hash(fresh) == hash(g)
        assert len({g, fresh}) == 1


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
    # one huge cell is refused from its entry alone, before any row of
    # 10^12 bits is built
    for build, array in ((build_graph, ColorMatrix([[10 ** 12]])),
                         (build_graph_d, ColorTensor(2, 3, [0, 0, 10 ** 12]
                                                     + [0] * 5))):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            build(array)
        assert time.perf_counter() - start < 1


def per_vertex_graph(k, d, flat):
    """Oracle for graph_from_cells: one label per vertex, and each vertex's
    row built from its own label (rows and labels only, no vertex cap)."""
    labels = [idx + (t,) for idx, a in
              zip(product(range(1, k + 1), repeat=d), flat)
              for t in range(1, a + 1)]
    rows = [sum(1 << u for u, other in enumerate(labels)
                if all(x != y for x, y in zip(label[:-1], other[:-1])))
            for label in labels]
    return rows, labels


def test_graph_from_cells_matches_a_per_vertex_oracle():
    rng = random.Random(28)
    arrays = []
    for _ in range(150):
        # matrices with k <= 6, about half the cells zero
        k = rng.randint(1, 6)
        arrays.append((k, 2, [rng.choice((0, 0, 1, 2, 3))
                              for _ in range(k * k)]))
    for _ in range(60):
        k = rng.randint(1, 3)
        arrays.append((k, 3, [rng.choice((0, 0, 1, 2))
                              for _ in range(k ** 3)]))
    arrays += [(3, 2, [0] * 9), (2, 3, [1] * 8), (1, 2, [MAX_VERTICES])]
    for k, d, flat in arrays:
        if sum(flat) > MAX_VERTICES:
            continue
        g = graph_from_cells(k, d, flat)
        rows, labels = per_vertex_graph(k, d, flat)
        assert (list(g.rows), list(g.labels)) == (rows, labels), (k, d, flat)


def test_turan_graph_edges():
    assert turan_graph(4, 3).m == 5
    assert turan_graph(6, 3).m == 12
    assert turan_graph(7, 2).m == 12
    # T(n, k) with k >= n is complete
    assert turan_graph(4, 7).m == 6
    with pytest.raises(PreconditionError):
        turan_graph(-1, 2)
    for sizes in ([], [2, 0]):
        with pytest.raises(PreconditionError):
            complete_multipartite(sizes)


def test_complement_involution():
    g = cycle_graph(5)
    assert are_isomorphic(complement(complement(g)), g)
    assert complement(complete_graph(4)).m == 0


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11),
                                     (5, 34), (6, 156), (7, 1044)])
def test_enumerate_graphs_counts(n, count):
    # OEIS A000088: graphs on n unlabeled nodes
    assert len(enumerate_graphs(n)) == count


def enumerate_labeled_graphs(n):
    """All 2^C(n,2) labeled graphs on n vertices (cross-check oracle)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield SimpleGraph(n, edges)


def test_enumeration_consistent_with_labeled_filter():
    # independent oracle: canonicalize all 2^C(n,2) labeled graphs
    for n in range(1, 6):
        labeled = {canonical_form(g) for g in enumerate_labeled_graphs(n)}
        augmented = {canonical_form(g) for g in enumerate_graphs(n)}
        assert labeled == augmented


def oracle_canonical_form(g):
    """Reference: the search without twin pruning, branching on every
    vertex of each target cell, refining against every cell."""
    n, rows = g.n, g.rows
    if n == 0:
        return (0, 0)
    best = [None]

    def search(cells):
        cells = _refine(rows, cells)
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            cert = _cert_bits(rows, [c.bit_length() - 1 for c in cells])
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        cell = cells[target]
        for v in range(n):
            if cell >> v & 1:
                search(cells[:target] + [1 << v, cell ^ 1 << v]
                       + cells[target + 1:])

    search([(1 << n) - 1])
    return (n, best[0])


def oracle_refine(rows, cells):
    """Reference: equitable refinement on vertex lists that splits every
    cell by its neighbour counts into all cells, pass after pass."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in c:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def mask_set(cells):
    """The cells of a vertex-list partition as a set of bitmasks."""
    return {sum(1 << v for v in c) for c in cells}


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


def test_splitter_queue_refinement_matches_oracle():
    # the coarsest equitable refinement of a partition is unique as a set
    # partition, from the unit partition and after individualizing any
    # vertex of an equitable one
    for n in range(1, 7):
        for cand in augmentation_candidates(enumerate_graphs(n - 1)):
            rows = cand.rows
            unit = _refine(rows, [(1 << n) - 1])
            assert set(unit) == mask_set(oracle_refine(rows, [range(n)]))
            for t, cell in enumerate(unit):
                for v in range(n):
                    if not cell >> v & 1 or cell == 1 << v:
                        continue
                    low = 1 << v
                    split = unit[:t] + [low, cell ^ low] + unit[t + 1:]
                    lists = [[u for u in range(n) if c >> u & 1]
                             for c in split]
                    assert set(_refine(rows, split, [low])) == mask_set(
                        oracle_refine(rows, lists))


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


def unit_key(g):
    """`_partition_key` of g's refined unit partition."""
    return _partition_key(g.rows, _refine(g.rows, [(1 << g.n) - 1]))


def test_partition_key_is_an_isomorphism_invariant():
    # a discrete partition's key is the certificate itself; at n <= 6
    # that is K1 and the eight asymmetric graphs on six vertices
    rng = random.Random(13)
    discrete = 0
    for n, level in graph_levels(6):
        for g in level:
            key = unit_key(g)
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                assert unit_key(g.permuted(perm)) == key
            if len(_refine(g.rows, [(1 << n) - 1])) == n:
                discrete += 1
                assert key == canonical_form(g)
    assert discrete == 9


def test_twin_pruned_enumeration_matches_oracle():
    # by class: each level holds one graph per certificate, though not
    # necessarily the oracle's representative.  It lists the low half,
    # 2m <= C(n, 2), in (partition key, certificate) order, then the
    # complements of its members with 2m < C(n, 2), in the same order
    levels = dict(graph_levels(7))
    assert sorted(levels) == list(range(1, 8))
    for n in range(8):
        pairs = n * (n - 1) // 2
        expected = [canonical_form(g) for g in oracle_enumerate_graphs(n)]
        level = enumerate_graphs(n)
        assert sorted(canonical_form(g) for g in level) == expected
        if n:
            assert [g.rows for g in levels[n]] == [g.rows for g in level]
        low = [g for g in level if 2 * g.m <= pairs]
        assert [g.rows for g in level[:len(low)]] == [g.rows for g in low]
        assert [g.rows for g in level[len(low):]] == [
            complement(g).rows for g in low if 2 * g.m < pairs]
        if n:
            keys = [(unit_key(g), canonical_form(g)) for g in low]
            assert keys == sorted(keys)
            # the added vertex, the last, has maximum degree and lies in
            # the last cell of the refined unit partition
            assert all(g.degree(n - 1) == max(map(g.degree, range(n)))
                       for g in low)
            assert all(_refine(g.rows, [(1 << n) - 1])[-1] >> (n - 1) & 1
                       for g in low)


def test_levels_are_closed_under_complement():
    # C(n, 2) is even at n = 1, 4, 5, 8: there the graphs with exactly
    # C(n, 2) / 2 edges are generated on both sides of the split, yet
    # each class must appear once
    for n, level in graph_levels(8):
        pairs = n * (n - 1) // 2
        certs = {canonical_form(g) for g in level}
        assert len(certs) == len(level)
        assert {canonical_form(complement(g)) for g in level} == certs
        middle = [canonical_form(g) for g in level if 2 * g.m == pairs]
        assert len(set(middle)) == len(middle)
        assert bool(middle) == (n in (1, 4, 5, 8))


def spy_on_generation(monkeypatch):
    """Record the order of every unit refinement and of every canonical
    search that `graph_levels` runs."""
    refined, searches = [], []
    refine = graphcore._refine
    search = graphcore._canonical_search

    def refine_spy(rows, cells, queue=None):
        if queue is None:
            refined.append(len(rows))
        return refine(rows, cells, queue)

    def search_spy(rows, cells):
        searches.append(len(rows))
        return search(rows, cells)

    monkeypatch.setattr(graphcore, "_refine", refine_spy)
    monkeypatch.setattr(graphcore, "_canonical_search", search_spy)
    return refined, searches


def test_graph_levels_labels_only_last_cell_augmentations(monkeypatch):
    # of the 1077 augmentations at n <= 7 that keep at most half the
    # edges and maximum degree and pass the twin skip, 808 put the new
    # vertex in the last cell; 241 of those share a partition key that
    # is not a certificate with another kept child of their level
    refined, searches = spy_on_generation(monkeypatch)
    for _ in graph_levels(7):
        pass
    assert len(refined) == 1077
    assert len(searches) == 241


def test_graph_levels_counts_through_8(monkeypatch):
    # OEIS A000088 up to n = 8
    refined, searches = spy_on_generation(monkeypatch)
    assert [len(level) for _, level in graph_levels(8)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346]
    assert len(refined) == 14069
    assert len(searches) == 2112


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
    with pytest.raises(InputFormatError):
        from_edge_list("3 2\n0 1\n1 0\n")  # one edge named twice
    with pytest.raises(InputFormatError, match="empty"):
        from_edge_list("")
    with pytest.raises(InputFormatError, match="bad edge line"):
        from_edge_list("3 1\n0 x\n")


def test_graph6_round_trip():
    for g in enumerate_graphs(6)[:40]:
        assert sorted(from_graph6(to_graph6(g)).edges()) == sorted(g.edges())
    # known encoding: C~ is K4
    assert from_graph6("C~").m == 6
    # the optional header of graph6 files
    g = cycle_graph(5)
    assert from_graph6(">>graph6<<" + to_graph6(g) + "\n") == g


def test_graph6_rejects_garbage():
    with pytest.raises(ResourceLimitError):
        to_graph6(empty_graph(63))
    # empty; n = 4 needs one body character; "!" is below "?"
    for text, reason in (("", "empty"), ("C", "body length"),
                         ("C~~", "body length"), ("C!", "bad graph6")):
        with pytest.raises(InputFormatError, match=reason):
            from_graph6(text)
