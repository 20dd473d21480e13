"""Coloring enumeration, counting, chromatic number, ambiguity predicates."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigcolor.coloring import (MAX_N, Coloring, _class_masks,
                                 _ordered_classes, chromatic_number,
                                 count_colorings, enumerate_colorings,
                                 is_ambiguously_colorable,
                                 is_uniquely_colorable, iter_colorings)
from ambigcolor.dfold import is_dfold_colorable, recover_tensor
from ambigcolor.errors import PreconditionError, ResourceLimitError
from ambigcolor.graphcore import (SimpleGraph, _clique_cover_order,
                                  complete_graph, complete_multipartite,
                                  cycle_graph, empty_graph, graph_levels,
                                  path_graph)
from ambigcolor.maximality import (is_maximal, is_maximal_ambiguous,
                                   reconstruct_matrix)


def random_graph(rng, n, p=0.5):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


def partitions(items):
    """All set partitions of a list (naive recursion)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def naive_colorings(g, k):
    """Reference enumeration: filter all set partitions of the vertices."""
    found = set()
    for part in partitions(list(range(g.n))):
        if len(part) > k:
            continue
        if any(g.has_edge(u, v) for cls in part for u, v in combinations(cls, 2)):
            continue
        found.add(frozenset(frozenset(c) for c in part))
    return found


def as_partition_set(colorings):
    return {frozenset(frozenset(c) for c in col.classes())
            for col in colorings}


# ---------------------------------------------------------------------------

def test_coloring_object():
    g = path_graph(3)
    cols = enumerate_colorings(g, 2)
    for c in cols:
        assert c.check_anticliques(g)
        assert c.num_classes <= 2
    # classes are reported with vertex 0's class first
    assert all(0 in c.classes()[0] for c in cols)
    with pytest.raises(PreconditionError):
        Coloring((0, 0, 1)).check_anticliques(g)     # edge 01 inside a class
    # a coloring must cover exactly the vertices of g
    for rgs in ((0, 1), (0, 1, 0, 1)):
        with pytest.raises(PreconditionError, match="cover"):
            Coloring(rgs).check_anticliques(g)
    with pytest.raises(PreconditionError, match="cap"):
        count_colorings(g, 2, 0)
    with pytest.raises(PreconditionError, match="limit"):
        enumerate_colorings(g, 2, limit=0)
    with pytest.raises(PreconditionError, match="k >= 0"):
        next(_class_masks(g, -1))


def test_known_counts():
    # P3 with k=2: {0,2}{1} and {0}{1,2}... {1} cannot join 0 or 2
    assert count_colorings(path_graph(3), 2, 100) == 1
    assert count_colorings(cycle_graph(4), 2, 100) == 1
    assert count_colorings(cycle_graph(4), 3, 100) == 3
    assert count_colorings(cycle_graph(5), 2, 100) == 0
    assert count_colorings(complete_graph(3), 3, 100) == 1
    # empty graph on n vertices, k >= n: Bell-ish count of partitions
    assert count_colorings(empty_graph(3), 3, 100) == 5   # B(3)


def test_empty_graph_zero_vertices():
    g = empty_graph(0)
    assert count_colorings(g, 3, 10) == 1      # the empty partition
    assert chromatic_number(g) == 0


def test_enumerate_matches_naive_filter():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        for k in (2, 3, 4):
            assert as_partition_set(iter_colorings(g, k)) == naive_colorings(g, k)


def test_limit_and_cap():
    g = empty_graph(4)
    assert len(enumerate_colorings(g, 4, limit=3)) == 3
    assert count_colorings(g, 4, 2) == 2       # early exit at the cap
    assert count_colorings(g, 4, 10 ** 6) == 15   # B(4)


def test_colorings_are_distinct():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, 6)
        cols = enumerate_colorings(g, 3)
        assert len(as_partition_set(cols)) == len(cols)


@pytest.mark.parametrize("g,chi", [
    (complete_graph(5), 5), (cycle_graph(5), 3), (cycle_graph(6), 2),
    (path_graph(4), 2), (empty_graph(4), 1),
])
def test_chromatic_number_known(g, chi):
    assert chromatic_number(g) == chi


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_chromatic_number_consistent_with_counts(n, data):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if data.draw(st.booleans())]
    g = SimpleGraph(n, edges)
    chi = chromatic_number(g)
    assert count_colorings(g, chi, 1) >= 1
    if chi > 0:
        assert count_colorings(g, chi - 1, 1) == 0


def test_ambiguity_predicates():
    assert is_ambiguously_colorable(cycle_graph(4), 3)
    assert is_uniquely_colorable(cycle_graph(4), 2)
    assert not is_ambiguously_colorable(complete_graph(3), 3)
    assert not is_uniquely_colorable(cycle_graph(5), 2)   # zero colorings


def test_rgs_canonical_form():
    # restricted growth: class labels appear in first-use order
    g = empty_graph(3)
    for c in iter_colorings(g, 3):
        rgs = c.rgs
        seen_max = -1
        for x in rgs:
            assert x <= seen_max + 1
            seen_max = max(seen_max, x)


def test_count_matches_iteration_under_shuffled_orders():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 8)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        for k in range(5):
            total = len(list(iter_colorings(g, k)))
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.permuted(perm)
                assert len(list(iter_colorings(h, k))) == total
                for cap in (1, 2, 3, 7, 10 ** 6):
                    assert count_colorings(h, k, cap) == min(cap, total)


def oracle_clique_cover(g):
    """Reference: repeated first-fit passes over the vertices sorted by
    degree descending, ties by lower index; each pass takes every vertex
    joined to all the pass took before it, and yields one block."""
    left = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    blocks = []
    while left:
        block = []
        for v in left:
            if all(g.has_edge(u, v) for u in block):
                block.append(v)
        blocks.append(block)
        left = [v for v in left if v not in block]
    return blocks


def test_search_order_is_the_first_fit_clique_cover():
    rng = random.Random(41)
    cases = [g for _, graphs in graph_levels(7) for g in graphs]
    cases += [random_graph(rng, rng.randint(0, 32), rng.random())
              for _ in range(200)]
    cases += [maker(n) for n in (0, 1, 5, MAX_N)
              for maker in (empty_graph, complete_graph)]
    for g in cases:
        blocks = oracle_clique_cover(g)
        order = _clique_cover_order(g.rows)
        assert order == [v for block in blocks for v in block], g.edges()
        for i, block in enumerate(blocks):
            assert all(g.has_edge(u, v) for u, v in combinations(block, 2))
            # first fit: each later vertex missed some vertex of this pass
            for w in (w for later in blocks[i + 1:] for w in later):
                assert not all(g.has_edge(u, w) for u in block)
    assert oracle_clique_cover(empty_graph(3)) == [[0], [1], [2]]
    assert oracle_clique_cover(complete_graph(3)) == [[0, 1, 2]]


def test_first_coloring_of_complete_multipartite_is_its_parts():
    # reconstruct_matrix's diagonal route rests on this: the first coloring
    # the search finds is greedy, so its classes are the parts
    rng = random.Random(5)
    for _ in range(200):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
        g = complete_multipartite(sizes)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.permuted(perm)
        part_of = [p for p, s in enumerate(sizes) for _ in range(s)]
        parts = [0] * len(sizes)
        for v, old in enumerate(perm):
            parts[part_of[old]] |= 1 << v
        for k in range(len(sizes), len(sizes) + 3):
            first = next(_class_masks(h, k))
            assert _ordered_classes(first) == _ordered_classes(parts)


def test_one_ceiling_for_every_coloring_entry_point():
    ok, big = empty_graph(MAX_N), empty_graph(MAX_N + 1)
    assert count_colorings(ok, 1, 2) == 1
    assert chromatic_number(complete_graph(MAX_N)) == MAX_N
    entry_points = [
        lambda g: next(iter_colorings(g, 2)),
        lambda g: enumerate_colorings(g, 2, limit=1),
        lambda g: count_colorings(g, 2, 1),
        chromatic_number,
        lambda g: is_ambiguously_colorable(g, 2),
        lambda g: is_uniquely_colorable(g, 2),
        lambda g: is_maximal(g, 2, 3),
        lambda g: is_maximal_ambiguous(g, 2),
        lambda g: is_maximal(g, 2, 1),
        lambda g: is_dfold_colorable(g, 3, 2),
        lambda g: reconstruct_matrix(g, 2),
        lambda g: recover_tensor(g, 3, 2),
    ]
    for call in entry_points:
        with pytest.raises(ResourceLimitError):
            call(big)
