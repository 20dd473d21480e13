"""Maximality decision and certificate-matrix reconstruction."""

import json
import random
import tracemalloc
from collections import Counter
from functools import cache
from itertools import combinations, islice

import pytest

from ambigcolor import graphcore, maximality
from ambigcolor.cli import main
from ambigcolor.coloring import (_class_masks, _ordered_classes,
                                 count_colorings, enumerate_colorings)
from ambigcolor.errors import (PreconditionError, ReconstructionError,
                               ResourceLimitError)
from ambigcolor.graphcore import (SimpleGraph, _augment, are_isomorphic,
                                  build_graph, canonical_form, clique_number,
                                  complete_graph, cycle_graph,
                                  enumerate_graphs, from_graph6,
                                  graph_levels, path_graph)
from ambigcolor.matrix import (MAX_K, NORMAL, SMALL, SPECIAL, TINY,
                               ColorMatrix, _bipartite_matching, classify,
                               enumerate_desirable, matrix_classes)
from ambigcolor.maximality import (is_maximal, is_maximal_ambiguous,
                                   reconstruct_matrix, verify_theorem1)

FIG_MATRIX = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])

# desirable matrices of order 17..20: normal for k = 3, 4, 5, special for
# k = 3, 4
LARGE_MATRICES = [
    ColorMatrix([[3, 2, 1], [1, 3, 2], [2, 1, 3]]),
    ColorMatrix([[3, 2, 0, 0], [0, 3, 2, 0], [0, 0, 3, 2], [2, 0, 0, 3]]),
    ColorMatrix([[2, 1, 1, 0], [0, 2, 1, 1], [1, 0, 2, 1], [1, 1, 0, 3]]),
    ColorMatrix([[2, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0],
                 [0, 0, 1, 2, 1], [1, 0, 0, 1, 2]]),
    ColorMatrix([[6, 1, 0], [0, 6, 0], [0, 0, 6]]),
    ColorMatrix([[5, 1, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 4]]),
]


def oracle_is_maximal(g, k, d):
    """Reference: count the colorings of G and of each G + uv from
    scratch."""
    if count_colorings(g, k, d) < d:
        return False
    for u, v in g.non_edges():
        if count_colorings(g.add_edge(u, v), k, d) >= d:
            return False
    return True


def assert_relabeling_is_isomorphism(g, mat, relabeling):
    assert sorted(relabeling) == list(range(g.n))
    assert sorted(relabeling.values()) == sorted(build_graph(mat).labels)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            (a, b, _), (c, e, _) = relabeling[u], relabeling[v]
            assert g.has_edge(u, v) == (a != c and b != e)


def test_is_maximal_matches_oracle_on_all_small_graphs():
    # d = 4 has two middle layers, so only there does the order of the
    # layer update matter
    for n in range(8):
        for g in enumerate_graphs(n):
            for k in (1, 2, 3, 4):
                for d in (1, 2, 3, 4) if n <= 6 else (1, 2, 3):
                    assert is_maximal(g, k, d) == oracle_is_maximal(g, k, d), \
                        (g.edges(), n, k, d)


def test_is_maximal_large_family_graphs():
    for mat in LARGE_MATRICES:
        assert classify(mat).desirable and 17 <= mat.order <= 20
        g = build_graph(mat)
        assert is_maximal(g, mat.k, 2)
        edges = g.edges()
        for drop in edges:
            h = SimpleGraph(g.n, [e for e in edges if e != drop])
            assert not is_maximal(h, mat.k, 2)


def test_is_maximal_invariant_under_vertex_order():
    rnd = random.Random(7)
    g = build_graph(LARGE_MATRICES[1])
    h = SimpleGraph(g.n, g.edges()[1:])
    for _ in range(6):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert is_maximal(g.permuted(perm), 4, 2)
        assert not is_maximal(h.permuted(perm), 4, 2)


def test_is_maximal_rejects_d_below_one():
    with pytest.raises(PreconditionError):
        is_maximal(cycle_graph(4), 3, 0)


def test_is_maximal_memory_flat_in_d():
    # two vertices, two 2-colorings: no d >= 3 is reached, and the tally
    # layers grow with the colorings read, not with d
    g = SimpleGraph(2)
    tracemalloc.start()
    try:
        assert not is_maximal(g, 2, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert not is_maximal(g, 2, 10**12)


def test_is_maximal_ambiguous_known():
    c4 = cycle_graph(4)
    assert is_maximal_ambiguous(c4, 3)
    assert not is_maximal_ambiguous(c4, 2)     # unique 2-coloring
    assert not is_maximal_ambiguous(c4, 4)     # adding a chord keeps ambiguity
    assert is_maximal_ambiguous(path_graph(3), 3)
    assert not is_maximal_ambiguous(complete_graph(4), 4)


def test_is_maximal_colorable():
    # maximal k-colorable (d = 1) graphs are the complete multipartite
    # graphs with exactly k classes
    assert is_maximal(complete_graph(4), 4, 1)
    assert is_maximal(cycle_graph(4), 2, 1)         # K_{2,2}
    assert is_maximal(path_graph(3), 2, 1)          # P3 = K_{1,2}
    assert not is_maximal(path_graph(4), 2, 1)
    assert not is_maximal(cycle_graph(5), 2, 1)     # not even colorable


def test_figure_graph_reproduction():
    g = build_graph(FIG_MATRIX)
    assert g.n == 11
    from ambigcolor.coloring import count_colorings
    assert count_colorings(g, 3, 10) == 2
    assert is_maximal_ambiguous(g, 3)
    mat, trace = reconstruct_matrix(g, 3)
    assert classify(mat).verdict == NORMAL
    assert classify(mat).r == 3
    assert trace.r == 3
    assert are_isomorphic(build_graph(mat), g)


def test_reconstruct_tiny_route():
    # P3 is maximal ambiguously 3-colorable and 2-colorable: diagonal
    # certificate diag(2, 1, 0)
    mat, trace = reconstruct_matrix(path_graph(3), 3)
    assert classify(mat).verdict == SMALL
    assert sorted(mat.diagonal(), reverse=True) == [2, 1, 0]
    assert trace.r == 0
    # at k = 4 the same graph pads with a second zero and lands in tiny
    assert_relabeling_is_isomorphism(path_graph(3), mat, trace.relabeling)
    mat4, trace4 = reconstruct_matrix(path_graph(3), 4)
    assert classify(mat4).verdict == TINY
    assert_relabeling_is_isomorphism(path_graph(3), mat4, trace4.relabeling)


def test_reconstruct_small_route():
    mat, trace = reconstruct_matrix(cycle_graph(4), 3)
    assert classify(mat).verdict == SMALL
    assert sorted(mat.diagonal(), reverse=True) == [2, 2, 0]
    assert_relabeling_is_isomorphism(cycle_graph(4), mat, trace.relabeling)


def test_reconstruct_large_orders():
    # orders above the canonical-form cap, in a shuffled vertex order
    rnd = random.Random(3)
    for mat in LARGE_MATRICES:
        g = build_graph(mat)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        g = g.permuted(perm)
        out, trace = reconstruct_matrix(g, mat.k)
        assert classify(out).verdict == classify(mat).verdict
        assert_relabeling_is_isomorphism(g, out, trace.relabeling)
        with pytest.raises(ReconstructionError):
            reconstruct_matrix(SimpleGraph(g.n, g.edges()[1:]), mat.k)


def seeded_desirable(rng, k, n, kind):
    """A desirable k x k matrix of entry sum n > 2k: normal, a positive
    diagonal and a cycle on a block of r >= 2 indices with the rest of the
    mass inside the block or on the diagonal outside it; or special, a
    positive diagonal and one off-diagonal 1.  Then one seeded
    simultaneous row and column permutation."""
    entries = [[int(i == j) for j in range(k)] for i in range(k)]
    if kind == NORMAL:
        block = rng.sample(range(k), rng.randint(2, k))
        for a, b in zip(block, block[1:] + block[:1]):
            entries[a][b] += 1
        cells = ([(i, j) for i in block for j in block]
                 + [(i, i) for i in range(k) if i not in block])
    else:
        i, j = rng.sample(range(k), 2)
        entries[i][j] = 1
        cells = [(i, i) for i in range(k)]
    for _ in range(n - sum(map(sum, entries))):
        i, j = rng.choice(cells)
        entries[i][j] += 1
    order = rng.sample(range(k), k)
    return ColorMatrix([[entries[p][q] for q in order] for p in order])


def test_certifies_desirable_graphs_up_to_max_vertices():
    # G(A) of 33..64 vertices, k = 3..8, in shuffled vertex orders: each is
    # certified, and G(A) - e and G(A) + e are refused by both functions
    rng = random.Random(37)
    seen = set()
    for item in range(160):
        k, n = 3 + item % 6, 33 + item % 32
        kind = (NORMAL, SPECIAL)[item // 6 % 2]
        mat = seeded_desirable(rng, k, n, kind)
        assert classify(mat).verdict == kind
        perm = list(range(n))
        rng.shuffle(perm)
        g = build_graph(mat).permuted(perm)
        assert is_maximal_ambiguous(g, k)
        out, trace = reconstruct_matrix(g, k)
        assert classify(out).verdict == kind
        assert_relabeling_is_isomorphism(g, out, trace.relabeling)
        u, v = rng.choice(g.edges())
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        for h in (SimpleGraph.from_rows(rows),
                  g.add_edge(*rng.choice(g.non_edges()))):
            assert not is_maximal_ambiguous(h, k)
            with pytest.raises(ReconstructionError):
                reconstruct_matrix(h, k)
        seen.add((k, kind, n))
    assert {(k, kind) for k, kind, _ in seen} == {
        (k, kind) for k in range(3, 9) for kind in (NORMAL, SPECIAL)}
    assert min(n for *_, n in seen) == 33
    assert max(n for *_, n in seen) == graphcore.MAX_VERTICES


def test_reconstructed_relabeling_is_an_isomorphism_on_small_graphs():
    # reconstruct_matrix checks G = G(A) once, by the lemma on the aligned
    # classes; this checks its relabeling edge by edge on every maximal
    # ambiguously k-colorable graph with n <= 7
    checked = 0
    for _, graphs in graph_levels(7):
        for g in graphs:
            for k in (2, 3, 4):
                if is_maximal_ambiguous(g, k):
                    mat, trace = reconstruct_matrix(g, k)
                    assert_relabeling_is_isomorphism(g, mat,
                                                     trace.relabeling)
                    checked += 1
    assert checked == 63


def test_reconstruct_special_route():
    paw = build_graph(ColorMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    mat, trace = reconstruct_matrix(paw, 3)
    assert classify(mat).verdict == SPECIAL
    assert trace.r == 2


def test_reconstruct_rejects_non_ambiguous():
    with pytest.raises(ReconstructionError):
        reconstruct_matrix(complete_graph(3), 3)
    with pytest.raises(ReconstructionError):
        reconstruct_matrix(cycle_graph(5), 2)


@pytest.mark.parametrize("text", ["GCxvfW", "GCpdrw"])
def test_hall_condition_fails_on_ambiguous_non_maximal_graphs(text):
    # the first 4-coloring has 4 classes and the second 3, so the classes
    # of the first cannot all be matched to distinct classes of the second
    g = from_graph6(text)
    first, second = [c.num_classes for c in enumerate_colorings(g, 4)][:2]
    assert (g.n, first, second) == (8, 4, 3)
    assert count_colorings(g, 4, 2) == 2
    assert not is_maximal_ambiguous(g, 4)
    with pytest.raises(ReconstructionError, match="Hall condition"):
        reconstruct_matrix(g, 4)


def oracle_joins_separated_pairs(g, a_ord, b_ord):
    """Reference lemma, a pass of its own: every v in A_i n B_j has
    N(v) = V - (A_i u B_j)."""
    full = (1 << g.n) - 1
    for a in a_ord:
        for b in b_ord:
            for v in range(g.n):
                if (a & b) >> v & 1 and g.rows[v] != full & ~(a | b):
                    return False
    return True


def oracle_certificate(a_ord, b_ord):
    """Reference certificate, a second pass: the entries |A_i n B_j| and
    the labels (i+1, j+1, t) of the vertices of A_i n B_j, ascending."""
    entries = [[(a & b).bit_count() for b in b_ord] for a in a_ord]
    relabeling = {}
    for i, a in enumerate(a_ord, start=1):
        for j, b in enumerate(b_ord, start=1):
            cell = [v for v in range(a.bit_length()) if (a & b) >> v & 1]
            for t, v in enumerate(cell, start=1):
                relabeling[v] = (i, j, t)
    return ColorMatrix(entries), relabeling


def oracle_reconstruct(g, k):
    """Reference: `reconstruct_matrix` with the Hall matching built first,
    then the lemma and the certificate each in a pass of its own."""
    cols = [_ordered_classes(masks) for masks in islice(_class_masks(g, k), 2)]
    if len(cols) < 2:
        raise ReconstructionError("graph is not ambiguously k-colorable")
    a, b = cols
    if len(a) < k:
        parts = sorted(a, key=int.bit_count, reverse=True)
        parts += [0] * (k - len(parts))
        a_ord = b_ord = parts
        r = 0
    else:
        adj = [[j for j in range(len(b)) if a[i] & b[j]] for i in range(k)]
        size, match_right = _bipartite_matching(adj, k, len(b))
        if size < k:
            raise ReconstructionError(
                "Hall condition failed on the class-intersection graph")
        match = [0] * k
        for j, i in enumerate(match_right):
            match[i] = j
        order = sorted(range(k), key=lambda i: (a[i] == b[match[i]],
                                                a[i] & -a[i]))
        r = sum(a[i] != b[match[i]] for i in range(k))
        a_ord = [a[i] for i in order]
        b_ord = [b[match[i]] for i in order]
    if not oracle_joins_separated_pairs(g, a_ord, b_ord):
        raise ReconstructionError("G(A) is not isomorphic to the input")
    matrix, relabeling = oracle_certificate(a_ord, b_ord)
    verdict = classify(matrix)
    if not verdict.desirable:
        raise ReconstructionError(
            f"reconstructed matrix is not desirable: {verdict.witness}")
    return matrix, maximality.ReconstructionTrace(r, relabeling)


def _reconstruction_outcome(reconstruct, g, k):
    try:
        matrix, trace = reconstruct(g, k)
    except ReconstructionError as exc:
        return str(exc)
    return matrix.entries, trace.r, trace.relabeling


def test_reconstruct_matches_matching_first_oracle():
    # same certificate, r and relabeling, or the same message, against the
    # oracle that checks the lemma and builds the certificate in two passes
    cases = [(g, k) for _, graphs in graph_levels(7) for g in graphs
             for k in range(1, 6)]
    cases += [(from_graph6(text), 4) for text in ("GCxvfW", "GCpdrw")]
    outcomes = set()
    for g, k in cases:
        got = _reconstruction_outcome(reconstruct_matrix, g, k)
        assert got == _reconstruction_outcome(oracle_reconstruct, g, k), \
            (g.edges(), k)
        outcomes.add(got.split(":")[0] if isinstance(got, str)
                     else "certificate")
    # every check of `_reconstruct_from` decides some case
    assert outcomes == {
        "certificate", "graph is not ambiguously k-colorable",
        "Hall condition failed on the class-intersection graph",
        "G(A) is not isomorphic to the input",
        "reconstructed matrix is not desirable"}


def test_huge_k_on_two_isolated_vertices():
    # two 2**62-colorings, and one class per vertex at most: no search
    # allocates per color, and reconstruction stops at matrix.MAX_K first
    g, k = SimpleGraph(2), 2 ** 62
    assert count_colorings(g, k, 10) == 2
    assert is_maximal_ambiguous(g, k)
    with pytest.raises(PreconditionError):
        reconstruct_matrix(g, k)


def test_reconstruct_refuses_k_outside_its_range(monkeypatch):
    # checked before any search: k = 0 is bad input, not a graph without
    # two 0-colorings
    def no_search(g, k):
        raise AssertionError("a coloring search ran")

    monkeypatch.setattr(maximality, "_class_masks", no_search)
    for k in (0, -1, MAX_K + 1):
        with pytest.raises(PreconditionError, match=f"1..{MAX_K}"):
            reconstruct_matrix(SimpleGraph(2), k)


def test_lemma_checked_before_classify(monkeypatch):
    # classify runs only on graphs that pass the lemma on their first two
    # colorings, which are then G(A) of the matrix it classifies, and that
    # matrix holds the entries of the one certificate pass
    lemma, classified = [], []
    certificate = maximality._certificate

    def spy_certificate(g, a_ord, b_ord):
        lemma.append(certificate(g, a_ord, b_ord))
        return lemma[-1]

    def spy_classify(m):
        classified.append(m)
        return classify(m)

    monkeypatch.setattr(maximality, "_certificate", spy_certificate)
    monkeypatch.setattr(maximality, "classify", spy_classify)
    passed = calls = 0
    for _, graphs in graph_levels(6):
        for k in (2, 3, 4):
            for g in graphs:
                lemma.clear()
                classified.clear()
                try:
                    reconstruct_matrix(g, k)
                    ok = True
                except ReconstructionError:
                    ok = False
                assert ok == is_maximal_ambiguous(g, k)
                assert len(lemma) <= 1 and len(classified) <= 1
                if classified:
                    assert lemma[0] is not None
                    assert ColorMatrix(lemma[0][0]) == classified[0]
                    assert are_isomorphic(g, build_graph(classified[0]))
                passed += len(lemma) == 1 and lemma[0] is not None
                calls += len(classified)
    assert calls == passed > 0


def test_reconstruct_trace_is_consistent():
    g = build_graph(FIG_MATRIX)
    mat, trace = reconstruct_matrix(g, 3)
    # relabeling is a bijection onto the label triples of G(A)
    assert sorted(trace.relabeling) == list(range(g.n))
    built = build_graph(mat)
    assert sorted(trace.relabeling.values()) == sorted(built.labels)
    # entry (i, j) counts the vertices relabeled into cell (i, j)
    for i in range(1, 4):
        for j in range(1, 4):
            cell = [v for v, (a, b, _) in trace.relabeling.items()
                    if (a, b) == (i, j)]
            assert len(cell) == mat[i, j]


def test_round_trip_families_sample():
    # each G(A) in its built vertex order and in a seeded shuffled one
    rnd = random.Random(17)
    for k in (2, 3):
        for n in range(2, 8):
            for mat in enumerate_desirable(k, n):
                built = build_graph(mat)
                perm = list(range(n))
                rnd.shuffle(perm)
                for g in (built, built.permuted(perm)):
                    out, _ = reconstruct_matrix(g, k)
                    assert are_isomorphic(build_graph(out), g)
                    assert classify(out).desirable


def test_verify_theorem1_small():
    rows = verify_theorem1(7, [2, 3, 4])
    assert all(not r.counterexamples for r in rows)
    by = {(r.n, r.k): r for r in rows}
    # frozen oracle values for the corpus
    assert by[(4, 3)].maximal_ambiguous == 2       # C4 and the paw
    assert by[(4, 3)].matched_by_matrix == 2
    assert by[(5, 2)].maximal_ambiguous == 3
    assert by[(5, 3)].maximal_ambiguous == 3
    # (graphs, maximal_ambiguous, matched_by_matrix, family_graphs), frozen
    # from the harness that searched the colorings once per verdict
    frozen = {(6, 2): (156, 5, 5, 14), (6, 3): (156, 7, 7, 13),
              (6, 4): (156, 4, 4, 5), (7, 2): (1044, 7, 7, 25),
              (7, 3): (1044, 13, 13, 46), (7, 4): (1044, 8, 8, 14)}
    for key, want in frozen.items():
        r = by[key]
        assert (r.graphs, r.maximal_ambiguous, r.matched_by_matrix,
                r.family_graphs) == want, key


def recorded_levels(monkeypatch):
    """Spy on the harness's graph_levels: the (n, graphs) pairs it used,
    the very graph objects it searched."""
    levels = []
    make = maximality.graph_levels

    def recording(max_n):
        for level in make(max_n):
            levels.append(level)
            yield level

    monkeypatch.setattr(maximality, "graph_levels", recording)
    return levels


@cache
def matrix_graph_certificates(n):
    """The certificates of G(M) over `matrix_classes(n, n)`: every graph
    G(M) on n vertices, as M has at most n nonzero rows and columns."""
    return frozenset(canonical_form(build_graph(m))
                     for m in matrix_classes(n, n))


def shaped_oracle(g):
    """Whether g is G(M) for some matrix M, by its certificate."""
    return canonical_form(g) in matrix_graph_certificates(g.n)


def co_claw_oracle(g):
    """Brute force: some 4 vertices induce a triangle and a vertex joined
    to none of it."""
    for quad in combinations(range(g.n), 4):
        for x in quad:
            tri = [v for v in quad if v != x]
            if (all(g.has_edge(a, b) for a, b in combinations(tri, 2))
                    and not any(g.has_edge(x, v) for v in tri)):
                return True
    return False


def test_verify_theorem1_searches_colorings_once_per_graph(monkeypatch):
    # one _class_masks search per (graph, k) that neither the shape nor
    # the leading-clique rule skips, and one more per family matrix checks
    # its G(A); every graph skipped for k is no G(M) or holds a
    # (k + 1)-clique, and both rules skip some graph
    calls = []          # (graph, k), the graph kept so no id is reused
    search = maximality._class_masks

    def counted(g, k):
        calls.append((g, k))
        return search(g, k)

    monkeypatch.setattr(maximality, "_class_masks", counted)
    levels = recorded_levels(monkeypatch)
    rows = verify_theorem1(6, [2, 3, 4])
    monkeypatch.undo()
    graphs = dict(levels)
    assert len(graphs) == 6
    searches = Counter((id(g), k) for g, k in calls)
    level_ids = {id(g) for level in graphs.values() for g in level}
    family = Counter((g.n, k) for g, k in calls if id(g) not in level_ids)
    skipped = Counter()
    for r in rows:
        assert r.graphs == len(graphs[r.n])
        assert family[(r.n, r.k)] == r.family_graphs == len(
            list(enumerate_desirable(r.k, r.n)))
        for g in graphs[r.n]:
            count = searches[(id(g), r.k)]
            shaped = shaped_oracle(g)
            assert count == (shaped
                             and maximality._leading_clique(g) <= r.k)
            if not shaped:
                skipped["unshaped"] += 1
            elif not count:
                skipped["clique"] += 1
                assert clique_number(g) > r.k, (g.edges(), r.k)
    assert skipped["unshaped"] > 0 and skipped["clique"] > 0, skipped


def count_orders(monkeypatch):
    """Spy on the search order helper: the list of rows it was called on."""
    calls = []
    helper = graphcore._clique_cover_order

    def counted(rows):
        calls.append(rows)
        return helper(rows)

    monkeypatch.setattr(graphcore, "_clique_cover_order", counted)
    return calls


def test_maximality_and_reconstruction_share_one_search_order(monkeypatch):
    calls = count_orders(monkeypatch)
    for mat in LARGE_MATRICES:
        g = build_graph(mat)
        assert is_maximal_ambiguous(g, mat.k)
        assert reconstruct_matrix(g, mat.k)[0].order == mat.order
        assert calls == [g.rows]
        calls.clear()


def test_verify_theorem1_computes_one_search_order_per_graph(monkeypatch):
    # every G(M)-shaped level graph gets its order once, for its leading
    # clique, and every search on it reuses that order, including graphs
    # no k searches; a level graph that is no G(M) never gets one; each
    # family graph gets its order once, for its own search
    calls = count_orders(monkeypatch)
    searched = {}       # id -> graph, kept alive so no id is reused
    search = maximality._class_masks

    def recorded(g, k):
        searched[id(g)] = g
        return search(g, k)

    monkeypatch.setattr(maximality, "_class_masks", recorded)
    levels = recorded_levels(monkeypatch)
    rows = verify_theorem1(6, [2, 3, 4])
    level_graphs = {id(g): g for _, level in levels for g in level}
    assert len(level_graphs) == sum(len(level)
                                    for _, level in graph_levels(6))
    family = {key: g for key, g in searched.items()
              if key not in level_graphs}
    assert len(family) == sum(r.family_graphs for r in rows)
    unshaped = {key for key, g in level_graphs.items()
                if not shaped_oracle(g)}
    assert unshaped and not unshaped & set(searched)
    # some shaped level graphs are never searched either: their leading
    # clique is too big
    assert set(searched) - set(family) < set(level_graphs) - unshaped
    ordered = [g for key, g in level_graphs.items() if key not in unshaped]
    ordered += family.values()
    assert len(calls) == len(ordered)
    assert sorted(calls) == sorted(g.rows for g in ordered)


def _separated_non_edge(g, a, b):
    """Brute force: a non-edge uv that both class lists separate."""
    def part(cols, v):
        return next(i for i, c in enumerate(cols) if c >> v & 1)

    return any(part(a, u) != part(a, v) and part(b, u) != part(b, v)
               for u, v in g.non_edges())


def test_verify_theorem1_verdicts_match_the_public_functions(monkeypatch):
    # the harness's verdict pair for each (graph, k) that reaches its cores
    # equals what is_maximal_ambiguous and reconstruct_matrix say on their
    # own; every other (graph, k) is skipped for one of four reasons (no
    # G(M), a leading clique above k, fewer than two k-colorings, the
    # lemma failing on the first two), each of which occurs, and neither
    # public function accepts a skipped pair
    maximal_over = maximality._is_maximal_over
    reconstruct_from = maximality._reconstruct_from
    search = maximality._class_masks
    seen = []
    searched = set()
    alive = []          # every searched graph, kept so no id is reused

    def record_search(g, k):
        searched.add((id(g), k))
        alive.append(g)
        return search(g, k)

    def record_maximal(g, colorings, d):
        seen.append([g, maximal_over(g, colorings, d)])
        return seen[-1][1]

    def record_certificate(g, k, cols):
        # called after the maximality pass on the same graph
        assert seen[-1][0] is g and len(seen[-1]) == 2
        seen[-1].append(k)
        try:
            out = reconstruct_from(g, k, cols)
        except ReconstructionError:
            seen[-1].append(False)
            raise
        seen[-1].append(True)
        return out

    monkeypatch.setattr(maximality, "_class_masks", record_search)
    monkeypatch.setattr(maximality, "_is_maximal_over", record_maximal)
    monkeypatch.setattr(maximality, "_reconstruct_from", record_certificate)
    levels = recorded_levels(monkeypatch)
    verify_theorem1(6, [1, 2, 3, 4])
    monkeypatch.undo()
    # entries of length 2 come from the forward direction's own
    # is_maximal_ambiguous calls
    pairs = [entry for entry in seen if len(entry) == 4]
    checked = {(id(g), k) for g, _, k, _ in pairs}
    assert len(checked) == len(pairs)
    everything = [(g, k) for _, graphs in levels for g in graphs
                  for k in range(1, 5)]
    assert len(everything) == 4 * sum(len(graphs)
                                      for _, graphs in graph_levels(6))
    assert checked <= {(id(g), k) for g, k in everything}
    reasons = {"unshaped": 0, "clique": 0, "colorings": 0, "lemma": 0}
    for g, k in everything:
        if (id(g), k) in checked:
            continue
        if (id(g), k) not in searched and not shaped_oracle(g):
            reasons["unshaped"] += 1
        elif (id(g), k) not in searched:
            reasons["clique"] += 1
            assert clique_number(g) > k
        elif count_colorings(g, k, 2) < 2:
            reasons["colorings"] += 1
        else:
            reasons["lemma"] += 1
            first, second = [_ordered_classes(m)
                             for m in islice(_class_masks(g, k), 2)]
            assert _separated_non_edge(g, first, second)
        assert not is_maximal_ambiguous(g, k)
        with pytest.raises(ReconstructionError):
            reconstruct_matrix(g, k)
    assert all(reasons.values()), reasons
    for g, is_max, k, ok in pairs:
        assert shaped_oracle(g)
        assert count_colorings(g, k, 2) == 2
        assert is_max == is_maximal_ambiguous(g, k)
        assert ok == _certified(g, k)
    assert any(is_max for _, is_max, _, _ in pairs)


def test_leading_clique_is_a_clique_prefix_of_the_search_order():
    rng = random.Random(29)
    cases = [g for _, graphs in graph_levels(7) for g in graphs]
    cases += [SimpleGraph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n) if rng.random() < p])
              for n, p in ((rng.randint(0, 20), rng.random())
                           for _ in range(200))]
    for g in cases:
        w = maximality._leading_clique(g)
        order = g.clique_cover_order()
        lead = order[:w]
        assert all(g.has_edge(u, v) for i, u in enumerate(lead)
                   for v in lead[i + 1:]), g.edges()
        # the block ends at the first vertex that misses one before it
        assert w == len(order) or not all(g.has_edge(u, order[w])
                                          for u in lead)
        assert (w > 0) == (g.n > 0) and w <= clique_number(g)


def test_shape_test_picks_out_the_graphs_of_matrices():
    # G(M)-shaped graphs are exactly the G(M) of the matrix classes
    counts = []
    for n, level in graph_levels(7):
        shaped = {canonical_form(g) for g in level
                  if maximality._is_shaped(g.rows)}
        assert shaped == matrix_graph_certificates(n), n
        counts.append(len(shaped))
    assert counts == [1, 2, 4, 10, 23, 65, 177]


def test_shape_test_refuses_every_co_claw_graph():
    # a co-claw of G is a claw of the complement of its twin quotient
    rng = random.Random(31)
    cases = [g for _, graphs in graph_levels(7) for g in graphs]
    cases += [SimpleGraph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n) if rng.random() < p])
              for n, p in ((rng.randint(0, 20), rng.random())
                           for _ in range(200))]
    outcomes = Counter()
    for g in cases:
        co_claw = co_claw_oracle(g)
        shaped = maximality._is_shaped(g.rows)
        assert not (co_claw and shaped), g.edges()
        outcomes[co_claw, shaped, g.n > 7] += 1
    # shaped graphs, co-claw graphs and graphs refused for a diamond or an
    # odd hole occur among the small graphs and the large random ones
    assert {key[:2] for key in outcomes} == {(False, True), (True, False),
                                             (False, False)}, outcomes
    assert {key[2] for key in outcomes} == {False, True}


def test_desirable_graphs_have_no_co_claw():
    # G(A) joins two cells iff they share no row and no column
    count = 0
    for k in range(1, 5):
        for n in range(9):
            for mat in enumerate_desirable(k, n):
                count += 1
                g = build_graph(mat)
                assert not co_claw_oracle(g), mat
                assert maximality._is_shaped(g.rows), mat
    assert count > 100


def test_co_claw_graphs_are_neither_maximal_nor_certified():
    graphs = [g for _, level in graph_levels(7) for g in level
              if co_claw_oracle(g)]
    assert len(graphs) == 822
    for g in graphs:
        for k in range(2, 6):
            assert not is_maximal_ambiguous(g, k), (g.edges(), k)
            with pytest.raises(ReconstructionError):
                reconstruct_matrix(g, k)


def test_shaped_levels_match_the_shaped_members_of_graph_levels():
    # grown from the shaped graphs alone, as above ENUMERATION_MAX_N, with
    # no edge bound and no complement step; compared as certificate sets
    level = [SimpleGraph(0)]
    for n, graphs in graph_levels(8):
        level = _augment(level, n * (n - 1) // 2, maximality._is_shaped)
        assert all(g.n == n for g in level)
        certs = [canonical_form(g) for g in level]
        assert len(set(certs)) == len(certs)
        assert set(certs) == {canonical_form(g) for g in graphs
                              if maximality._is_shaped(g.rows)}, n


def test_verify_theorem1_past_the_graph_levels():
    # the n = 9 rows: (maximal_ambiguous = matched_by_matrix, family_graphs)
    # per k, over the 1666 G(M)-shaped graphs on nine vertices
    rows = [r for r in verify_theorem1(9, [2, 3, 4, 5]) if r.n >= 8]
    assert [(r.n, r.graphs, r.shaped) for r in rows] == (
        [(8, 12346, 539)] * 4 + [(9, None, 1666)] * 4)
    got = {r.k: (r.maximal_ambiguous, r.family_graphs)
           for r in rows if r.n == 9}
    assert got == {2: (14, 63), 3: (50, 504), 4: (39, 328), 5: (19, 59)}
    assert all(r.maximal_ambiguous == r.matched_by_matrix
               and not r.counterexamples for r in rows)


def first_two_class_lists():
    """(g, k, first, second) for every graph_levels(7) graph and k = 1..5
    with two k-colorings: their `_ordered_classes` lists."""
    for _, graphs in graph_levels(7):
        for g in graphs:
            for k in range(1, 6):
                cols = [_ordered_classes(m)
                        for m in islice(_class_masks(g, k), 2)]
                if len(cols) == 2:
                    yield g, k, cols[0], cols[1]


def test_lemma_check_finds_a_non_edge_both_colorings_separate():
    # _certificate is None exactly when some non-edge is separated by both
    # colorings, whatever the lists' order and zeros
    outcomes = set()
    for g, _, a, b in first_two_class_lists():
        want = _separated_non_edge(g, a, b)
        assert (maximality._certificate(g, a, b) is None) == want
        assert (maximality._certificate(g, b + [0], a[::-1]) is None) == want
        outcomes.add(want)
    assert outcomes == {False, True}


def test_certificate_relabeling_is_an_isomorphism_onto_g_of_its_entries():
    # on every first-two-coloring pair, unequal lengths included, a
    # certificate's relabeling maps g onto G(entries), the entries padded
    # with zero rows and columns to a square; padding the lists instead
    # gives the same certificate
    checked = set()
    for g, k, a, b in first_two_class_lists():
        certificate = maximality._certificate(g, a, b)
        if certificate is None:
            continue
        entries, relabeling = certificate
        size = max(len(a), len(b))
        square = [row + [0] * (size - len(b)) for row in entries]
        square += [[0] * size] * (size - len(a))
        assert_relabeling_is_isomorphism(g, ColorMatrix(square), relabeling)
        padded = maximality._certificate(g, a + [0] * (size - len(a)),
                                         b + [0] * (size - len(b)))
        assert padded == (square, relabeling)
        checked.add(len(a) == len(b))
    assert checked == {False, True}


def test_verify_theorem1_rejects_vacuous_runs():
    with pytest.raises(PreconditionError):
        verify_theorem1(0, [3])
    with pytest.raises(PreconditionError):
        verify_theorem1(4, [])


def test_verify_theorem1_checks_k_before_enumerating(monkeypatch):
    def no_enumeration(max_n):
        raise AssertionError("graphs enumerated before the k check")

    monkeypatch.setattr(maximality, "graph_levels", no_enumeration)
    messages = set()
    for k_list in ([-1], [0], [2, 0], [MAX_K + 1], [3, MAX_K + 1]):
        with pytest.raises(PreconditionError) as info:
            verify_theorem1(4, k_list)
        messages.add(str(info.value))
    assert messages == {"verify_theorem1 needs max_n >= 1 and a non-empty "
                        f"list of k in 1..{MAX_K}"}


def test_verify_theorem1_checks_its_ceiling_before_enumerating(monkeypatch):
    def no_enumeration(max_n):
        raise AssertionError("graphs enumerated before the ceiling check")

    monkeypatch.setattr(maximality, "graph_levels", no_enumeration)
    with pytest.raises(ResourceLimitError):
        verify_theorem1(maximality.SHAPED_MAX_N + 1, [2])


def test_report_json_schema(capsys):
    assert main(["verify", "--theorem", "1", "--max-n", "3", "--k-list", "2",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == 2 and obj["theorem"] == "characterization"
    assert obj["counterexample_total"] == 0
    assert obj["rows"][0]["n"] == 1


def _theorem1_json(capsys):
    assert main(["verify", "--theorem", "1", "--max-n", "5",
                 "--format", "json"]) == 1
    return json.loads(capsys.readouterr().out)


def test_verify_theorem1_reports_graphs_without_a_certificate(monkeypatch,
                                                              capsys):
    # every maximal ambiguous graph becomes a counterexample
    def no_certificate(g, k, cols):
        raise ReconstructionError("patched")

    monkeypatch.setattr(maximality, "_reconstruct_from", no_certificate)
    obj = _theorem1_json(capsys)
    assert obj["counterexample_total"] == sum(
        r["maximal_ambiguous"] for r in obj["rows"]) > 0


def test_verify_theorem1_witnesses_rebuild_the_graphs(monkeypatch, capsys):
    # every certified graph and every family G(A) becomes a counterexample,
    # and its edge lines with the row's n rebuild it
    levels = dict(graph_levels(5))
    monkeypatch.setattr(maximality, "_is_maximal_over",
                        lambda g, colorings, d: False)
    obj = _theorem1_json(capsys)
    assert obj["counterexample_total"] == sum(
        r["matched_by_matrix"] + r["family_graphs"] for r in obj["rows"]) > 0
    for row in obj["rows"]:
        n, k = row["n"], row["k"]
        originals = [g for g in levels[n] if _certified(g, k)]
        originals += [build_graph(m) for m in enumerate_desirable(k, n)]
        rebuilt = [SimpleGraph(n, [tuple(map(int, line.split()))
                                   for line in lines])
                   for lines in row["counterexamples"]]
        assert sorted(g.rows for g in rebuilt) == sorted(
            g.rows for g in originals)


def _certified(g, k):
    try:
        reconstruct_matrix(g, k)
    except ReconstructionError:
        return False
    return True
