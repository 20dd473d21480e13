"""Acceptance suite: one test per criterion, one PASS line each.

Every expected value below was frozen from an independent oracle run
(naive set-partition filters, labeled-graph canonicalization, subset
enumeration) before being pinned here.  All checks are exact.
"""

import random
import time
from itertools import combinations

from ambigcolor.coloring import (chromatic_number, count_colorings,
                                 enumerate_colorings, iter_colorings)
from ambigcolor.dfold import (count_perfect_matchings, is_dfold_colorable,
                              join, seymour_example)
from ambigcolor.extremal import (brute_force_max_edges, lemma_bound,
                                 turan_number, verify_turan_theorem)
from ambigcolor.graphcore import (SimpleGraph, are_isomorphic, build_graph,
                                  canonical_form, clique_number, complement,
                                  cycle_graph, enumerate_graphs, path_graph)
from ambigcolor.matrix import (ColorMatrix, classify, enumerate_desirable,
                               is_fully_indecomposable, witness_sequence)
from ambigcolor.maximality import (is_maximal, is_maximal_ambiguous,
                                   reconstruct_matrix, verify_theorem1)
from ambigcolor.perfection import is_perfect

K_LIST = (2, 3, 4)


def report(num, text):
    print(f"CRITERION {num}: PASS - {text}")


def corpus_maximal():
    """(graph, k) pairs: all maximal ambiguously k-colorable graphs up to
    isomorphism with n <= 7, k in {2, 3, 4}."""
    out = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for k in K_LIST:
                if is_maximal_ambiguous(g, k):
                    out.append((g, k))
    return out


def test_criterion_01_theorem1_exhaustive_biconditional():
    t0 = time.time()
    rows = verify_theorem1(6, list(K_LIST))
    elapsed = time.time() - t0
    total = sum(len(r.counterexamples) for r in rows)
    assert total == 0
    # spot values frozen from the oracle run
    by = {(r.n, r.k): r for r in rows}
    assert by[(6, 3)].maximal_ambiguous == 7
    assert by[(6, 3)].matched_by_matrix == 7
    assert by[(5, 4)].maximal_ambiguous == 2
    assert elapsed < 120
    report(1, f"0 counterexamples, n <= 6, k in {{2,3,4}}, "
              f"{elapsed:.1f}s single-threaded")


def test_criterion_02_family_sufficiency():
    total = 0
    classes = set()
    for k in K_LIST:
        for n in range(0, 10):
            for mat in enumerate_desirable(k, n):
                total += 1
                classes.add(classify(mat).verdict)
                assert is_maximal_ambiguous(build_graph(mat), k), mat.entries
    assert total >= 200
    assert classes == {"Tiny", "Small", "Special", "Normal"}
    report(2, f"all {total} G(A) (k <= 4, n <= 9, four classes) are "
              "maximal ambiguous")


def test_criterion_03_figure_reproduction():
    a = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])
    g = build_graph(a)
    assert g.n == 11
    assert count_colorings(g, 3, 10) == 2
    assert is_maximal_ambiguous(g, 3)
    mat, _ = reconstruct_matrix(g, 3)
    assert classify(mat).desirable
    assert are_isomorphic(build_graph(mat), g)
    report(3, "11 vertices, exactly 2 3-colorings, maximal, "
              "reconstruction round-trips")


def test_criterion_04_turan_type_theorem():
    t0 = time.time()
    reports = verify_turan_theorem(7, list(K_LIST))
    assert all(r.formula_agrees and r.certificates_agree for r in reports)
    for r in reports:
        assert r.formula_value == turan_number(r.n, r.k) - max(1, r.n // r.k)
    # spot values (frozen from the oracle): note f(4, 3) = 4 is attained by
    # two non-isomorphic graphs, C4 and the paw
    v, certs = brute_force_max_edges(6, 3)
    assert v == 10 and len(certs) >= 2
    v, certs = brute_force_max_edges(4, 3)
    assert v == 4 and canonical_form(cycle_graph(4)) in certs
    assert len(certs) == 2
    v, certs = brute_force_max_edges(3, 4)
    assert v == 2 and certs == [canonical_form(path_graph(3))]
    elapsed = time.time() - t0
    assert elapsed < 300
    report(4, f"formula and extremal sets match the oracle for "
              f"k <= 4, n <= 7 ({elapsed:.1f}s)")


def test_criterion_05_edge_bound_property_suite():
    rng = random.Random(20250826)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 10)
        k = rng.randint(2, min(4, n))
        verts = list(range(n))
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        partition, prev = [], 0
        for c in cuts + [n]:
            partition.append(sorted(verts[prev:c]))
            prev = c
        edges = []
        for a in range(k):
            for b in range(a + 1, k):
                for u in partition[a]:
                    for v in partition[b]:
                        if rng.random() < 0.8:
                            edges.append((u, v))
        g = SimpleGraph(n, edges)
        alpha = n // k
        eligible = [i for i, c in enumerate(partition) if len(c) <= alpha]
        selected = rng.sample(eligible, rng.randint(0, len(eligible)))
        assert g.m <= lemma_bound(g, partition, selected)
        checked += 1
    # equality instance: the mininormal certificate at (n, k) = (6, 3)
    g = build_graph(ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]))
    col = enumerate_colorings(g, 3, limit=1)[0]
    partition = [sorted(c) for c in col.classes()]
    assert g.m == lemma_bound(g, partition, [0, 1, 2]) == 10
    report(5, "1000 random instances satisfy the bound; mininormal "
              "instance tight at 10")


def test_criterion_06_witness_sequence_property_suite():
    rng = random.Random(4242)
    matrices = 0
    while matrices < 500:
        r = rng.randint(2, 6)
        m = ColorMatrix([[rng.randint(0, 2) for _ in range(r)]
                         for _ in range(r)])
        if not is_fully_indecomposable(m):
            continue
        matrices += 1
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j or m[i, j] == 0:
                    continue
                seq = witness_sequence(m, i, j).indices
                assert len(seq) >= 4
                assert (seq[0], seq[1]) == (seq[-2], seq[-1]) == (i, j)
                for a, b in zip(seq, seq[1:]):
                    assert a != b and m[a, b] != 0
    report(6, "500 fully indecomposable matrices (r <= 6): all witness "
              "sequences satisfy the three invariants")


def test_criterion_07_perfectness():
    corpus = corpus_maximal()
    for g, _ in corpus:
        assert is_perfect(g, "definition")
        assert is_perfect(g, "holes")
    family = 0
    for k in K_LIST:
        for n in range(0, 10):
            for mat in enumerate_desirable(k, n):
                g = build_graph(mat)
                family += 1
                assert is_perfect(g, "definition")
                assert is_perfect(g, "holes")
    report(7, f"{len(corpus)} corpus graphs and {family} family graphs "
              "perfect; both methods agree throughout")


def test_criterion_08_exactly_two_colorings():
    applicable = 0
    for g, k in corpus_maximal():
        if chromatic_number(g) == k:     # not (k-1)-colorable
            applicable += 1
            assert count_colorings(g, k, 5) == 2, (g.edges(), k)
    assert applicable > 0
    report(8, f"{applicable} non-(k-1)-colorable corpus graphs all have "
              "exactly 2 k-colorings")


def test_criterion_09_matching_critical_example():
    g = seymour_example()
    assert clique_number(g) == 2                      # triangle-free
    assert count_perfect_matchings(g) == 3
    for drop in g.edges():
        h = SimpleGraph(g.n, [e for e in g.edges() if e != drop])
        assert count_perfect_matchings(h) < 3
    comp = complement(g)
    assert clique_number(comp) == 3                   # no anticlique of 4
    assert chromatic_number(comp) == 4
    assert is_maximal(comp, 4, 3)
    report(9, "subdivided-K4 example: 3 perfect matchings, deletion-"
              "critical, complement chi=4 omega=3 maximal 3-fold")


def test_criterion_10_join_construction():
    paw = build_graph(ColorMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert is_maximal_ambiguous(paw, 3) and chromatic_number(paw) == 3
    g = join(paw, paw)
    assert count_colorings(g, 6, 10) == 4
    assert is_maximal(g, 6, 3)
    assert is_maximal(g, 6, 4)
    assert not is_dfold_colorable(g, 5, 6)
    report(10, "join of two maximal ambiguous chi=3 pieces: exactly 4 "
               "6-colorings, maximal 3-fold and 4-fold")


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def test_criterion_11_enumerator_oracle_equivalence():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = SimpleGraph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < 0.5])
        k = rng.randint(2, 4)
        naive = set()
        for part in _partitions(list(range(n))):
            if len(part) > k:
                continue
            if any(g.has_edge(u, v) for cls in part
                   for u, v in combinations(cls, 2)):
                continue
            naive.add(frozenset(frozenset(c) for c in part))
        fast = {frozenset(c.class_sets()) for c in iter_colorings(g, k)}
        assert fast == naive
    report(11, "enumerate_colorings agrees with the naive set-partition "
               "filter on 200 random graphs (n <= 8)")
