"""Turan numbers, the extremal edge-count formula, and the edge bound."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigcolor.coloring import enumerate_colorings
from ambigcolor.errors import PreconditionError
from ambigcolor.extremal import (LemmaBoundInput, ambiguous_max_edges,
                                 brute_force_max_edges, check_lemma_bound,
                                 enumerate_extremal, lemma_bound,
                                 turan_number, turan_report_json,
                                 turan_report_tsv, verify_turan_theorem)
from ambigcolor.graphcore import (SimpleGraph, build_graph, canonical_form,
                                  cycle_graph, enumerate_graphs, graph_levels,
                                  path_graph, turan_graph)
from ambigcolor.matrix import ColorMatrix


def test_turan_number_known():
    assert turan_number(4, 3) == 5
    assert turan_number(6, 3) == 12
    assert turan_number(7, 2) == 12
    assert turan_number(5, 4) == 9
    assert turan_number(0, 2) == 0
    # closed form cross-check: (1 - 1/k) n^2 / 2 rounded by class sizes
    for n in range(2, 13):
        for k in range(2, 6):
            q, r = divmod(n, k)
            expect = (n * n - r * (q + 1) ** 2 - (k - r) * q * q) // 2
            assert turan_number(n, k) == expect


def test_ambiguous_max_edges_formula():
    assert ambiguous_max_edges(6, 3) == 10
    assert ambiguous_max_edges(4, 3) == 4
    assert ambiguous_max_edges(3, 4) == 2
    assert ambiguous_max_edges(2, 2) == 0
    with pytest.raises(PreconditionError):
        ambiguous_max_edges(1, 3)
    with pytest.raises(PreconditionError):
        ambiguous_max_edges(5, 1)


def test_negative_orders_rejected():
    with pytest.raises(PreconditionError):
        enumerate_graphs(-1)
    with pytest.raises(PreconditionError):
        list(graph_levels(-1))
    with pytest.raises(PreconditionError):
        brute_force_max_edges(-1, 2)
    assert list(graph_levels(0)) == []
    assert len(enumerate_graphs(0)) == 1


def test_oracle_agrees_with_formula():
    for k in (2, 3, 4):
        for n in range(max(2, k), 7):
            value, certs = brute_force_max_edges(n, k)
            assert value == ambiguous_max_edges(n, k), (n, k)
            assert certs


def test_extremal_spot_values():
    # frozen oracle results
    v63, certs63 = brute_force_max_edges(6, 3)
    assert v63 == 10 and len(certs63) >= 2
    v43, certs43 = brute_force_max_edges(4, 3)
    assert v43 == 4 and len(certs43) == 2
    assert canonical_form(cycle_graph(4)) in certs43
    # the second (4, 3) extremal graph is the paw = G of an (a)-special matrix
    paw = build_graph(ColorMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert canonical_form(paw) in certs43
    v34, certs34 = brute_force_max_edges(3, 4)
    assert v34 == 2 and certs34 == [canonical_form(path_graph(3))]


def test_extremal_family_enumeration_matches_oracle():
    for k in (2, 3, 4):
        for n in range(max(2, k), 7):
            fam = enumerate_extremal(n, k)
            _, oracle_certs = brute_force_max_edges(n, k)
            assert sorted(fam) == oracle_certs, (n, k)


def test_verify_turan_theorem_report():
    reports = verify_turan_theorem(6, [2, 3])
    assert all(r.formula_agrees and r.certificates_agree for r in reports)
    obj = json.loads(turan_report_json(reports))
    assert obj["all_agree"] is True and obj["schema_version"] == 1
    tsv = turan_report_tsv(reports)
    assert tsv.splitlines()[0].startswith("n\tk")
    assert len(tsv.splitlines()) == len(reports) + 1
    for max_n, k_list in ((1, [2]), (3, [4]), (5, [])):
        with pytest.raises(PreconditionError):
            verify_turan_theorem(max_n, k_list)


# ---------------------------------------------------------------------------
# the edge-count bound
# ---------------------------------------------------------------------------

def spanning_subgraph_instance(rng, n, k):
    """Random spanning subgraph of a complete multipartite graph together
    with its class partition and an admissible class selection."""
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    partition = []
    prev = 0
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
    return LemmaBoundInput(partition, selected), g


def test_lemma_bound_random_instances():
    rng = random.Random(101)
    done = 0
    while done < 1000:
        n = rng.randint(2, 10)
        k = rng.randint(2, min(4, n))
        bound_input, g = spanning_subgraph_instance(rng, n, k)
        edges, bound = check_lemma_bound(bound_input, g)
        assert edges <= bound
        done += 1


def test_lemma_bound_equality_at_mininormal():
    # the mininormal certificate for (n, k) = (6, 3) meets the bound with
    # equality at 10
    m = ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    g = build_graph(m)
    assert g.m == 10
    col = enumerate_colorings(g, 3, limit=1)[0]
    partition = [sorted(c) for c in col.classes()]
    bound_input = LemmaBoundInput(partition, [0, 1, 2])
    edges, bound = check_lemma_bound(bound_input, g)
    assert edges == bound == 10


def test_lemma_bound_validates_input():
    g = turan_graph(6, 3)
    with pytest.raises(PreconditionError):
        lemma_bound(LemmaBoundInput([[0, 1], [2, 3]], []), g)   # not a cover
    with pytest.raises(PreconditionError):
        # class {0, 2} is not an anticlique in T(6, 3)
        lemma_bound(LemmaBoundInput([[0, 2], [1, 3], [4, 5]], []), g)
    with pytest.raises(PreconditionError):
        # selected class larger than alpha
        lemma_bound(
            LemmaBoundInput([[0, 1, 2], [3], [4], [5]],
                            [0]),
            SimpleGraph(6, [(0, 3), (1, 4), (2, 5)]))


def test_lemma_bound_turan_graph_tightness():
    # selecting nothing reduces the bound to the plain Turan number
    g = turan_graph(6, 3)
    partition = [[0, 1], [2, 3], [4, 5]]
    assert lemma_bound(LemmaBoundInput(partition, []), g) == turan_number(6, 3)
    assert g.m == turan_number(6, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lemma_bound_property(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    k = rng.randint(2, min(4, n))
    bound_input, g = spanning_subgraph_instance(rng, n, k)
    edges, bound = check_lemma_bound(bound_input, g)
    assert edges <= bound
