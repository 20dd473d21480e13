"""d-fold colorability, tensors, the join, and matching counts."""

import json

import pytest

from ambigcolor.coloring import chromatic_number, count_colorings
from ambigcolor.dfold import (ColorTensor, build_graph_d,
                              count_perfect_matchings, is_dfold_colorable,
                              is_maximal_dfold, join, load_tensor,
                              recover_tensor, seymour_example)
from ambigcolor.errors import InputFormatError, PreconditionError
from ambigcolor.graphcore import (SimpleGraph, are_isomorphic, build_graph,
                                  clique_number, complement, complete_graph,
                                  cycle_graph, path_graph)
from ambigcolor.matrix import ColorMatrix
from ambigcolor.maximality import is_maximal_ambiguous


def test_tensor_container():
    t = ColorTensor(2, 2, [1, 2, 3, 4])
    assert t[1, 1] == 1 and t[1, 2] == 2 and t[2, 1] == 3
    assert t.order == 10
    with pytest.raises(PreconditionError):
        t[1, 1, 1]
    with pytest.raises(InputFormatError):
        ColorTensor(2, 2, [1, 2, 3])
    with pytest.raises(InputFormatError):
        ColorTensor(2, 1, [1, 2])      # d >= 2


@pytest.mark.parametrize("bad", ["1", 1.5, 2.0, True, None, [1], -1],
                         ids=["str", "fraction", "integral-float", "bool",
                              "none", "list", "negative"])
def test_matrix_and_tensor_share_entry_check(bad):
    with pytest.raises(InputFormatError):
        ColorMatrix([[1, 0], [0, bad]])
    with pytest.raises(InputFormatError):
        ColorTensor(2, 2, [1, 0, 0, bad])
    with pytest.raises(InputFormatError):
        ColorTensor(bad, 2, [1])


def test_non_list_entries_rejected():
    with pytest.raises(InputFormatError):
        ColorMatrix(5)
    with pytest.raises(InputFormatError):
        ColorTensor(2, 2, 5)
    with pytest.raises(InputFormatError):
        load_tensor(json.dumps({"k": 2, "d": 2}))


def test_load_tensor_reads_matrices_as_d2():
    m = ColorMatrix([[1, 2], [0, 3]])
    for text in (m.to_text(), json.dumps(m.to_json())):
        t = load_tensor(text)
        assert (t.k, t.d, t.entries) == (2, 2, (1, 2, 0, 3))


def test_tensor_json_round_trip():
    t = ColorTensor(2, 3, list(range(8)))
    assert load_tensor(json.dumps(t.to_json())).entries == t.entries


def test_build_graph_d_matches_build_graph_at_d2():
    m = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])
    g2 = build_graph(m)
    gd = build_graph_d(ColorTensor.from_matrix(m))
    assert gd.n == g2.n
    assert sorted(gd.edges()) == sorted(g2.edges())


def test_build_graph_d3():
    # one vertex per cell of a 2x2x2 all-ones tensor: adjacency iff all
    # three coordinates differ, i.e. the antipodal perfect matching on Q3
    t = ColorTensor(2, 3, [1] * 8)
    g = build_graph_d(t)
    assert g.n == 8 and g.m == 4
    assert all(g.degree(v) == 1 for v in range(8))


def test_dfold_colorability():
    c4 = cycle_graph(4)
    assert is_dfold_colorable(c4, 2, 3)
    assert is_dfold_colorable(c4, 3, 3)
    assert not is_dfold_colorable(c4, 4, 3)      # only 3 colorings
    # 2-fold == ambiguous
    assert is_dfold_colorable(c4, 2, 3) == (count_colorings(c4, 3, 2) >= 2)


def test_maximal_dfold_vs_maximal_ambiguous():
    for g in (cycle_graph(4), path_graph(3)):
        assert is_maximal_dfold(g, 2, 3) == is_maximal_ambiguous(g, 3)


def test_recover_tensor_round_trip():
    m = ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    g = build_graph(m)
    t = recover_tensor(g, 2, 3)
    g2 = build_graph_d(t)
    assert are_isomorphic(g, g2)
    with pytest.raises(PreconditionError):
        recover_tensor(complete_graph(3), 2, 3)   # only one coloring


def test_join_structure():
    g = join(path_graph(2), path_graph(3))
    assert g.n == 5
    # all cross pairs present
    assert g.m == path_graph(2).m + path_graph(3).m + 2 * 3
    assert chromatic_number(g) == chromatic_number(path_graph(2)) \
        + chromatic_number(path_graph(3))


def test_join_of_maximal_ambiguous_pieces():
    # two copies of the paw (maximal ambiguously 3-colorable, chi = 3):
    # the join has exactly 2 x 2 = 4 distinct 6-colorings and stays
    # maximal at every fold level up to 4
    paw = build_graph(ColorMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert chromatic_number(paw) == 3
    g = join(paw, paw)
    assert count_colorings(g, 6, 10) == 4
    # not maximal 2-fold: an added edge can keep 2 of the 4 colorings alive
    assert not is_maximal_dfold(g, 2, 6)
    assert is_maximal_dfold(g, 3, 6)
    assert is_maximal_dfold(g, 4, 6)
    assert not is_dfold_colorable(g, 5, 6)


def test_count_perfect_matchings_known():
    assert count_perfect_matchings(complete_graph(4)) == 3
    assert count_perfect_matchings(complete_graph(6)) == 15
    assert count_perfect_matchings(cycle_graph(6)) == 2
    assert count_perfect_matchings(path_graph(4)) == 1
    assert count_perfect_matchings(path_graph(3)) == 0    # odd order
    assert count_perfect_matchings(SimpleGraph(0)) == 1


def test_seymour_example_properties():
    g = seymour_example()
    assert g.n == 8 and g.m == 10
    assert clique_number(g) == 2                     # triangle-free
    assert count_perfect_matchings(g) == 3
    # deleting any edge destroys the 3-matching property
    for drop in g.edges():
        h = SimpleGraph(8, [e for e in g.edges() if e != drop])
        assert count_perfect_matchings(h) < 3
    # no anticlique of order 4
    assert clique_number(complement(g)) == 3
    comp = complement(g)
    assert chromatic_number(comp) == 4
    assert is_maximal_dfold(comp, 3, 4)
