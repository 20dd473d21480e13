"""Turan numbers, the extremal edge-count formula, its class-route and
graph-corpus oracles, and the edge bound."""

import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigcolor import extremal
from ambigcolor.cli import main
from ambigcolor.coloring import enumerate_colorings
from ambigcolor.errors import PreconditionError, ReconstructionError
from ambigcolor.extremal import (ExtremalReport, _edge_count,
                                 ambiguous_max_edges, brute_force_max_edges,
                                 enumerate_extremal, lemma_bound,
                                 max_edges_by_class, turan_number,
                                 verify_turan_theorem)
from ambigcolor.graphcore import (MAX_VERTICES, SimpleGraph, build_graph,
                                  canonical_form, cycle_graph,
                                  enumerate_graphs, from_graph6, graph_levels,
                                  path_graph, turan_graph)
from ambigcolor.matrix import ColorMatrix, matrix_classes


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


def test_turan_number_counts_the_edges_of_the_turan_graph():
    for n in range(MAX_VERTICES + 1):
        for k in range(1, n + 3):
            assert turan_number(n, k) == turan_graph(n, k).m, (n, k)


def test_ambiguous_max_edges_builds_no_graph():
    # T(10^6, 3) would need 10^6 rows; its parts give its edge count, the
    # closed form floor((1 - 1/k) n^2 / 2)
    n, k = 10 ** 6, 3
    start = time.perf_counter()
    value = ambiguous_max_edges(n, k)
    assert time.perf_counter() - start < 0.1
    assert value == (k - 1) * n * n // (2 * k) - n // k


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
        turan_number(-1, 2)
    with pytest.raises(PreconditionError):
        enumerate_graphs(-1)
    with pytest.raises(PreconditionError):
        list(graph_levels(-1))
    with pytest.raises(PreconditionError):
        brute_force_max_edges(-1, 2)
    assert list(graph_levels(0)) == []
    assert len(enumerate_graphs(0)) == 1
    assert brute_force_max_edges(0, 2) == (None, [])


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


def graph_certs(keys):
    """The canonical forms of the graphs G(M) of a list of class keys,
    which must be pairwise non-isomorphic."""
    certs = [canonical_form(build_graph(ColorMatrix(key))) for key in keys]
    assert len(set(certs)) == len(certs)
    return sorted(certs)


def test_extremal_family_enumeration_matches_oracle():
    for k in (2, 3, 4):
        for n in range(max(2, k), 7):
            fam = enumerate_extremal(n, k)
            _, oracle_certs = brute_force_max_edges(n, k)
            assert graph_certs(fam) == oracle_certs, (n, k)


def test_class_route_matches_graph_corpus_oracle():
    cells = [(n, k) for k in (2, 3, 4) for n in range(max(2, k), 8)]
    by_class = max_edges_by_class(cells)
    for cell in cells:
        value, keys, scanned = by_class[cell]
        graph_value, certs = brute_force_max_edges(*cell)
        assert value == graph_value and scanned > 0, cell
        # one key per extremal graph, and every extremal graph keyed
        assert graph_certs(keys) == certs, cell


def test_class_route_matches_formula_past_the_graph_corpus():
    cells = ([(n, 2) for n in range(8, 21)]
             + [(n, k) for k in (3, 4) for n in range(8, 13)])
    for (n, k), (value, keys, scanned) in max_edges_by_class(cells).items():
        assert value == ambiguous_max_edges(n, k), (n, k)
        assert keys and scanned > 0
    with pytest.raises(PreconditionError):
        max_edges_by_class([(1, 2)])
    with pytest.raises(PreconditionError):
        max_edges_by_class([(4, 1)])


def test_edge_count_from_entries():
    for k, n in ((2, 5), (3, 6), (4, 5)):
        for m in matrix_classes(k, n):
            assert _edge_count(m.entries) == build_graph(m).m, m


def test_verify_turan_theorem_report(capsys):
    reports = verify_turan_theorem(6, [2, 3])
    assert all(r.agrees and r.classes_scanned > 0 for r in reports)
    argv = ["verify", "--theorem", "turan", "--max-n", "6", "--k-list", "2,3"]
    assert main(argv + ["--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["all_agree"] is True and obj["schema_version"] == 2
    assert obj["theorem"] == "turan-type" and obj["rows"] == [
        vars(r) for r in reports]
    row = obj["rows"][0]
    assert (row["n"], row["k"]) == (2, 2)
    assert row["oracle_certificates"] == ["2,0;0,0"]
    assert row["certificates"] == [{"families": ["small"], "cert": "2,0;0,0"}]
    assert main(argv) == 0
    tsv = capsys.readouterr().out
    assert tsv.splitlines()[0].startswith("n\tk")
    assert len(tsv.splitlines()) == len(reports) + 1
    for max_n, k_list in ((1, [2]), (3, [4]), (5, [])):
        with pytest.raises(PreconditionError):
            verify_turan_theorem(max_n, k_list)


def test_verify_turan_theorem_reaches_order_12():
    reports = verify_turan_theorem(12, [2, 3, 4])
    assert len(reports) == 11 + 10 + 9
    assert all(r.agrees for r in reports)


def test_verify_turan_theorem_reaches_the_coloring_cap():
    reports = verify_turan_theorem(extremal.EXTREMAL_MAX_N, [2])
    assert len(reports) == extremal.EXTREMAL_MAX_N - 1
    assert all(r.agrees for r in reports)


def test_row_that_scanned_no_class_fails(monkeypatch, capsys):
    report = ExtremalReport(n=4, k=2, formula_value=2, oracle_value=2,
                            formula_agrees=True, certificates_agree=True)
    assert report.classes_scanned == 0 and not report.agrees
    argv = ["verify", "--theorem", "turan", "--max-n", "4", "--k-list", "2",
            "--format", "json"]
    with monkeypatch.context() as patch:
        patch.setattr(extremal, "verify_turan_theorem",
                      lambda max_n, k_list: [report])
        assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["all_agree"] is False

    def scans_nothing(n, k):
        value, keys, _ = route(n, k)
        return value, keys, 0

    route = extremal._class_route
    monkeypatch.setattr(extremal, "_class_route", scans_nothing)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["all_agree"] is False


def test_extremal_graph_without_certificate_is_a_counterexample(
        monkeypatch, capsys):
    # with reconstruction failing on every graph of order 4: exit 1,
    # nothing on stdout, and the graph6 string on stderr decodes to an
    # extremal ambiguously k-colorable graph
    real = extremal.reconstruct_matrix

    def fails_at_order_4(g, k):
        if g.n == 4:
            raise ReconstructionError("reason")
        return real(g, k)

    monkeypatch.setattr(extremal, "reconstruct_matrix", fails_at_order_4)
    assert main(["verify", "--theorem", "turan", "--max-n", "4",
                 "--k-list", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    found = re.fullmatch(r"no certificate: extremal graph (\S+) at k = "
                         r"(\d+): reason\n", captured.err)
    assert found, captured.err
    g, k = from_graph6(found[1]), int(found[2])
    assert (g.n, k) == (4, 2)
    assert g.m == ambiguous_max_edges(g.n, k)
    assert len(enumerate_colorings(g, k, 2)) == 2


def test_verify_turan_theorem_refuses_a_k_above_max_n(monkeypatch):
    # a listed k with no n in k..max_n would get no row and pass vacuously
    def no_cell(n, k):
        raise AssertionError("a cell ran before the k list was checked")

    monkeypatch.setattr(extremal, "_class_route", no_cell)
    monkeypatch.setattr(extremal, "ambiguous_max_edges", no_cell)
    for max_n, k_list in ((5, [2, 9]), (3, [2, 3, 4]), (40, [2, 41])):
        with pytest.raises(PreconditionError, match="max_n >= max k"):
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
    return g, partition, selected


def test_lemma_bound_random_instances():
    rng = random.Random(101)
    done = 0
    while done < 1000:
        n = rng.randint(2, 10)
        k = rng.randint(2, min(4, n))
        g, partition, selected = spanning_subgraph_instance(rng, n, k)
        assert g.m <= lemma_bound(g, partition, selected)
        done += 1


def test_lemma_bound_equality_at_mininormal():
    # the mininormal certificate for (n, k) = (6, 3) meets the bound with
    # equality at 10
    m = ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    g = build_graph(m)
    assert g.m == 10
    col = enumerate_colorings(g, 3, limit=1)[0]
    partition = [sorted(c) for c in col.classes()]
    assert g.m == lemma_bound(g, partition, [0, 1, 2]) == 10


def test_lemma_bound_validates_input():
    g = turan_graph(6, 3)
    with pytest.raises(PreconditionError):
        lemma_bound(g, [[0, 1], [2, 3]], [])   # not a cover
    with pytest.raises(PreconditionError):
        # class {0, 2} is not an anticlique in T(6, 3)
        lemma_bound(g, [[0, 2], [1, 3], [4, 5]], [])
    with pytest.raises(PreconditionError):
        # selected class larger than alpha
        lemma_bound(SimpleGraph(6, [(0, 3), (1, 4), (2, 5)]),
                    [[0, 1, 2], [3], [4], [5]], [0])
    partition = [[0, 1], [2, 3], [4, 5]]
    # a repeated index counted class 0 twice (bound 8 < 12 edges), -1
    # aliased class 2, and 3 raised IndexError
    for selected in ([0, 0], [-1], [3]):
        with pytest.raises(PreconditionError):
            lemma_bound(g, partition, selected)
    # no classes: alpha = n // k divided by zero
    with pytest.raises(PreconditionError):
        lemma_bound(SimpleGraph(0), [], [])


def test_lemma_bound_turan_graph_tightness():
    # selecting nothing reduces the bound to the plain Turan number
    g = turan_graph(6, 3)
    partition = [[0, 1], [2, 3], [4, 5]]
    assert lemma_bound(g, partition, []) == turan_number(6, 3)
    assert g.m == turan_number(6, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lemma_bound_property(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    k = rng.randint(2, min(4, n))
    g, partition, selected = spanning_subgraph_instance(rng, n, k)
    assert g.m <= lemma_bound(g, partition, selected)
