"""Perfectness checking: definition method vs. odd-hole search, and the
harness on G(J_k), checked against the walk over matrix classes it
replaces."""

import json
import random

import pytest

from ambigcolor import perfection
from ambigcolor.cli import main
from ambigcolor.coloring import MAX_N as COLORING_MAX_N, chromatic_number
from ambigcolor.errors import PreconditionError, ResourceLimitError
from ambigcolor.graphcore import (SimpleGraph, build_graph, canonical_form,
                                  clique_number, complement, complete_graph,
                                  complete_multipartite, cycle_graph,
                                  empty_graph, enumerate_graphs, graph_levels,
                                  path_graph)
from ambigcolor.dfold import ColorTensor, build_graph_d
from ambigcolor.matrix import ColorMatrix, matrix_classes
from ambigcolor.maximality import is_maximal_ambiguous
from ambigcolor.perfection import (_has_odd_hole, _twin_quotient, is_perfect,
                                   verify_perfectness)


# (n, rows) -> verdict: two tests run the oracle on the same 1252 graphs
_ORACLE_VERDICTS = {}


def oracle_is_perfect(g):
    """The definition taken literally: chi = omega on the induced subgraph
    of every nonempty vertex subset, each computed from scratch."""
    key = (g.n, tuple(g.rows))
    if key not in _ORACLE_VERDICTS:
        _ORACLE_VERDICTS[key] = all(
            chromatic_number(sub) == clique_number(sub)
            for sub in (g.induced([v for v in range(g.n) if mask >> v & 1])
                        for mask in range(1, 1 << g.n)))
    return _ORACLE_VERDICTS[key]


def oracle_has_odd_hole(g):
    """Induced odd cycle of length >= 5, by scanning every vertex subset:
    an odd subset of size >= 5 inducing a connected 2-regular subgraph."""
    n, rows = g.n, g.rows
    for mask in range(1 << n):
        size = mask.bit_count()
        if size < 5 or size % 2 == 0:
            continue
        vs = [v for v in range(n) if mask >> v & 1]
        if any((rows[v] & mask).bit_count() != 2 for v in vs):
            continue
        # 2-regular; connected iff one cycle
        seen = 1 << vs[0]
        stack = [vs[0]]
        while stack:
            v = stack.pop()
            rest = rows[v] & mask & ~seen
            while rest:
                u = (rest & -rest).bit_length() - 1
                seen |= 1 << u
                stack.append(u)
                rest &= rest - 1
        if seen == mask:
            return True
    return False


def has_odd_hole(g):
    """The hole search on all of g."""
    return _has_odd_hole(g.rows, (1 << g.n) - 1)


def quotient_graph(g):
    """g induced on the false-twin representatives."""
    keep = _twin_quotient(g)
    return g.induced(v for v in range(g.n) if keep >> v & 1)


def random_graph(rng, n, p):
    return SimpleGraph(n, [(u, v) for u in range(n)
                           for v in range(u + 1, n) if rng.random() < p])


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
        g = random_graph(rng, n, 0.5)
        assert is_perfect(g, "definition") == is_perfect(g, "holes"), g.edges()


def test_hole_method_builds_no_complement_graph(monkeypatch):
    # the complement side reads complemented rows under the twin mask
    def no_complement(g):
        raise AssertionError("complement(g) was built")

    monkeypatch.setattr(perfection, "complement", no_complement)
    rng = random.Random(31)
    verdicts = []
    for _ in range(80):
        n = rng.randint(1, 13)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        verdicts.append(is_perfect(g, "holes"))
        assert verdicts[-1] == is_perfect(g, "definition"), g.edges()
    assert verdicts.count(True) == 65   # and 15 imperfect


def test_method_validation_and_limits():
    with pytest.raises(PreconditionError):
        is_perfect(cycle_graph(4), method="guess")
    # the method is a precondition, checked before the size limit
    with pytest.raises(PreconditionError):
        is_perfect(empty_graph(20), method="guess")
    with pytest.raises(ResourceLimitError):
        is_perfect(empty_graph(20), "definition")
    # the hole search needs no 2^n table: it runs to the coloring ceiling
    assert is_perfect(empty_graph(20), "holes")
    assert is_perfect(empty_graph(COLORING_MAX_N), "holes")
    with pytest.raises(ResourceLimitError):
        is_perfect(empty_graph(COLORING_MAX_N + 1), "holes")


def test_hole_search_beyond_the_definition_ceiling():
    # a C21 planted among 9 clique vertices, in a shuffled vertex order
    rng = random.Random(21)
    edges = [(i, (i + 1) % 21) for i in range(21)]
    edges += [(u, v) for u in range(21, 30) for v in range(u + 1, 30)]
    perm = list(range(30))
    rng.shuffle(perm)
    planted = SimpleGraph(30, [(perm[u], perm[v]) for u, v in edges])
    assert not is_perfect(planted, "holes")
    assert not is_perfect(complement(planted), "holes")
    g = build_graph(ColorMatrix([[6, 1, 0, 0], [1, 6, 0, 0],
                                 [0, 0, 7, 0], [0, 0, 0, 7]]))
    assert g.n == 28 and is_perfect(g, "holes")


def all_ones(k):
    return ColorMatrix([[1] * k] * k)


def oracle_verify_perfectness(max_n, k_list):
    """The class walk: the hole search on G(M) for every k x k matrix
    class M of entry sum 1..max_n; the violating classes as matrix JSON."""
    return [m.to_json() for k in k_list for n in range(1, max_n + 1)
            for m in matrix_classes(k, n)
            if not is_perfect(build_graph(m), "holes")]


def test_verify_perfectness_no_violations(capsys):
    report = verify_perfectness([1, 2, 3, 4, 5])
    assert report["violations"] == []
    assert [(r["k"], r["order"], r["holes"], r["holes_every_start"],
             r["definition"]) for r in report["rows"]] == [
        (1, 1, True, True, True), (2, 4, True, True, True),
        (3, 9, True, True, True), (4, 16, True, True, None),
        (5, 25, True, True, None)]
    for r in report["rows"]:
        assert r["covers_every_n"] and r["matrix"] == all_ones(r["k"]).to_json()
    assert main(["verify", "--theorem", "perfect", "--k-list", "1,2,3,4,5",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == 4 and obj["theorem"] == "perfectness"
    assert obj["rows"] == report["rows"] and obj["violations"] == []
    for k_list in ([], [0], [2, -1]):
        with pytest.raises(PreconditionError):
            verify_perfectness(k_list)


def test_verify_perfectness_past_the_coloring_ceiling():
    # k^2 = 36 and 49 > coloring.MAX_N: the search from one orbit start,
    # beside the every-start search where k <= 6
    report = verify_perfectness([6, 7])
    assert report == {"violations": [], "rows": [
        {"k": k, "order": k * k, "matrix": all_ones(k).to_json(),
         "covers_every_n": True, "holes": True,
         "holes_every_start": True if k <= 6 else None, "definition": None}
        for k in (6, 7)]}


def orbit_start(rows):
    """(0, a0) with a0 the lowest neighbour of vertex 0."""
    return 0, (rows[0] & -rows[0]).bit_length() - 1


def test_orbit_start_search_equals_every_start_on_g_jk():
    for k in range(2, 7):
        g = build_graph(all_ones(k))
        full = (1 << g.n) - 1
        for h in (g, complement(g)):
            assert _has_odd_hole(h.rows, full, orbit_start(h.rows)) == (
                has_odd_hole(h)) is False, k


def test_orbit_start_misses_a_hole_off_its_orbit():
    # C5 on 1..5 and vertex 0 joined to 1 only: no automorphism maps the
    # C5 through 0, so the search from (0, 1) alone misses it
    g = SimpleGraph(6, [(v, v % 5 + 1) for v in range(1, 6)] + [(0, 1)])
    assert orbit_start(g.rows) == (0, 1)
    assert not _has_odd_hole(g.rows, (1 << 6) - 1, (0, 1))
    assert has_odd_hole(g) and oracle_has_odd_hole(g)


def max_matching(cells, k):
    """Maximum matching of the bipartite graph B_S with a row vertex and a
    column vertex per index and an edge per cell, by augmenting paths."""
    col_of = {}
    row_of = {}

    def augment(i, seen):
        for j in range(k):
            if (i, j) in cells and j not in seen:
                seen.add(j)
                if j not in row_of or augment(row_of[j], seen):
                    row_of[j], col_of[i] = i, j
                    return True
        return False

    return sum(augment(i, set()) for i in range(k))


def test_konig_on_random_supports():
    # a clique of G(S) is a matching of B_S and a color class a star, so
    # omega(G(S)) = nu(B_S) and chi(G(S)) = tau(B_S) = nu(B_S) by Konig
    rng = random.Random(53)
    sizes = set()
    for _ in range(40):
        k = rng.randint(1, 8)
        cells = set(rng.sample([(i, j) for i in range(k) for j in range(k)],
                               rng.randint(1, min(k * k, 32))))
        g = build_graph(ColorMatrix([[int((i, j) in cells) for j in range(k)]
                                     for i in range(k)]))
        nu = max_matching(cells, k)
        assert clique_number(g) == chromatic_number(g) == nu, (k, cells)
        sizes.add(nu)
    assert len(sizes) >= 5


def test_harness_agrees_with_the_class_walk():
    assert oracle_verify_perfectness(8, [1, 2, 3]) == []
    assert verify_perfectness([1, 2, 3])["violations"] == []


def test_every_small_class_reduces_to_an_induced_subgraph_of_g_jk():
    # the harness's reduction, on labelled graphs: G(supp M) is G(J_k)
    # induced on the support cells, and G(M) has the quotient of G(supp M)
    sizes, twinned = [], []
    for k in (2, 3):
        g_ones = build_graph(all_ones(k))
        classes = [m for n in range(1, 9) for m in matrix_classes(k, n)]
        twinned.append(0)
        for m in classes:
            support = build_graph(ColorMatrix(
                [[min(a, 1) for a in row] for row in m.entries]))
            induced = g_ones.induced(
                i * k + j for i, row in enumerate(m.entries)
                for j, a in enumerate(row) if a)
            assert (support.rows, support.labels) == (
                induced.rows, induced.labels), m
            quotient = quotient_graph(build_graph(m))
            expect = quotient_graph(support)
            assert (quotient.rows, quotient.labels) == (
                expect.rows, expect.labels), m
            # G(supp M) may itself hold false twins, as for the support
            # {(1, 1), (1, 2)}, so the quotient can be smaller still
            twinned[-1] += quotient.n < support.n
        sizes.append(len(classes))
    assert sizes == [91, 491] and twinned == [16, 146]


def test_hole_search_fails_on_the_all_ones_tensor():
    # the harness's check can fail: G(J) of the all-ones 3 x 3 x 3 tensor
    # is not perfect
    g = build_graph_d(ColorTensor(3, 3, [1] * 27))
    assert g.n == 27 and not is_perfect(g, "holes")


def test_imperfect_verdict_is_reported_as_its_matrix(monkeypatch, tmp_path,
                                                     capsys):
    # at k = 3, a hole found from the orbit start, one found by the
    # every-start search alone, and a False definition verdict: each exits
    # 1 with J_3 as the one violation, which `ambigcolor build` rebuilds
    # into the 9-vertex G(J_3)
    holes, definition = perfection._has_odd_hole, perfection.is_perfect
    fakes = ((lambda rows, keep, start=None: len(rows) == 9
              or holes(rows, keep, start), definition),
             (lambda rows, keep, start=None: len(rows) == 9 and start is None
              or holes(rows, keep, start), definition),
             (holes, lambda g, method: g.n != 9 and definition(g, method)))
    path = tmp_path / "witness.json"
    for fake_holes, fake_definition in fakes:
        monkeypatch.setattr(perfection, "_has_odd_hole", fake_holes)
        monkeypatch.setattr(perfection, "is_perfect", fake_definition)
        assert main(["verify", "--theorem", "perfect", "--k-list", "2,3,4",
                     "--format", "json"]) == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert violations == [all_ones(3).to_json()]
        path.write_text(json.dumps(violations[0]))
        assert main(["build", str(path)]) == 0
        assert capsys.readouterr().out.split()[:2] == ["9", "18"]


def test_every_small_maximal_graph_is_the_graph_of_a_class():
    # the lemma the harness rests on: a maximal ambiguously k-colorable
    # graph on n vertices is G(M) for a k x k matrix class M of entry sum n
    maximal = 0
    for n, graphs in graph_levels(7):
        for k in (2, 3, 4):
            by_class = {canonical_form(build_graph(m))
                        for m in matrix_classes(k, n)}
            for g in graphs:
                if is_maximal_ambiguous(g, k):
                    maximal += 1
                    assert canonical_form(g) in by_class, (n, k, g.edges())
    assert maximal == 63


def test_methods_agree_on_every_small_class():
    # the definition method is the hole search's oracle on the harness's
    # own inputs: 1846 classes with k <= 4 and n <= 8
    checked = 0
    for k in (2, 3, 4):
        for n in range(1, 9):
            for m in matrix_classes(k, n):
                g = build_graph(m)
                assert is_perfect(g, "definition"), m
                assert is_perfect(g, "holes"), m
                checked += 1
    assert checked == 1846


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


def test_definition_reaches_the_search_when_the_greedy_set_fails(
        monkeypatch):
    # {v} and the greedy stable set settle most subsets; the rest, and
    # every first subset with chi != omega, go to _lowering_set
    results = []
    search = perfection._lowering_set

    def counted(*args):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(perfection, "_lowering_set", counted)
    for n, graphs in graph_levels(7):
        for g in graphs:
            assert is_perfect(g, "definition") == oracle_is_perfect(g), (
                g.edges())
    assert set(results) == {False, True}


def _record_orders(monkeypatch):
    """Wrap both methods' workers; return the list of orders they get: the
    definition worker's n, the size of the hole search's vertex mask."""
    orders = []
    chi_omega = perfection._chi_equals_omega_everywhere
    holes = perfection._has_odd_hole

    def chi_omega_recorded(n, rows):
        orders.append(n)
        return chi_omega(n, rows)

    def holes_recorded(rows, keep, start=None):
        orders.append(keep.bit_count())
        return holes(rows, keep, start)

    monkeypatch.setattr(perfection, "_chi_equals_omega_everywhere",
                        chi_omega_recorded)
    monkeypatch.setattr(perfection, "_has_odd_hole", holes_recorded)
    return orders


def test_definition_at_its_ceiling(monkeypatch):
    # masks of DEFAULT_PERFECT_MAX_N bits, up to vertex 13, on twin-free
    # graphs, so the quotient keeps every vertex
    n = perfection.DEFAULT_PERFECT_MAX_N
    orders = _record_orders(monkeypatch)
    assert is_perfect(path_graph(n), "definition")
    # C5 with a 9-vertex path hung on cycle vertex 0: connected and
    # co-connected, so it is one piece of 14
    g = SimpleGraph(n, cycle_graph(5).edges() + [(0, 5)]
                    + [(v, v + 1) for v in range(5, n - 1)])
    assert len(set(g.rows)) == n and not is_perfect(g, "definition")
    assert orders == [n, n]


def test_methods_run_on_the_false_twin_quotient(monkeypatch):
    # G(A) has A(i, j) false twins labelled (i, j): 14 vertices, 8 rows
    g = build_graph(ColorMatrix([[3, 1, 0], [1, 4, 1], [1, 2, 1]]))
    assert g.n == 14 and len(set(g.rows)) == 8
    assert _twin_quotient(g) == sum(
        1 << g.rows.index(row) for row in set(g.rows))
    orders = _record_orders(monkeypatch)
    assert is_perfect(g, "definition")
    assert is_perfect(g, "holes")
    assert orders == [8, 8, 8]


def test_pieces_without_two_vertices_reach_no_worker(monkeypatch):
    # G(A) is the join of G(block) = 2K2 with one independent set per
    # diagonal cell: 11 vertices, 6 rows, every piece a single vertex
    g = build_graph(ColorMatrix([[2, 1, 0, 0], [1, 2, 0, 0],
                                 [0, 0, 3, 0], [0, 0, 0, 2]]))
    assert g.n == 11 and len(set(g.rows)) == 6
    orders = _record_orders(monkeypatch)

    def no_copy(self, perm):
        raise AssertionError("a graph was copied")

    with monkeypatch.context() as m:
        m.setattr(SimpleGraph, "permuted", no_copy)
        assert is_perfect(g, "definition")
        assert orders == []
        # the hole method does not split: the quotient, then its
        # complement, both read through the mask
        assert is_perfect(g, "holes")
        assert orders == [6, 6]
    # a planted C5 is a piece of its own, and the smallest one; the hole
    # method finds it in the whole 11-vertex quotient
    h = disjoint_union(
        build_graph(ColorMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]])),
        cycle_graph(5))
    del orders[:]
    assert not is_perfect(h, "definition")
    assert not is_perfect(h, "holes")
    assert orders == [5, 11]


def join(g, h):
    """g on 0..g.n-1 and h after it, every edge between them."""
    return complement(disjoint_union(complement(g), complement(h)))


def unsplit_definition(g):
    """The definition worker run once on the whole false-twin quotient."""
    q = quotient_graph(g)
    return perfection._chi_equals_omega_everywhere(q.n, q.rows)


def test_pieces_keep_the_definition_verdict_on_all_small_graphs():
    for n in range(8):
        for g in enumerate_graphs(n):
            assert is_perfect(g, "definition") == unsplit_definition(g) == (
                is_perfect(g, "holes")), g.edges()


def test_pieces_keep_the_definition_verdict_on_unions_and_joins():
    # nested disjoint unions and joins of up to 12 vertices, C5, C7 or
    # co-C7 planted in one part in two graphs of three, in a shuffled order
    rng = random.Random(47)
    holes = (cycle_graph(5), cycle_graph(7), complement(cycle_graph(7)))
    verdicts = set()
    for i in range(90):
        g = (holes[i % 9 // 3] if i % 3 < 2
             else random_graph(rng, rng.randint(1, 5), 0.5))
        while g.n < 12:
            part = random_graph(rng, rng.randint(1, min(6, 12 - g.n)),
                                rng.choice((0.3, 0.5, 0.7)))
            if rng.random() < 0.5:
                g, part = part, g
            g = (join if rng.random() < 0.5 else disjoint_union)(g, part)
            if rng.random() < 0.2:
                break
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.permuted(perm)
        expect = unsplit_definition(g)
        assert is_perfect(g, "definition") == expect == (
            is_perfect(g, "holes")), g.edges()
        verdicts.add(expect)
    assert verdicts == {False, True}


def test_quotient_keeps_both_verdicts():
    # false twins added to random graphs in shuffled positions: each
    # method's verdict equals its unreduced worker's on the raw graph
    rng = random.Random(43)
    verdicts = set()
    for i in range(80):
        h = random_graph(rng, rng.randint(5, 8), (0.3, 0.5, 0.7)[i % 3])
        rows = list(h.rows)
        for _ in range(rng.randint(1, 12 - h.n)):
            v = rng.randrange(len(rows))
            w = 1 << len(rows)
            rows = [row | w if row >> v & 1 else row for row in rows]
            rows.append(rows[v])
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        g = SimpleGraph.from_rows(rows).permuted(perm)
        assert len(set(g.rows)) < g.n
        raw = perfection._chi_equals_omega_everywhere(g.n, g.rows)
        assert raw == (not has_odd_hole(g)
                       and not has_odd_hole(complement(g))), g.edges()
        assert is_perfect(g, "definition") == raw, g.edges()
        assert is_perfect(g, "holes") == raw, g.edges()
        verdicts.add(raw)
    assert verdicts == {False, True}


def test_definition_invariant_under_vertex_order():
    rng = random.Random(31)
    graphs = [cycle_graph(5), cycle_graph(6), complement(cycle_graph(7)),
              build_graph(ColorMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]]))]
    for _ in range(20):
        graphs.append(random_graph(rng, rng.randint(5, 9), 0.5))
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


def test_hole_search_matches_oracle_on_all_small_graphs():
    holes = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            found = has_odd_hole(g)
            assert found == oracle_has_odd_hole(g), g.edges()
            holes += found
    # the graphs with an induced C5 or C7, a subset of the 147 imperfect
    assert 0 < holes < 147


def test_hole_search_under_a_mask_matches_oracle():
    # G[keep] read through the mask on g's rows: every mask of every graph
    # up to n = 5, then seeded masks of random graphs up to n = 12
    checked = found = 0
    for n, graphs in graph_levels(5):
        for g in graphs:
            for keep in range(1 << n):
                sub = g.induced(v for v in range(n) if keep >> v & 1)
                expect = oracle_has_odd_hole(sub)
                assert _has_odd_hole(g.rows, keep) == expect, (g.edges(), keep)
                checked += 1
                found += expect
    # 1, 2, 4, 11 and 34 graphs at n = 1..5, 2^n masks each
    assert checked == 2 + 8 + 32 + 176 + 1088 and found > 0
    rng = random.Random(59)
    verdicts = set()
    for i in range(200):
        n = rng.randint(5, 12)
        g = random_graph(rng, n, (0.2, 0.4, 0.6, 0.8)[i % 4])
        keep = rng.randrange(1 << n)
        expect = oracle_has_odd_hole(
            g.induced(v for v in range(n) if keep >> v & 1))
        assert _has_odd_hole(g.rows, keep) == expect, (g.edges(), keep)
        verdicts.add(expect)
    assert verdicts == {False, True}


def test_hole_search_matches_oracle_on_random_graphs():
    rng = random.Random(37)
    verdicts = set()
    for i in range(200):
        n = rng.randint(5, 12)
        g = random_graph(rng, n, (0.15, 0.3, 0.5, 0.7, 0.85)[i % 5])
        for h in (g, complement(g)):
            expect = oracle_has_odd_hole(h)
            verdicts.add(expect)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert has_odd_hole(h.permuted(perm)) == expect, (
                    h.edges(), perm)
    assert verdicts == {False, True}


@pytest.mark.parametrize("name", ["C9", "C11", "co-C9", "C9+"])
def test_hole_search_finds_long_holes(name):
    h = {"C9": cycle_graph(9), "C11": cycle_graph(11),
         "co-C9": complement(cycle_graph(9)),
         # C9 on 0..8, vertex 9 joined to 0 and 1 (a triangle, no new
         # hole), vertex 10 joined to 0 and 2 (a C4 and a second C9)
         "C9+": SimpleGraph(11, cycle_graph(9).edges()
                            + [(0, 9), (1, 9), (0, 10), (2, 10)])}[name]
    rng = random.Random(name)
    # in C9+, vertex 0 is the lowest of the hole 0..8 and has neighbours
    # off it: above both hole neighbours in the identity order, and
    # between them (at 2 and 3) in the second order
    perms = [list(range(h.n))]
    if name == "C9+":
        perms.append([0, 1, 9, 10, 2, 3, 4, 5, 6, 7, 8])
    for _ in range(6):
        perm = list(range(h.n))
        rng.shuffle(perm)
        perms.append(perm)
    for perm in perms:
        g = h.permuted(perm)
        assert has_odd_hole(g) == oracle_has_odd_hole(g), perm
        assert has_odd_hole(complement(g)) == oracle_has_odd_hole(
            complement(g)), perm
        assert not is_perfect(g, "holes")
    assert not is_perfect(h, "definition")


def test_hole_search_sees_only_induced_odd_cycles():
    """A hole must be odd, of length >= 5, and chordless; a chord of a
    cycle splits it into two shorter cycles."""
    def chorded(n, *chords):
        return SimpleGraph(n, cycle_graph(n).edges() + list(chords))

    no_hole = [cycle_graph(3), cycle_graph(4), cycle_graph(6),
               cycle_graph(8), cycle_graph(10), path_graph(9),
               chorded(8, (0, 3)),                   # C4 + C6
               chorded(10, (0, 5)),                  # C6 + C6
               chorded(7, (0, 2), (0, 3), (0, 4), (0, 5))]   # a fan
    hole = [chorded(7, (0, 3)),                      # C4 + C5
            chorded(9, (0, 4))]                      # C5 + C6
    rng = random.Random(41)
    for graphs, expect in ((no_hole, False), (hole, True)):
        for g in graphs:
            for _ in range(4):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = g.permuted(perm)
                assert has_odd_hole(h) == oracle_has_odd_hole(h) == expect, (
                    g.edges(), perm)
