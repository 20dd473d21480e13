"""Maximal (ambiguous) k-colorability, certificate-matrix reconstruction,
and the exhaustive characterization-theorem harness.

Reconstruction follows the necessity argument: a (k-1)-colorable input is
complete multipartite up to one near-clique and yields a tiny or small
diagonal certificate; otherwise two distinct k-colorings are intersected,
a perfect matching of the class-intersection bipartite graph fixes the
pairing, and the entry counts |A_i n B_j| form the certificate, which is
special or normal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coloring import (_class_masks, chromatic_number, count_colorings,
                       enumerate_colorings)
from .errors import PreconditionError, ReconstructionError, ResourceLimitError
from .graphcore import (build_graph, canonical_form, enumerate_labeled_graphs,
                        graph_levels, matrix_labels)
from .matrix import (ColorMatrix, _bipartite_matching, classify,
                     enumerate_desirable)


def is_maximal(g, k, d):
    """At least d distinct k-colorings, and every single-edge addition
    leaves fewer than d.

    The k-colorings of G + uv are exactly the k-colorings of G that put u
    and v in different classes, so one pass over the class bitmasks of the
    colorings of G tallies for every non-edge how many colorings separate
    it; G is not maximal as soon as a tally reaches d.  At most one
    coloring separates no non-edge, so the pass stops after at most
    (d - 1) * |non-edges| + 2 colorings.
    """
    if d < 1:
        raise PreconditionError("need d >= 1")
    n, rows = g.n, g.rows
    # non-neighbours above each vertex, so every non-edge is seen once
    upper = [((1 << n) - 1) & ~rows[u] & ~((1 << (u + 1)) - 1)
             for u in range(n)]
    # layers[i][u]: non-edges uv separated by at least i + 1 colorings
    layers = [[0] * n for _ in range(d - 1)]
    count = 0
    for masks in _class_masks(g, k):
        count += 1
        for mask in masks:
            rest = mask
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                sep = upper[u] & ~mask
                if not sep:
                    continue
                if d == 1 or sep & layers[-1][u]:
                    return False
                for i in range(d - 2, 0, -1):
                    layers[i][u] |= sep & layers[i - 1][u]
                layers[0][u] |= sep
    return count >= d


def is_maximal_ambiguous(g, k):
    """Ambiguously k-colorable, and every single-edge addition is not."""
    return is_maximal(g, k, 2)


def is_maximal_colorable(g, k):
    """k-colorable, and every single-edge addition is not."""
    return is_maximal(g, k, 1)


@dataclass
class ReconstructionTrace:
    """Audit trail of the necessity-direction reconstruction."""
    colorings: tuple                  # the two k-colorings used (class sets)
    h_edges: list                     # bipartite graph on class pairs
    matching: list                    # matching[i] = matched B-class of A-class i
    r: int                            # labels with A_j != B_j
    matrix: ColorMatrix
    relabeling: dict                  # vertex -> (i, j, t) label in G(A)


def _diagonal_certificate(k, coloring):
    """Diagonal certificate of the classes sorted by size, descending, and
    the relabeling that sends class i to the labels (i+1, i+1, t)."""
    classes = sorted(coloring.classes(), key=len, reverse=True)
    diag = [len(c) for c in classes] + [0] * (k - len(classes))
    entries = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
    relabeling = {v: (i + 1, i + 1, t)
                  for i, cls in enumerate(classes)
                  for t, v in enumerate(cls, start=1)}
    return ColorMatrix(entries), relabeling


def _is_isomorphism(g, matrix, relabeling):
    """True iff `relabeling` is an isomorphism from g onto G(matrix): a
    bijection onto the labels of G(matrix) under which u ~ v exactly when
    the labels differ in both coordinates."""
    if (sorted(relabeling) != list(range(g.n))
            or sorted(relabeling.values()) != list(matrix_labels(matrix))):
        return False
    row_masks = [0] * (matrix.k + 1)
    col_masks = [0] * (matrix.k + 1)
    for v, (i, j, _) in relabeling.items():
        row_masks[i] |= 1 << v
        col_masks[j] |= 1 << v
    full = (1 << g.n) - 1
    return all(g.rows[v] == full & ~row_masks[i] & ~col_masks[j]
               for v, (i, j, _) in relabeling.items())


def reconstruct_matrix(g, k):
    """Desirable certificate matrix A with G isomorphic to G(A), plus trace.

    Raises ReconstructionError when the input is not ambiguously
    k-colorable or when any internal check fails (the latter cannot happen
    on a maximal ambiguously k-colorable input).
    """
    if count_colorings(g, k, 2) < 2:
        raise ReconstructionError("graph is not ambiguously k-colorable")

    if count_colorings(g, k - 1, 1) >= 1:
        # tiny / small route: an optimal coloring of a maximal ambiguous
        # (k-1)-colorable graph has classes of size <= 2, exactly one of
        # size 2, padded with zero diagonal entries
        chi = chromatic_number(g)
        col = enumerate_colorings(g, chi, limit=1)[0]
        matrix, relabeling = _diagonal_certificate(k, col)
        trace = ReconstructionTrace(
            colorings=(col.class_sets(),), h_edges=[], matching=[],
            r=0, matrix=matrix, relabeling=relabeling)
    else:
        cols = enumerate_colorings(g, k, limit=2)
        a_classes = [set(c) for c in cols[0].classes()]
        b_classes = [set(c) for c in cols[1].classes()]
        if len(a_classes) != k or len(b_classes) != k:
            raise ReconstructionError(
                "k-colorings of a non-(k-1)-colorable graph must have "
                "exactly k classes")
        adj = [[j for j in range(k) if a_classes[i] & b_classes[j]]
               for i in range(k)]
        size, match_right = _bipartite_matching(adj, k, k)
        if size < k:
            raise ReconstructionError(
                "Hall condition failed on the class-intersection graph")
        match = [0] * k
        for j, i in enumerate(match_right):
            match[i] = j
        # labels with A != B first, each group ascending by class minimum
        pairs = [(i, match[i]) for i in range(k)]
        differ = [p for p in pairs if a_classes[p[0]] != b_classes[p[1]]]
        equal = [p for p in pairs if a_classes[p[0]] == b_classes[p[1]]]
        differ.sort(key=lambda p: min(a_classes[p[0]]))
        equal.sort(key=lambda p: min(a_classes[p[0]]))
        order = differ + equal
        r = len(differ)
        if r < 2:
            raise ReconstructionError("matched colorings coincide")
        a_ord = [a_classes[p[0]] for p in order]
        b_ord = [b_classes[p[1]] for p in order]
        entries = [[len(a_ord[i] & b_ord[j]) for j in range(k)]
                   for i in range(k)]
        matrix = ColorMatrix(entries)
        relabeling = {}
        for i in range(k):
            for j in range(k):
                for t, v in enumerate(sorted(a_ord[i] & b_ord[j]), start=1):
                    relabeling[v] = (i + 1, j + 1, t)
        h_edges = [(i, j) for i in range(k) for j in adj[i]]
        trace = ReconstructionTrace(
            colorings=(cols[0].class_sets(), cols[1].class_sets()),
            h_edges=h_edges, matching=match, r=r, matrix=matrix,
            relabeling=relabeling)

    verdict = classify(matrix)
    if not verdict.desirable:
        raise ReconstructionError(
            f"reconstructed matrix is not desirable: {verdict.witness}")
    if matrix.order != g.n:
        raise ReconstructionError("entry sum does not match vertex count")
    # G is a spanning subgraph of the graph the relabeling carries onto
    # G(A), so G is isomorphic to G(A) iff the relabeling is an isomorphism
    if not _is_isomorphism(g, matrix, trace.relabeling):
        raise ReconstructionError("G(A) is not isomorphic to the input")
    return matrix, trace


# ---------------------------------------------------------------------------
# exhaustive verification of the characterization theorem
# ---------------------------------------------------------------------------

@dataclass
class TheoremReportRow:
    n: int
    k: int
    graphs: int
    maximal_ambiguous: int
    matched_by_matrix: int
    family_graphs: int
    counterexamples: list

    def to_json(self):
        return {
            "n": self.n, "k": self.k, "graphs": self.graphs,
            "maximal_ambiguous": self.maximal_ambiguous,
            "matched_by_matrix": self.matched_by_matrix,
            "family_graphs": self.family_graphs,
            "counterexamples": self.counterexamples,
        }


def _edge_list_lines(g):
    return [f"{u} {v}" for u, v in g.edges()]


def _labeled_classes(n):
    """One graph per isomorphism class on n vertices, found by filtering
    all labeled graphs (the cross-check of ``graph_levels``)."""
    seen = {}
    for g in enumerate_labeled_graphs(n):
        cert = canonical_form(g)
        if cert not in seen:
            seen[cert] = g
    return [seen[c] for c in sorted(seen)]


def verify_theorem1(max_n, k_list, max_n_bound=8, use_labeled=False):
    """Exhaustively check the biconditional on all graphs with n <= max_n.

    Both directions run per (n, k): every graph up to isomorphism is
    tested for maximal ambiguity and for reconstructability, and every
    desirable matrix with entry sum n is checked to induce a maximal
    ambiguously k-colorable graph.
    """
    if max_n > max_n_bound:
        raise ResourceLimitError(
            f"verify_theorem1 limited to max_n <= {max_n_bound}")
    if max_n < 1 or not k_list:
        raise PreconditionError(
            "verify_theorem1 needs max_n >= 1 and a non-empty k list")
    if use_labeled:
        levels = ((n, _labeled_classes(n)) for n in range(1, max_n + 1))
    else:
        levels = graph_levels(max_n, max_n_bound)
    rows = []
    for n, graphs in levels:
        for k in k_list:
            maximal = 0
            matched = 0
            counterexamples = []
            for g in graphs:
                is_max = is_maximal_ambiguous(g, k)
                try:
                    reconstruct_matrix(g, k)
                    ok = True
                except ReconstructionError:
                    ok = False
                maximal += is_max
                matched += ok
                if is_max != ok:
                    counterexamples.append(_edge_list_lines(g))
            # forward direction: every desirable matrix with this entry sum
            family = 0
            for mat in enumerate_desirable(k, n):
                family += 1
                g = build_graph(mat)
                if not is_maximal_ambiguous(g, k):
                    counterexamples.append(_edge_list_lines(g))
            counterexamples.sort()
            rows.append(TheoremReportRow(
                n=n, k=k, graphs=len(graphs), maximal_ambiguous=maximal,
                matched_by_matrix=matched, family_graphs=family,
                counterexamples=counterexamples))
    return rows


def theorem1_report_json(rows):
    return json.dumps(
        {"schema_version": 1, "theorem": "characterization",
         "rows": [r.to_json() for r in rows],
         "counterexample_total": sum(len(r.counterexamples) for r in rows)},
        indent=2, sort_keys=True)
