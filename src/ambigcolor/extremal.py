"""Turan numbers and the extremal edge count of ambiguously k-colorable
graphs.

The closed-form value is ex(n, K_{k+1}) - max(1, floor(n/k)).  The oracle
that checks it does not rely on the characterization theorem: every
ambiguously k-colorable G with colorings P != Q is a spanning subgraph of
the graph joining the pairs both separate, which is G(M) for the k x k
matrix M of the class intersections.  So the maximum is the largest edge
count of a G(M) with two k-colorings, over the matrix classes M of entry
sum n.  Its extremal graphs, keyed by the class of their reconstructed
certificate, are cross-checked against the tiny / small / very-special /
mininormal matrix families.  The brute-force oracle over all graphs up to
isomorphism stays as the small-n check of that route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .coloring import MAX_N as COLORING_MAX_N
from .coloring import _check_partition, count_colorings
from .errors import (PreconditionError, ReconstructionError,
                     ResourceLimitError)
from .graphcore import (build_graph, canonical_form, enumerate_graphs,
                        to_graph6, turan_graph)
from .matrix import (ColorMatrix, _margin_classes, _margin_pairs,
                     _mininormal_matrices, _pairs, _small_matrices,
                     _special_matrices, _tiny_matrices, class_key,
                     special_variants)
from .maximality import reconstruct_matrix

EXTREMAL_MAX_K = 5


def turan_number(n, k):
    """ex(n, K_{k+1}): edge count of the Turan graph T(n, k).

    Computed by constructing the graph and counting, not by closed form.
    """
    if n < 0 or k < 1:
        raise PreconditionError("need n >= 0, k >= 1")
    return turan_graph(n, k).m


def ambiguous_max_edges(n, k):
    """Maximum edge count of an ambiguously k-colorable graph on n
    vertices: ex(n, K_{k+1}) - max(1, floor(n/k)).

    Ambiguity needs at least two vertices; below that the domain is empty.
    """
    if k < 2:
        raise PreconditionError("need k >= 2")
    if n < 2:
        raise PreconditionError(
            f"no ambiguously {k}-colorable graph on {n} < 2 vertices")
    return turan_number(n, k) - max(1, n // k)


# ---------------------------------------------------------------------------
# the edge-count lemma
# ---------------------------------------------------------------------------

def lemma_bound(g, partition, selected):
    """Right-hand side of the bound, which |E(G)| never exceeds, for g a
    spanning subgraph of the complete multipartite graph on `partition`
    (the k classes, as vertex lists) and `selected` the indices of chosen
    classes of size <= alpha = floor(n/k).

    bound = ex(n, K_{k+1}) - (2 * (alpha * r - |V(H)|) - r_0) - d,
    with H the induced subgraph on the selected classes, d the number of
    missing complete-multipartite edges inside H, and r_0 the number of
    selected classes of size <= alpha - 1.
    """
    partition = [sorted(c) for c in partition]
    _check_partition(g, partition)
    k = len(partition)
    if k == 0:
        raise PreconditionError("need a partition with at least one class")
    n = g.n
    alpha = n // k
    if (len(set(selected)) != len(selected)
            or any(not 0 <= i < k for i in selected)):
        raise PreconditionError(
            f"selected indices must be distinct and in 0..{k - 1}")
    selected = [partition[i] for i in selected]
    if any(len(c) > alpha for c in selected):
        raise PreconditionError("selected classes must have size <= alpha")
    r = len(selected)
    union = [v for c in selected for v in c]
    m_h = len(union)
    d = 0
    for a in range(r):
        for b in range(a + 1, r):
            for u in selected[a]:
                for v in selected[b]:
                    if not g.has_edge(u, v):
                        d += 1
    r0 = sum(1 for c in selected if len(c) <= alpha - 1)
    return turan_number(n, k) - (2 * (alpha * r - m_h) - r0) - d


# ---------------------------------------------------------------------------
# extremal graphs: the matrix families and the class-route oracle
# ---------------------------------------------------------------------------

def _check_extremal_limits(max_n, max_k):
    if max_n > COLORING_MAX_N or max_k > EXTREMAL_MAX_K:
        raise ResourceLimitError(
            f"the extremal oracle and families are limited to "
            f"n <= {COLORING_MAX_N}, k <= {EXTREMAL_MAX_K}")


def _edge_count(entries):
    """e(G(M)) from the entries alone: C(n,2) - sum C(r_i,2) -
    sum C(c_j,2) + sum C(m_ij,2), since two vertices are non-adjacent iff
    they share a row or a column."""
    rows = [sum(row) for row in entries]
    cols = [sum(col) for col in zip(*entries)]
    return (_pairs([sum(rows)]) - _pairs(rows) - _pairs(cols)
            + _pairs(chain.from_iterable(entries)))


def enumerate_extremal(n, k):
    """Extremal matrices of the four families, by class.

    Returns {class key: sorted family tags} over the family matrices
    whose G(A) has exactly ambiguous_max_edges(n, k) edges, counted from
    the entries without building G(A).
    """
    _check_extremal_limits(n, k)
    target = ambiguous_max_edges(n, k)
    families = (
        ("tiny", _tiny_matrices(k, n)),
        ("small", _small_matrices(k, n)),
        ("very-special",
         (m for m in _special_matrices(k, n)
          if _edge_count(m.entries) == target and special_variants(m))),
        ("mininormal", _mininormal_matrices(k, n)))
    out = {}
    for family, matrices in families:
        for mat in matrices:
            if _edge_count(mat.entries) == target:
                out.setdefault(class_key(mat), set()).add(family)
    return {key: sorted(tags) for key, tags in sorted(out.items())}


def _class_route(n, k):
    """(max edge count, sorted extremal keys, classes scanned) over the
    ambiguously k-colorable graphs on n >= 2 vertices, by matrix classes.

    e(G(M)) is base + sum C(m_ij, 2), with base = C(n,2) - R - C for the
    margin sums R = sum C(r_i,2) and C = sum C(c_j,2), and the entries of
    a row sum to r_i, so C(n,2) - max(R, C) bounds the edge count of a
    margin pair's classes.  Edge counts are scanned from the top down;
    for each, every margin pair whose bound reaches it yields the classes
    with exactly that count, and the scan stops at the first count with a
    G(M) that has two k-colorings.  Each such G(M) is keyed by the class
    of its reconstructed certificate.
    """
    top = _pairs([n])
    margins = []
    for r, c in _margin_pairs(k, n):
        rs, cs = _pairs(r), _pairs(c)
        margins.append((top - max(rs, cs), top - rs - cs, r, c))
    scanned = 0
    for edges in range(top, -1, -1):
        found = []
        for bound, base, r, c in margins:
            if bound < edges:
                continue
            for rows in _margin_classes(r, c, edges - base):
                scanned += 1
                g = build_graph(ColorMatrix(rows))
                if count_colorings(g, k, 2) >= 2:
                    found.append(g)
        if found:
            keys = set()
            for g in found:
                try:
                    keys.add(class_key(reconstruct_matrix(g, k)[0]))
                except ReconstructionError as exc:
                    raise ReconstructionError(f"extremal graph {to_graph6(g)} "
                                              f"at k = {k}: {exc}") from exc
            return edges, sorted(keys), scanned
    # not reached: at edges = 0 the edgeless G(M) has two k-colorings


def max_edges_by_class(pairs):
    """The class-route oracle for every (n, k) in `pairs`, n >= 2 and
    k >= 2, as {(n, k): (max edge count, sorted extremal class keys,
    classes scanned)}.  Raises ResourceLimitError past coloring.MAX_N or
    EXTREMAL_MAX_K before any cell is computed, and ReconstructionError,
    naming the graph by graph6 string and k, if an extremal graph has no
    certificate (a counterexample to the characterization theorem)."""
    pairs = list(pairs)
    if any(n < 2 or k < 2 for n, k in pairs):
        raise PreconditionError("the extremal oracle needs n >= 2, k >= 2")
    _check_extremal_limits(max((n for n, _ in pairs), default=0),
                           max((k for _, k in pairs), default=0))
    return {(n, k): _class_route(n, k) for n, k in pairs}


# ---------------------------------------------------------------------------
# the graph-corpus oracle, the small-n check of the class route
# ---------------------------------------------------------------------------

def brute_force_max_edges(n, k):
    """Independent oracle: (max edge count, sorted extremal certs) over all
    ambiguously k-colorable graphs on n vertices, (None, []) when there
    are none, using coloring counts and edge counts only.  The graphs
    come from enumerate_graphs, so n is limited to ENUMERATION_MAX_N."""
    best, certs = None, []
    for g in enumerate_graphs(n):
        if (best is not None and g.m < best
                or count_colorings(g, k, 2) < 2):
            continue
        if best is None or g.m > best:
            best, certs = g.m, []
        certs.append(canonical_form(g))
    return best, sorted(certs)


def _key_text(key):
    """A class key as text: rows separated by ';', entries by ','."""
    return ";".join(",".join(map(str, row)) for row in key)


@dataclass
class ExtremalReport:
    n: int
    k: int
    formula_value: int
    oracle_value: int | None = None
    classes_scanned: int = 0
    certificates: list = field(default_factory=list)  # {families, cert}
    oracle_certificates: list = field(default_factory=list)  # key texts
    formula_agrees: bool | None = None
    certificates_agree: bool | None = None

    @property
    def agrees(self):
        """Formula and extremal sets agree, and the oracle scanned at
        least one class (a row that checked nothing fails)."""
        return bool(self.formula_agrees and self.certificates_agree
                    and self.classes_scanned > 0)


def verify_turan_theorem(max_n, k_list):
    """For each k in k_list and k <= n <= max_n: formula value vs. the
    class-route oracle, and the oracle's extremal class keys vs. those of
    the matrix families, in reports of JSON-ready values (keys as text).
    Each k must lie in 2..max_n, so that it gets rows; the k list, then
    the ceilings, are checked before any cell runs."""
    if not k_list or min(k_list) < 2 or max_n < max(k_list):
        raise PreconditionError(
            "verify_turan_theorem would check nothing for some k: it needs "
            "a non-empty list of k >= 2 and max_n >= max k")
    _check_extremal_limits(max_n, max(k_list))
    cells = [(n, k, ambiguous_max_edges(n, k)) for k in k_list
             for n in range(k, max_n + 1)]
    oracle = max_edges_by_class((n, k) for n, k, _ in cells)
    reports = []
    for n, k, formula in cells:
        value, oracle_keys, scanned = oracle[n, k]
        fam = enumerate_extremal(n, k)
        reports.append(ExtremalReport(
            n=n, k=k, formula_value=formula, oracle_value=value,
            classes_scanned=scanned,
            certificates=[{"families": tags, "cert": _key_text(key)}
                          for key, tags in fam.items()],
            oracle_certificates=[_key_text(key) for key in oracle_keys],
            formula_agrees=(formula == value),
            certificates_agree=(list(fam) == oracle_keys),
        ))
    return reports
