"""Turan numbers and the extremal edge count of ambiguously k-colorable
graphs.

The closed-form value is ex(n, K_{k+1}) - max(1, floor(n/k)); the
brute-force oracle recomputes it from scratch over all graphs up to
isomorphism using coloring counts only, and the extremal graphs are
cross-checked against the tiny / small / very-special / mininormal matrix
families.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

from .coloring import _check_partition, count_colorings
from .errors import PreconditionError, ResourceLimitError
from .graphcore import (ORACLE_MAX_N, SimpleGraph, build_graph,
                        canonical_form, graph_levels, turan_graph)
from .matrix import (_mininormal_matrices, _small_matrices,
                     _special_matrices, _tiny_matrices, special_variants)

EXTREMAL_MAX_N = 12
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
# extremal graph enumeration and the independent oracle
# ---------------------------------------------------------------------------

def enumerate_extremal(n, k):
    """Extremal graphs from the four matrix families, up to isomorphism.

    Returns {canonical cert: sorted family tags}; only graphs with exactly
    ambiguous_max_edges(n, k) edges are kept.
    """
    if n > EXTREMAL_MAX_N or k > EXTREMAL_MAX_K:
        raise ResourceLimitError(
            f"enumerate_extremal limited to n <= {EXTREMAL_MAX_N}, "
            f"k <= {EXTREMAL_MAX_K}")
    target = ambiguous_max_edges(n, k)
    families = (
        ("tiny", _tiny_matrices(k, n)),
        ("small", _small_matrices(k, n)),
        ("very-special",
         (m for m in _special_matrices(k, n) if special_variants(m))),
        ("mininormal", _mininormal_matrices(k, n)))
    out = {}
    for family, matrices in families:
        for mat in matrices:
            g = build_graph(mat)
            if g.m != target:
                continue
            cert = canonical_form(g)
            out.setdefault(cert, set()).add(family)
    return {cert: sorted(tags) for cert, tags in sorted(out.items())}


def _max_edges_by_k(graphs, k_list):
    """{k: (max edge count, sorted extremal certs)} over the ambiguously
    k-colorable graphs among `graphs`, (None, []) for a k with none."""
    best = {k: (-1, []) for k in k_list}
    for g in graphs:
        edges = g.m
        for k, (m, certs) in best.items():
            if edges < m or count_colorings(g, k, 2) < 2:
                continue
            if edges > m:
                best[k] = (edges, [canonical_form(g)])
            else:
                certs.append(canonical_form(g))
    return {k: (m, sorted(certs)) if m >= 0 else (None, [])
            for k, (m, certs) in best.items()}


def brute_force_max_edges(n, k):
    """Independent oracle: (max edge count, extremal certs) over all
    ambiguously k-colorable graphs on n vertices, using coloring counts
    and edge counts only."""
    return max_edges_by_order([(n, k)])[n, k]


def max_edges_by_order(pairs):
    """The oracle of `brute_force_max_edges` for every (n, k) in `pairs`,
    as {(n, k): (max edge count, sorted extremal certs)}.  The graphs of
    each order are enumerated once, for every k wanted at that order."""
    ks_by_n = {}
    for n, k in pairs:
        if n < 0:
            raise PreconditionError(f"need a vertex count >= 0, got {n}")
        ks_by_n.setdefault(n, set()).add(k)
    top = max(ks_by_n, default=0)
    if top > ORACLE_MAX_N:
        raise ResourceLimitError(f"oracle limited to n <= {ORACLE_MAX_N}")
    out = {}
    for n, level in chain([(0, [SimpleGraph(0)])], graph_levels(top)):
        for k, value in _max_edges_by_k(level, ks_by_n.get(n, ())).items():
            out[n, k] = value
    return out


@dataclass
class ExtremalReport:
    n: int
    k: int
    formula_value: int
    oracle_value: int | None = None
    certificates: list = field(default_factory=list)  # (family tags, cert)
    oracle_certificates: list = field(default_factory=list)
    formula_agrees: bool | None = None
    certificates_agree: bool | None = None

    def to_json(self):
        return {
            "n": self.n, "k": self.k,
            "formula_value": self.formula_value,
            "oracle_value": self.oracle_value,
            "certificates": [
                {"families": fams, "cert": f"{cert[0]}:{cert[1]:x}"}
                for fams, cert in self.certificates],
            "oracle_certificates": [
                f"{c[0]}:{c[1]:x}" for c in self.oracle_certificates],
            "formula_agrees": self.formula_agrees,
            "certificates_agree": self.certificates_agree,
        }


def verify_turan_theorem(max_n, k_list):
    """For each (n, k) with k <= n <= max_n: formula value vs. oracle, and
    oracle extremal set vs. matrix-family extremal set.  The oracle
    enumerates the graphs of each order once, for every k at that order."""
    if not k_list or max_n < max(2, min(k_list)):
        raise PreconditionError(
            "verify_turan_theorem checks nothing: it needs a non-empty k "
            "list and max_n >= max(2, min k)")
    cells = [(n, k, ambiguous_max_edges(n, k)) for k in k_list
             for n in range(max(2, k), max_n + 1)]
    oracle = max_edges_by_order([(n, k) for n, k, _ in cells])
    reports = []
    for n, k, formula in cells:
        value, oracle_certs = oracle[n, k]
        fam = enumerate_extremal(n, k)
        reports.append(ExtremalReport(
            n=n, k=k, formula_value=formula, oracle_value=value,
            certificates=[(tags, cert) for cert, tags in fam.items()],
            oracle_certificates=oracle_certs,
            formula_agrees=(formula == value),
            certificates_agree=(sorted(fam) == oracle_certs),
        ))
    return reports


def turan_report_json(reports):
    ok = all(r.formula_agrees and r.certificates_agree for r in reports)
    return json.dumps(
        {"schema_version": 1, "theorem": "turan-type",
         "rows": [r.to_json() for r in reports], "all_agree": ok},
        indent=2, sort_keys=True)


def turan_report_tsv(reports):
    lines = ["n\tk\tformula\toracle\tn_extremal\tfamilies"]
    for r in reports:
        families = sorted({f for fams, _ in r.certificates for f in fams})
        lines.append("\t".join([
            str(r.n), str(r.k), str(r.formula_value),
            str(r.oracle_value if r.oracle_value is not None else "-"),
            str(len(r.certificates)), ",".join(families) or "-"]))
    return "\n".join(lines) + "\n"
