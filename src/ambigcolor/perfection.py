"""Desk-scale perfectness checking.

The reference method applies the definition directly: chromatic number
equals clique number on every induced subgraph.  The fast path scans for
induced odd holes and antiholes; the strong perfect graph theorem says the
two agree, which is used as a cross-check rather than assumed.
"""

from __future__ import annotations

import json

from .coloring import chromatic_number
from .errors import PreconditionError, ResourceLimitError
from .graphcore import build_graph, clique_number, complement
from .maximality import is_maximal_ambiguous
from .matrix import enumerate_desirable

DEFAULT_PERFECT_MAX_N = 14


def _subset_vertices(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _has_odd_hole(g):
    """Induced odd cycle of length >= 5: an odd subset inducing a
    connected 2-regular subgraph."""
    n, rows = g.n, g.rows
    for mask in range(1 << n):
        size = mask.bit_count()
        if size < 5 or size % 2 == 0:
            continue
        vs = _subset_vertices(mask)
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


def is_perfect(g, method="definition", max_n=DEFAULT_PERFECT_MAX_N):
    """True iff chi = omega on every induced subgraph.

    method="definition" iterates all vertex subsets (the reference);
    method="holes" tests for induced odd holes/antiholes instead.
    """
    if g.n > max_n:
        raise ResourceLimitError(f"is_perfect limited to n <= {max_n}")
    if method == "holes":
        return not _has_odd_hole(g) and not _has_odd_hole(complement(g))
    if method != "definition":
        raise PreconditionError(f"unknown method {method!r}")
    for mask in range(1, 1 << g.n):
        sub = g.induced(_subset_vertices(mask))
        if chromatic_number(sub) != clique_number(sub):
            return False
    return True


def verify_perfectness(max_n, k_list, max_n_bound=12, jobs=1):
    """Assert perfectness of every maximal ambiguously k-colorable graph
    in the exhaustive corpus and of every family graph G(A) with n <=
    max_n; report violations (must be none)."""
    from .graphcore import enumerate_graphs

    if max_n > max_n_bound:
        raise ResourceLimitError(
            f"verify_perfectness limited to max_n <= {max_n_bound}")
    if max_n < 1 or not k_list:
        raise PreconditionError(
            "verify_perfectness needs max_n >= 1 and a non-empty k list")
    checked = 0
    violations = []
    corpus_bound = min(max_n, 7)
    for n in range(1, corpus_bound + 1):
        for g in enumerate_graphs(n):
            for k in k_list:
                if is_maximal_ambiguous(g, k):
                    checked += 1
                    if not is_perfect(g):
                        violations.append(g.edges())
                    break
    for k in k_list:
        for n in range(0, max_n + 1):
            for mat in enumerate_desirable(k, n):
                g = build_graph(mat)
                checked += 1
                if not is_perfect(g):
                    violations.append(g.edges())
    return {"graphs_checked": checked,
            "violations": [[f"{u} {v}" for u, v in e] for e in violations]}


def perfectness_report_json(report):
    return json.dumps({"schema_version": 1, "theorem": "perfectness",
                       **report}, indent=2, sort_keys=True)
