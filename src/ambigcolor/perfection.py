"""Desk-scale perfectness checking.

The definition method decides chi = omega on every induced subgraph in one
dynamic program over the vertex subsets, in increasing numeric order: a
clique-number table, and for each subset one independent set through its
lowest vertex that lowers the clique number by one.  The second method
scans for induced odd holes and antiholes; the strong perfect graph
theorem says the two agree, which is used as a cross-check rather than
assumed.
"""

from __future__ import annotations

import json

from .errors import PreconditionError, ResourceLimitError
from .graphcore import build_graph, complement, graph_levels
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


def _chi_equals_omega_everywhere(n, rows):
    """True iff chi(S) = omega(S) for every vertex subset S.

    Subsets are visited in increasing numeric order, so every proper
    subset of S is done before S, and the scan stops at the first S with
    chi(S) != omega(S).  With v the lowest vertex of S,
    omega(S) = max(omega(S - v), 1 + omega(S & N(v))).  Once chi = omega
    holds on every proper subset, chi(S) = 1 + min omega(S - I) over the
    independent sets I of S that contain v (the color class of v), and
    removing an independent set lowers omega by at most one; so chi(S) =
    omega(S) iff some such I has omega(S - I) = omega(S) - 1.
    """
    omega = bytearray(1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        w = omega[rest]
        if omega[rest & rows[v]] == w:
            omega[s] = w + 1        # v is in every maximum clique of S,
            continue                # so I = {v} is a witness
        omega[s] = w
        if not _lowering_set(omega, rows, rest, rest & ~rows[v], w - 1):
            return False
    return True


def _lowering_set(omega, rows, rest, cand, target):
    """True iff some independent J within `cand` has omega[rest - J] ==
    target.  omega only falls as J grows, so a branch is cut as soon as
    removing all of its remaining candidates cannot reach the target."""
    stack = [(0, cand)]
    while stack:
        taken, cand = stack.pop()
        if omega[rest & ~taken] == target:
            return True
        if not cand or omega[rest & ~(taken | cand)] > target:
            continue
        low = cand & -cand
        u = low.bit_length() - 1
        stack.append((taken, cand ^ low))
        stack.append((taken | low, cand & ~rows[u] & ~low))
    return False


def is_perfect(g, method="definition", max_n=DEFAULT_PERFECT_MAX_N):
    """True iff chi = omega on every induced subgraph.

    method="definition" decides the definition by one dynamic program
    over the vertex subsets; method="holes" tests for induced odd
    holes/antiholes instead (the cross-check).
    """
    if g.n > max_n:
        raise ResourceLimitError(f"is_perfect limited to n <= {max_n}")
    if method == "holes":
        return not _has_odd_hole(g) and not _has_odd_hole(complement(g))
    if method != "definition":
        raise PreconditionError(f"unknown method {method!r}")
    return _chi_equals_omega_everywhere(g.n, g.rows)


def verify_perfectness(max_n, k_list, max_n_bound=12):
    """Assert perfectness of every maximal ambiguously k-colorable graph
    in the exhaustive corpus and of every family graph G(A) with n <=
    max_n; report violations (must be none)."""
    if max_n > max_n_bound:
        raise ResourceLimitError(
            f"verify_perfectness limited to max_n <= {max_n_bound}")
    if max_n < 1 or not k_list:
        raise PreconditionError(
            "verify_perfectness needs max_n >= 1 and a non-empty k list")
    checked = 0
    violations = []
    for _, level in graph_levels(min(max_n, 7)):
        for g in level:
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
