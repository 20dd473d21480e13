"""Output checks for the benchmark workloads.

Each ``check_<workload>(inputs, outputs)`` returns a list of error strings,
empty when every output is right.  The expected values come from outside
ambigcolor wherever possible: the networkx graph atlas and
isomorphism test, the closed-form Turan-type count, the benchmark's own
triple construction of G(A), and labels known from how each input was
generated.  networkx is imported here and only here, after timing.
"""

from __future__ import annotations

import functools
import json
from itertools import combinations
from math import comb

import networkx as nx

from ambigcolor import matrix as am
from ambigcolor.errors import ReconstructionError, ResourceLimitError

import workloads as wl


# ---------------------------------------------------------------------------
# independent constructions
# ---------------------------------------------------------------------------

def triple_labels(entries):
    """Vertices (i, j, t) of G(A), 1-based, in row-major order."""
    k = len(entries)
    return [(i + 1, j + 1, t) for i in range(k) for j in range(k)
            for t in range(1, entries[i][j] + 1)]


def triple_graph(entries):
    """G(A) as a networkx graph: (i, j, t) ~ (i', j', t') iff i != i' and
    j != j'."""
    labels = triple_labels(entries)
    g = nx.Graph()
    g.add_nodes_from(range(len(labels)))
    g.add_edges_from((u, v) for u, v in combinations(range(len(labels)), 2)
                     if labels[u][0] != labels[v][0]
                     and labels[u][1] != labels[v][1])
    return g


def fully_indecomposable(block):
    """No s x (r - s) all-zero submatrix, by brute force over row sets."""
    r = len(block)
    for s in range(1, r):
        for rows in combinations(range(r), s):
            zero_cols = sum(all(block[i][j] == 0 for i in rows)
                            for j in range(r))
            if zero_cols >= r - s:
                return False
    return True


def desirable_class(entries):
    """Tiny / Small / Special / Normal by the paper's definitions, or None."""
    k = len(entries)
    diag = [entries[i][i] for i in range(k)]
    off = [(i, j) for i in range(k) for j in range(k)
           if i != j and entries[i][j]]
    if not off:
        if max(diag) > 2 or 2 not in diag:
            return None
        if diag.count(0) == 1:
            return "Small"
        if diag.count(0) >= 2 and diag.count(2) == 1:
            return "Tiny"
        return None
    if 0 in diag:
        return None
    if len(off) == 1:
        i, j = off[0]
        return "Special" if entries[i][j] == 1 else None
    idx = sorted({i for i, _ in off} | {j for _, j in off})
    block = [[entries[i][j] for j in idx] for i in idx]
    return "Normal" if fully_indecomposable(block) else None


def turan_closed_form(n, k):
    """C(n,2) - r C(q+1,2) - (k-r) C(q,2) - max(1, q), n = qk + r."""
    q, r = divmod(n, k)
    return (comb(n, 2) - r * comb(q + 1, 2) - (k - r) * comb(q, 2)
            - max(1, q))


def iso_classes(graphs):
    """Number of isomorphism classes, by networkx.is_isomorphic within
    buckets of equal degree sequence."""
    buckets = {}
    for g in graphs:
        key = tuple(sorted(d for _, d in g.degree()))
        buckets.setdefault(key, []).append(g)
    total = 0
    for group in buckets.values():
        reps = []
        for g in group:
            if not any(nx.is_isomorphic(g, h) for h in reps):
                reps.append(g)
        total += len(reps)
    return total


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

@functools.cache
def exhaustive_expected(max_n, k_list):
    """Graph counts per n from the atlas; maximal counts per (n, k) as the
    number of isomorphism classes among G(A), A desirable of order n."""
    atlas = nx.graph_atlas_g()
    graphs = {n: sum(1 for g in atlas if g.number_of_nodes() == n)
              for n in range(1, max_n + 1)}
    maximal = {(n, k): iso_classes([triple_graph(m.entries)
                                    for m in am.enumerate_desirable(k, n)])
               for n in range(1, max_n + 1) for k in k_list}
    return graphs, maximal


def check_theorem1(code, text, max_n, k_list, expected):
    graphs, maximal = expected
    errs = []
    if code != 0:
        errs.append(f"theorem 1: exit code {code}")
    report = json.loads(text)
    if report["counterexample_total"] != 0:
        errs.append(f"theorem 1: {report['counterexample_total']} "
                    "counterexamples")
    rows = report["rows"]
    want = [(n, k) for n in range(1, max_n + 1) for k in k_list]
    got = [(r["n"], r["k"]) for r in rows]
    if got != want:
        errs.append(f"theorem 1: rows {got} != {want}")
    for r in rows:
        n, k = r["n"], r["k"]
        if r["graphs"] != graphs.get(n):
            errs.append(f"theorem 1 n={n} k={k}: graphs {r['graphs']} "
                        f"!= atlas {graphs.get(n)}")
        exp = maximal.get((n, k))
        if not r["maximal_ambiguous"] == r["matched_by_matrix"] == exp:
            errs.append(f"theorem 1 n={n} k={k}: maximal "
                        f"{r['maximal_ambiguous']}, matched "
                        f"{r['matched_by_matrix']}, G(A) classes {exp}")
    checked = sum(r["graphs"] for r in rows if r["k"] == k_list[0])
    if checked == 0 or checked != sum(graphs.values()):
        errs.append(f"theorem 1: checked {checked} graphs, atlas has "
                    f"{sum(graphs.values())}")
    return errs


def check_turan(code, text, max_n, k_list):
    errs = []
    if code != 0:
        errs.append(f"turan: exit code {code}")
    report = json.loads(text)
    if report["all_agree"] is not True:
        errs.append("turan: all_agree is not true")
    rows = report["rows"]
    want = [(n, k) for k in k_list for n in range(max(2, k), max_n + 1)]
    got = [(r["n"], r["k"]) for r in rows]
    if not want or got != want:
        errs.append(f"turan: rows {got} != {want}")
    for r in rows:
        exp = turan_closed_form(r["n"], r["k"])
        if not r["formula_value"] == r["oracle_value"] == exp:
            errs.append(f"turan n={r['n']} k={r['k']}: formula "
                        f"{r['formula_value']}, oracle {r['oracle_value']}, "
                        f"closed form {exp}")
        if not (r["formula_agrees"] and r["certificates_agree"]):
            errs.append(f"turan n={r['n']} k={r['k']}: disagreement flagged")
    return errs


def check_exhaustive(inputs, outputs, max_n=wl.EXHAUSTIVE_MAX_N,
                     k_list=(2, 3, 4)):
    expected = exhaustive_expected(max_n, tuple(k_list))
    errs = []
    if len(outputs) != len(inputs) or not outputs:
        errs.append(f"exhaustive: {len(outputs)} outputs for "
                    f"{len(inputs)} commands")
    for (kind, _), (out_kind, code, text) in zip(inputs, outputs):
        if kind != out_kind:
            errs.append(f"exhaustive: output {out_kind} for command {kind}")
        elif kind == "theorem1":
            errs += check_theorem1(code, text, max_n, k_list, expected)
        else:
            errs += check_turan(code, text, max_n, k_list)
    return errs


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_certify(inputs, outputs):
    errs = []
    if len(outputs) != len(inputs) or not outputs:
        errs.append(f"certify: {len(outputs)} outputs for {len(inputs)} items")
    for item, out in zip(inputs, outputs):
        out_item, g, verdict, max_g, max_h, rec_g, rec_h = out
        tag = f"certify {item.verdict} k={item.k} n={item.n} {item.entries}"
        if out_item is not item:
            errs.append(f"{tag}: output belongs to another item")
            continue
        errs += check_build(tag, item.entries, g)
        if verdict != item.verdict:
            errs.append(f"{tag}: classify says {verdict}")
        if max_g is not True:
            errs.append(f"{tag}: is_maximal_ambiguous(G(A)) = {max_g}")
        if max_h is not False:
            errs.append(f"{tag}: is_maximal_ambiguous(G(A) - e) = {max_h}")
        if isinstance(rec_g, ResourceLimitError):
            if item.n <= wl.CANON_MAX_N:
                errs.append(f"{tag}: reconstruct_matrix hit a resource limit")
        elif isinstance(rec_g, Exception):
            errs.append(f"{tag}: reconstruct_matrix raised {rec_g!r}")
        else:
            errs += check_certificate(tag, item.entries, rec_g.entries)
        if not isinstance(rec_h, ReconstructionError):
            errs.append(f"{tag}: reconstruct_matrix(G(A) - e) gave {rec_h!r}, "
                        "not ReconstructionError")
    return errs


def check_certificate(tag, entries, cert):
    cert = [list(row) for row in cert]
    n = sum(map(sum, entries))
    if sum(map(sum, cert)) != n:
        return [f"{tag}: certificate {cert} has entry sum != {n}"]
    if desirable_class(cert) is None:
        return [f"{tag}: certificate {cert} is not desirable"]
    if not nx.is_isomorphic(triple_graph(entries), triple_graph(cert)):
        return [f"{tag}: G({cert}) is not isomorphic to the input"]
    return []


def check_build(tag, entries, g):
    """build_graph's labels and edges against the triple construction."""
    want = {tuple(sorted(e)) for e in triple_graph(entries).edges()}
    if g.labels != tuple(triple_labels(entries)) or set(g.edges()) != want:
        return [f"{tag}: build_graph differs from the triple construction"]
    return []


# ---------------------------------------------------------------------------
# perfect
# ---------------------------------------------------------------------------

def check_perfect(inputs, outputs):
    errs = []
    if len(outputs) != len(inputs) or not outputs:
        errs.append(f"perfect: {len(outputs)} outputs for {len(inputs)} items")
    for item, (out_item, by_def, by_holes) in zip(inputs, outputs):
        if out_item is not item:
            errs.append(f"perfect {item.description}: output belongs to "
                        "another item")
        elif not by_def == by_holes == item.perfect:
            errs.append(f"perfect {item.description}: definition {by_def}, "
                        f"holes {by_holes}, expected {item.perfect}")
    return errs


CHECKS = {"exhaustive": check_exhaustive, "certify": check_certify,
          "perfect": check_perfect}
