"""Maximal (ambiguous) k-colorability, certificate-matrix reconstruction,
and the exhaustive characterization-theorem harness.

Reconstruction follows the necessity argument and reads the first two
k-colorings as class bitmasks.  When the first has fewer than k classes, a
maximal input is complete multipartite, with a tiny or small diagonal
certificate; otherwise a perfect matching of the class-intersection
bipartite graph of the two colorings fixes the pairing, and the entry
counts |A_i n B_j| form the certificate, which is special or normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from .coloring import _class_masks, _ordered_classes
from .errors import PreconditionError, ReconstructionError
from .graphcore import build_graph, graph_levels
from .matrix import (MAX_K, ColorMatrix, _bipartite_matching, classify,
                     enumerate_desirable)


def is_maximal(g, k, d):
    """At least d distinct k-colorings; every edge added leaves fewer."""
    return _is_maximal_over(g, _class_masks(g, k), d)


def _is_maximal_over(g, colorings, d):
    """`is_maximal` over a stream of the k-colorings of g, each once, as
    class bitmask lists (zero entries and class order do not matter).

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
    # layers[i][u]: non-edges uv separated by at least i + 1 colorings; a
    # tally reaches c only at the c-th coloring, so layer c - 1 is added then
    layers = []
    # the layers between the first and the last, updated top down so that
    # each reads the layer below as it stood before this coloring
    middle = ()
    count = 0
    for masks in colorings:
        count += 1
        if count < d:
            layers.append([0] * n)
            middle = range(count - 1, 0, -1)
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
                for i in middle:
                    layers[i][u] |= sep & layers[i - 1][u]
                layers[0][u] |= sep
    return count >= d


def is_maximal_ambiguous(g, k):
    """Ambiguously k-colorable, and every single-edge addition is not."""
    return is_maximal(g, k, 2)


@dataclass
class ReconstructionTrace:
    """What the reconstruction found besides the matrix."""
    r: int                            # labels with A_j != B_j
    relabeling: dict                  # vertex -> (i, j, t) label in G(A)


def _certificate(g, a_ord, b_ord):
    """Entries |A_i n B_j| of two class bitmask lists of g, of any lengths
    and orders (zero entries allowed), and the relabeling that sends the
    vertices of A_i n B_j, ascending, to the labels (i+1, j+1, t); None
    when g is not G(A) for them.  Each v gets its label only once its row
    passes the paper's lemma, N(v) = V - (A_i u B_j): G joins exactly the
    pairs that both colorings separate.  As both lists partition V, this
    is the one check that the relabeling is an isomorphism onto G(A);
    None means some non-edge is separated by both colorings."""
    full = (1 << g.n) - 1
    rows = g.rows
    entries = []
    relabeling = {}
    for i, a in enumerate(a_ord, start=1):
        row = []
        for j, b in enumerate(b_ord, start=1):
            common = a & b
            row.append(common.bit_count())
            nbrs = full & ~(a | b)
            t = 0
            while common:
                low = common & -common
                common ^= low
                v = low.bit_length() - 1
                if rows[v] != nbrs:
                    return None
                t += 1
                relabeling[v] = (i, j, t)
        entries.append(row)
    return entries, relabeling


def reconstruct_matrix(g, k):
    """Desirable certificate matrix A with G isomorphic to G(A), plus trace.

    Once the two ordered class lists are fixed, `_certificate` checks the
    lemma that G joins exactly the pairs both colorings separate as it
    builds the certificate matrix and the relabeling, so `classify` runs
    only on graphs that are G(A).  Raises ReconstructionError when the
    input is not ambiguously k-colorable, when the Hall condition, the
    lemma or `classify` fails, and PreconditionError for k outside
    1..matrix.MAX_K before any search.
    """
    if not 1 <= k <= MAX_K:
        raise PreconditionError(f"certificate dimension k = {k} is outside "
                                f"1..{MAX_K}")
    return _reconstruct_from(g, k, [_ordered_classes(masks) for masks
                                    in islice(_class_masks(g, k), 2)])


def _reconstruct_from(g, k, cols):
    """`reconstruct_matrix` from the first two k-colorings of g, or all
    when fewer exist, as `_ordered_classes` lists, with the checks in the
    order listed there."""
    if len(cols) < 2:
        raise ReconstructionError("graph is not ambiguously k-colorable")
    a, b = cols
    if len(a) < k:
        # tiny / small route: the certificate is diagonal, and the first
        # coloring is the greedy one, whose classes on a complete
        # multipartite graph are its parts in any vertex order; any other
        # graph fails the lemma check below
        parts = sorted(a, key=int.bit_count, reverse=True)
        parts += [0] * (k - len(parts))
        a_ord = b_ord = parts
        r = 0
    else:
        adj = [[j for j in range(len(b)) if a[i] & b[j]] for i in range(k)]
        size, match_right = _bipartite_matching(adj, k, len(b))
        if size < k:
            raise ReconstructionError(
                "Hall condition failed on the class-intersection graph")
        match = [0] * k
        for j, i in enumerate(match_right):
            match[i] = j
        # labels with A != B first, each group ascending by class minimum
        order = sorted(range(k), key=lambda i: (a[i] == b[match[i]],
                                                a[i] & -a[i]))
        # two distinct partitions of V into k classes differ in >= 2
        r = sum(a[i] != b[match[i]] for i in range(k))
        a_ord = [a[i] for i in order]
        b_ord = [b[match[i]] for i in order]
    certificate = _certificate(g, a_ord, b_ord)
    if certificate is None:
        raise ReconstructionError("G(A) is not isomorphic to the input")
    matrix = ColorMatrix(certificate[0])
    verdict = classify(matrix)
    if not verdict.desirable:
        raise ReconstructionError(
            f"reconstructed matrix is not desirable: {verdict.witness}")
    return matrix, ReconstructionTrace(r, certificate[1])


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


def _edge_list_lines(g):
    return [f"{u} {v}" for u, v in g.edges()]


def _has_co_claw(g):
    """Whether g induces a co-claw: a triangle uvw and a vertex joined to
    none of u, v, w.  For each edge uv, u < v, the vertices outside
    N(u) u N(v) are taken as one bitmask, and each common neighbour w
    above v asks whether one of them also lies outside N(w).  The
    triangle's own vertices need no mask of their own: each lies in the
    others' neighbourhoods."""
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    for u in range(n):
        higher = rows[u] >> (u + 1) << (u + 1)
        while higher:
            low = higher & -higher
            higher ^= low
            v = low.bit_length() - 1
            outside = full & ~(rows[u] | rows[v])
            if not outside:
                continue
            common = rows[u] & rows[v] >> (v + 1) << (v + 1)
            while common:
                bit = common & -common
                common ^= bit
                if outside & ~rows[bit.bit_length() - 1]:
                    return True
    return False


def _leading_clique(g):
    """Size of the first block of g's `clique_cover_order`: the vertices
    taken while each one is joined to all the vertices before it, so a
    clique of g."""
    rows = g.rows
    taken = w = 0
    for v in g.clique_cover_order():
        if taken & ~rows[v]:
            break
        taken |= 1 << v
        w += 1
    return w


def verify_theorem1(max_n, k_list):
    """Exhaustively check the biconditional on all graphs with n <= max_n.

    Both directions run per (n, k): every graph up to isomorphism is
    tested for maximal ambiguity and for reconstructability, both read
    off one coloring search, and the desirable matrices with entry sum n,
    one per relabeling orbit (see enumerate_desirable), are checked to
    induce maximal ambiguously k-colorable graphs; `family_graphs` counts
    them.  Four exact tests each show a (graph, k) to be neither
    maximal ambiguous nor certified, and skip both verdict cores:
      - the graph induces a co-claw (`_has_co_claw`), tested once per
        graph, which then starts no search for any k.  A maximal or
        certified G passes the lemma below on some pair of class lists
        (for the tiny and small route, on its parts against themselves),
        so G is G(M) for the matrix M of their intersections: two
        vertices are non-adjacent iff they share a row or a column of M.
        A triangle holds three cells in pairwise different rows and
        columns; a vertex has one row and one column, so by pigeonhole it
        shares one of them with at most two of the three cells and is
        joined to the third;
      - its leading clique (`_leading_clique`) has more than k vertices,
        so it has no k-coloring and no search is started;
      - it has fewer than two k-colorings;
      - its first two colorings P and Q fail the lemma (`_certificate`
        returns None): some non-edge uv is separated by both, so G + uv
        keeps P and Q and G is not maximal, and `_reconstruct_from`
        raises, as each of its routes builds the certificate of P's
        classes against Q's, or against P's own (which also separate
        uv).
    Every k must lie in 1..matrix.MAX_K, checked before any graph is
    enumerated.
    """
    if max_n < 1 or not k_list or not all(1 <= k <= MAX_K for k in k_list):
        raise PreconditionError("verify_theorem1 needs max_n >= 1 and a "
                                f"non-empty list of k in 1..{MAX_K}")
    rows = []
    for n, graphs in graph_levels(max_n):
        kept = [(g, _leading_clique(g)) for g in graphs
                if not _has_co_claw(g)]
        for k in k_list:
            maximal = 0
            matched = 0
            counterexamples = []
            for g, w in kept:
                if w > k:
                    continue       # a (k + 1)-clique: no k-coloring
                # one search: both verdicts read its first two colorings,
                # copied, and the maximality pass reads on past them
                colorings = _class_masks(g, k)
                cols = [_ordered_classes(m) for m in islice(colorings, 2)]
                if len(cols) < 2 or _certificate(g, *cols) is None:
                    continue       # neither maximal ambiguous nor certified
                is_max = _is_maximal_over(g, chain(cols, colorings), 2)
                try:
                    _reconstruct_from(g, k, cols)
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
