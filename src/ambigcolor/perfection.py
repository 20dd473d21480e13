"""Desk-scale perfectness checking.

Both methods run on the false-twin quotient of G: one vertex, the lowest,
for each distinct adjacency row.  The quotient is a vertex mask read on G's
own rows, not a new graph; its vertices keep their relative order, so the
pieces, tables and hole starts are those of the quotient taken as a graph.
Vertices with equal rows are false twins
(non-adjacent, since no vertex is its own neighbour, with the same
neighbourhood), and dropping a twin v of a kept u changes no verdict: in
any vertex set S holding both, a clique holds at most one of them and v
can be swapped for u, so omega(S) = omega(S - v), and v can take u's
colour, so chi(S) = chi(S - v); and an odd hole or antihole never holds
two false twins, so a twin on it can be swapped for its representative.
G(A) has A(i, j) false twins labelled (i, j), so its quotient is that of
G(supp A), the subgraph of G(J_k) induced by A's support (J_k all ones).

The definition method splits the quotient into components, each part into
co-components, until no part splits: in a disjoint union, or a join, chi
and omega of any vertex set are the maximum, or the sum, of theirs on its
parts (an independent set of a join lies in one part), so as chi >= omega,
G is perfect iff every piece is.  Pieces of one vertex are skipped; a
desirable G(A) is, up to relabeling, a block joined to one independent set
per diagonal cell, so most of its pieces are single vertices.

The definition method decides chi = omega on every induced subgraph in one
dynamic program over the vertex subsets, in increasing numeric order: a
clique-number table, and for each subset one independent set through its
lowest vertex that lowers the clique number by one.  A second table, filled
in the same pass, holds each subset's greedy (lowest-first) maximal
independent set through its lowest vertex; that vertex alone or that set
settles most subsets with one lookup each, and only the rest go to a search
over independent sets.  Every witness is checked against the clique-number
table, so the method still decides the definition.  The second method
searches G and its complement for an induced odd cycle of length >= 5 by
extending induced paths from the cycle's lowest vertex s, through the
lower of its two cycle neighbours, and closing through the higher one;
verify_perfectness runs it from one such start on the vertex-transitive
G(J_k), where every hole has an image through that start.
The strong perfect graph theorem says the two methods agree, which is
used as a cross-check rather than assumed.
"""

from __future__ import annotations

from array import array

from .errors import PreconditionError, ResourceLimitError
from .graphcore import MAX_VERTICES, build_graph, complement
from .matrix import ColorMatrix

DEFAULT_PERFECT_MAX_N = 14     # the 2^n table of one piece


def _has_odd_hole(rows, keep, start=None):
    """Induced odd cycle of length >= 5 in G[keep], found by extending
    induced paths; G is given by its rows, keep is a vertex mask.

    Each hole is searched from its lowest vertex s, along the path
    s - a - ... - x where a is the lower of s's two neighbours on the
    hole; the higher one, b, closes the cycle.  A path grows from its last
    vertex x only to vertices of keep above s outside N(s) and outside the
    closed neighbourhoods of the vertices before x, so it stays induced and
    misses N(s) after a.  It closes through a neighbour b > a of s and x
    with no neighbour among the interior vertices a .. (before x).  A path
    of m >= 4 vertices, m even, closes to a hole of odd length m + 1.
    Fixing s lowest and a < b finds each hole from one start only.  With
    start = (s, a), a a neighbour of s in keep above s, the search runs
    from that one start: it finds the holes through s, their lowest
    vertex, and a, the lower of s's two neighbours on them.
    """
    sources = keep if start is None else 1 << start[0]
    while sources:
        low_s = sources & -sources
        sources ^= low_s
        s = low_s.bit_length() - 1
        below = (low_s << 1) - 1
        forbid_s = rows[s] | below | ~keep
        nbrs = rows[s] & keep & ~below
        if start is not None:
            nbrs &= -(1 << start[1])        # a = start[1], then the b's
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            a = low.bit_length() - 1
            closers = nbrs & ~rows[a]       # candidates for b
            if start is not None:
                nbrs = 0                    # no other a
            if not closers:
                continue
            # (x, vertices on the path, union of N[v] over the path
            # before x with s's forbidden set, the same without s's)
            stack = [(a, 2, forbid_s, 0)]
            while stack:
                x, m, forbid, inner = stack.pop()
                if m >= 4 and m % 2 == 0 and closers & rows[x] & ~inner:
                    return True
                ext = rows[x] & ~forbid
                closed_x = rows[x] | 1 << x
                while ext:
                    y = ext & -ext
                    ext ^= y
                    stack.append((y.bit_length() - 1, m + 1,
                                  forbid | closed_x, inner | closed_x))
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

    Three candidates for I are tried in turn, each checked against the
    omega table: {v}; the greedy set stable[S] = v + stable[S - N[v]],
    the lowest-first maximal independent set through v, kept in a second
    table filled in the same pass; and, only if both fail, a search over
    the independent sets of S - N[v] (_lowering_set).
    """
    omega = bytearray(1 << n)
    stable = array("H", [0]) * (1 << n)  # masks of up to 16 bits
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        out = rest & ~rows[v]
        greedy = stable[s] = low | stable[out]
        w = omega[rest]
        if omega[rest & rows[v]] == w:
            omega[s] = w + 1        # v is in every maximum clique of S,
            continue                # so I = {v} is a witness
        omega[s] = w
        if omega[s & ~greedy] == w - 1:
            continue
        if not _lowering_set(omega, rows, rest, out, w - 1):
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


def _twin_quotient(rows):
    """Mask of the representatives: the lowest vertex of each distinct row."""
    seen, keep = set(), 0
    for v, row in enumerate(rows):
        if row not in seen:
            seen.add(row)
            keep |= 1 << v
    return keep


def _split(rows, s, co):
    """Vertex masks of the components of G[s], or of its complement if co,
    by a bitmask search that reads each row of s once."""
    parts = []
    while s:                        # s: the vertices not yet reached
        part = frontier = s & -s
        s ^= part
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            row = rows[low.bit_length() - 1]
            new = s & ~row if co else s & row
            s ^= new
            part |= new
            frontier |= new
        parts.append(part)
    return parts


def _pieces(rows, keep):
    """Masks of the pieces of G[keep] with two or more vertices, smallest
    first: G[keep] split into components and co-components until no part
    splits."""
    todo, pieces = [keep] if keep & (keep - 1) else [], []
    while todo:
        s = todo.pop()
        for co in (False, True):
            parts = _split(rows, s, co)
            if len(parts) > 1:
                todo += [p for p in parts if p & (p - 1)]
                break
        else:
            pieces.append(s)
    return sorted(pieces, key=int.bit_count)


def is_perfect(g, method="definition"):
    """True iff chi = omega on every induced subgraph.

    method="definition" decides the definition by one dynamic program
    over the vertex subsets of each piece, of at most DEFAULT_PERFECT_MAX_N
    vertices (checked on the largest before any table): per subset, a color
    class through its lowest vertex is looked for as that vertex alone,
    then as the greedy stable set from a table, then by a search.
    method="holes" searches G and its complement for an induced odd hole
    (the cross-check), on any graph, so up to graphcore.MAX_VERTICES.
    Both methods run on the false-twin quotient, a mask of representatives
    on g's own rows: the hole method searches every start in it on g and on
    its complement, given as g's complemented rows cut to the mask, with no
    new graph; the definition method splits it into pieces that are each
    connected and co-connected and runs on the induced subgraph of each,
    smallest first, as G is perfect iff every piece is (see the module
    docstring for both steps).
    """
    if method not in ("definition", "holes"):
        raise PreconditionError(f"unknown method {method!r}")
    keep = _twin_quotient(g.rows)
    if method == "holes":
        # a tuple, as g.rows is: the search's row lookups then meet one
        # sequence type, which the interpreter's specialization rewards
        return (not _has_odd_hole(g.rows, keep)
                and not _has_odd_hole(tuple([keep & ~r & ~(1 << v)
                                             for v, r in enumerate(g.rows)]),
                                      keep))
    pieces = _pieces(g.rows, keep)
    if pieces and pieces[-1].bit_count() > DEFAULT_PERFECT_MAX_N:
        raise ResourceLimitError("is_perfect('definition') limited to "
                                 f"pieces of <= {DEFAULT_PERFECT_MAX_N}")
    whole = (1 << g.n) - 1
    for s in pieces:
        p = g if s == whole else g.induced(v for v in range(g.n) if s >> v & 1)
        if not _chi_equals_omega_everywhere(p.n, p.rows):
            return False
    return True


def verify_perfectness(k_list):
    """Decide G(M) perfect for every k x k matrix M, at every entry sum,
    from one graph per k in k_list: G(J_k) of the all-ones matrix J_k.

    Every maximal ambiguously k-colorable graph is such a G(M).  Its
    vertices sharing (i, j) are false twins, so G(M) is perfect iff
    G(supp M) is (see is_perfect), an induced subgraph of G(J_k); and
    perfectness is hereditary.  (By Konig's theorem every G(M) is perfect:
    omega and chi of G(S) are the maximum matching and the minimum vertex
    cover of the bipartite graph of the cells S.)

    The hole search on G(J_k) and its complement runs from one start.
    S_k x S_k with transpose acts on G(J_k) transitively on the vertices,
    and the stabilizer of vertex 0 is transitive on 0's neighbours in
    G(J_k) and in its complement; so any hole maps to one through 0 and
    a0, 0's lowest neighbour, where 0 is the lowest vertex and a0 the
    lower of 0's two hole neighbours, which the search from (0, a0)
    finds.  A row holds that verdict ("holes"); the every-start search's,
    is_perfect(g, "holes") as G(J_k) is twin-free, where k <= 6
    ("holes_every_start"; 6.4 s at k = 7 on a 2-core host);
    and, where k^2 <= DEFAULT_PERFECT_MAX_N, the definition method's.  A
    row with a False verdict or two that disagree is a violation,
    reported as J_k.  Every k is checked, k^2 against
    graphcore.MAX_VERTICES, before any graph is built.
    """
    if not k_list or min(k_list) < 1:
        raise PreconditionError(
            "verify_perfectness needs a non-empty list of k >= 1")
    if max(k_list) ** 2 > MAX_VERTICES:
        raise ResourceLimitError(
            f"verify_perfectness limited to k^2 <= {MAX_VERTICES}")
    rows = []
    for k in k_list:
        ones = ColorMatrix([[1] * k] * k)
        g = build_graph(ones)
        full = (1 << g.n) - 1
        sides = (g.rows, complement(g).rows)
        # at k = 1 vertex 0 has no neighbour, so no hole passes through it
        holes = not any(side[0] and _has_odd_hole(
            side, full, (0, (side[0] & -side[0]).bit_length() - 1))
            for side in sides)
        every = is_perfect(g, "holes") if k <= 6 else None
        rows.append({"k": k, "order": g.n, "matrix": ones.to_json(),
                     "covers_every_n": True, "holes": holes,
                     "holes_every_start": every,
                     "definition": is_perfect(g, "definition")
                     if g.n <= DEFAULT_PERFECT_MAX_N else None})
    violations = [row["matrix"] for row in rows
                  if {row["holes"], row["holes_every_start"],
                      row["definition"]} - {None} != {True}]
    return {"rows": rows, "violations": violations}
