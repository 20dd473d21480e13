"""Simple undirected graphs with bitrow adjacency.

Provides the one construction of G(A) from labels (i_1, ..., i_d, t) with
adjacency iff every index coordinate differs, used for matrices (d = 2)
and tensors alike, the standard constructions used by the
extremal machinery (complement, complete multipartite, Turan graph),
desk-scale canonical labeling / isomorphism, maximum clique, exhaustive
generation of small graphs up to isomorphism, and the edge-list / graph6
file formats.
"""

from __future__ import annotations

from itertools import combinations, islice

from .errors import InputFormatError, PreconditionError, ResourceLimitError

MAX_VERTICES = 64
DEFAULT_CANON_MAX_N = 16
DEFAULT_CLIQUE_MAX_N = 32


class SimpleGraph:
    """Finite undirected simple graph.

    Adjacency is stored as one integer bitrow per vertex.  Instances are
    treated as immutable: every "mutating" operation returns a new graph.
    ``labels`` optionally carries the (i, j, t) triple of each vertex when
    the graph was built from a matrix (or the (i_1, ..., i_d, t) tuple for
    tensors).
    """

    __slots__ = ("n", "rows", "labels", "_cert")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise InputFormatError(f"vertex count must be >= 0, got {n}")
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InputFormatError(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self.labels = tuple(labels) if labels is not None else None
        self._cert = None

    @classmethod
    def from_rows(cls, rows, labels=None):
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g.labels = tuple(labels) if labels is not None else None
        g._cert = None
        return g

    @property
    def m(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def degree(self, v):
        return self.rows[v].bit_count()

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        out = []
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            while r:
                v = (r & -r).bit_length() - 1
                out.append((u, v))
                r &= r - 1
        return out

    def non_edges(self):
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.has_edge(u, v):
                    out.append((u, v))
        return out

    def add_edge(self, u, v):
        if u == v or self.has_edge(u, v):
            raise PreconditionError(f"({u}, {v}) is not a non-edge")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return SimpleGraph.from_rows(rows, self.labels)

    def induced(self, vertices):
        """Induced subgraph on the given vertices (kept in sorted order)."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for v in vs:
            r = self.rows[v]
            while r:
                u = (r & -r).bit_length() - 1
                if u in pos:
                    rows[pos[v]] |= 1 << pos[u]
                r &= r - 1
        labels = [self.labels[v] for v in vs] if self.labels else None
        return SimpleGraph.from_rows(rows, labels)

    def permuted(self, perm):
        """Relabel: vertex v of the result is vertex perm[v] of self."""
        pos = [0] * self.n
        for new, old in enumerate(perm):
            pos[old] = new
        rows = [0] * self.n
        for new, old in enumerate(perm):
            r = self.rows[old]
            while r:
                u = (r & -r).bit_length() - 1
                rows[new] |= 1 << pos[u]
                r &= r - 1
        labels = [self.labels[old] for old in perm] if self.labels else None
        return SimpleGraph.from_rows(rows, labels)

    def __eq__(self, other):
        return (isinstance(other, SimpleGraph)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def graph_from_labels(labels):
    """Graph on the label tuples (i_1, ..., i_d, t) of an iterable, in its
    order: u ~ v iff the labels differ in every index coordinate.  Raises
    ResourceLimitError above MAX_VERTICES labels, reading at most one
    label more."""
    labels = list(islice(labels, MAX_VERTICES + 1))
    n = len(labels)
    if n > MAX_VERTICES:
        raise ResourceLimitError(
            f"G(A) has more than {MAX_VERTICES} vertices")
    # vertices sharing coordinate p with value x, per (p, x)
    shared = {}
    for v, label in enumerate(labels):
        for key in enumerate(label[:-1]):
            shared[key] = shared.get(key, 0) | 1 << v
    rows = []
    for label in labels:
        row = (1 << n) - 1
        for key in enumerate(label[:-1]):
            row &= ~shared[key]
        rows.append(row)
    return SimpleGraph.from_rows(rows, labels)


def matrix_labels(matrix):
    """Iterator over the triples (i, j, t), 1 <= t <= A(i, j), in
    row-major order."""
    k = matrix.k
    return ((i, j, t) for i in range(1, k + 1) for j in range(1, k + 1)
            for t in range(1, matrix[i, j] + 1))


def build_graph(matrix):
    """G(A): the graph on the triples of `matrix_labels`, adjacency iff
    i != i' and j != j'.  Vertex order is row-major by (i, j, t)."""
    return graph_from_labels(matrix_labels(matrix))


def complement(g):
    full = (1 << g.n) - 1
    rows = [full & ~g.rows[v] & ~(1 << v) for v in range(g.n)]
    return SimpleGraph.from_rows(rows)


def complete_multipartite(sizes):
    """Complete multipartite graph; vertices grouped class by class."""
    if not sizes or any(s < 1 for s in sizes):
        raise PreconditionError("class sizes must be positive")
    n = sum(sizes)
    rows = [0] * n
    full = (1 << n) - 1
    start = 0
    for s in sizes:
        cls = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = full & ~cls
        start += s
    return SimpleGraph.from_rows(rows)


def turan_graph(n, r):
    """Balanced complete r-partite graph T(n, r) on n vertices."""
    if n < 0 or r < 1:
        raise PreconditionError("need n >= 0, r >= 1")
    if n == 0:
        return SimpleGraph(0)
    r = min(r, n)
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return complete_multipartite(sizes)


def complete_graph(n):
    return complete_multipartite([1] * n) if n else SimpleGraph(0)


def empty_graph(n):
    return SimpleGraph(n)


def cycle_graph(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# canonical labeling / isomorphism
# ---------------------------------------------------------------------------

def _refine(rows, cells):
    """Equitable refinement: split cells by neighbor counts into all cells."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in c:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def _cert_bits(rows, order):
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new
    bits = 0
    idx = 0
    for a in range(len(order)):
        ra = rows[order[a]]
        for b in range(a + 1, len(order)):
            if ra >> order[b] & 1:
                bits |= 1 << idx
            idx += 1
    return bits


def _twin_chains(rows):
    """(earlier, later) pairs of consecutive members, by index, of every
    twin class.  Twins u, v have N(u) - v == N(v) - u: open twins have
    equal rows, closed twins equal ``rows[v] | 1 << v``.  Both relations
    are equivalences, and no vertex has twins of both kinds."""
    last = {}
    chains = []
    for v, r in enumerate(rows):
        for key in ((0, r), (1, r | 1 << v)):
            if key in last:
                chains.append((last[key], v))
            last[key] = v
    return chains


def canonical_form(g, max_n=DEFAULT_CANON_MAX_N):
    """Canonical certificate: equal certs iff isomorphic.

    Iterative refinement plus backtracking over the remaining cells; the
    certificate is (n, minimal adjacency bitstring over all canonical
    candidate orderings).  At each target cell only the first vertex of
    each twin class in the cell is individualized: swapping two twins is
    an automorphism that fixes every other vertex, hence the current
    partition, and it maps the skipped branch onto the kept one leaf for
    leaf, so the minimum is that of the full search.
    """
    if g._cert is not None:
        return g._cert
    if g.n > max_n:
        raise ResourceLimitError(f"canonical_form limited to n <= {max_n}")
    n, rows = g.n, g.rows
    if n == 0:
        g._cert = (0, 0)
        return g._cert
    m2 = sum(r.bit_count() for r in rows)
    if m2 == 0 or m2 == n * (n - 1):
        # empty / complete: any ordering is canonical
        g._cert = (n, _cert_bits(rows, list(range(n))))
        return g._cert

    twin_of = list(range(n))
    for first, later in _twin_chains(rows):
        twin_of[later] = twin_of[first]
    best = [None]

    def search(cells):
        cells = _refine(rows, cells)
        target = None
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target is None:
            cert = _cert_bits(rows, [c[0] for c in cells])
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        cell = cells[target]
        tried = set()
        for v in cell:
            if twin_of[v] in tried:
                continue
            tried.add(twin_of[v])
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:])

    search([list(range(n))])
    g._cert = (n, best[0])
    return g._cert


def are_isomorphic(g, h, max_n=DEFAULT_CANON_MAX_N):
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    return canonical_form(g, max_n) == canonical_form(h, max_n)


def graph_levels(max_n, bound=8):
    """Yield (n, all graphs on n vertices, one per isomorphism class) for
    n = 1..max_n, building each level once from the one before.

    Grown by vertex augmentation: every n-vertex graph arises from some
    (n-1)-vertex graph by adding one vertex, so extending every class
    representative by every possible neighborhood and deduplicating on the
    canonical certificate is exhaustive.  A neighborhood mask is skipped
    when, for some twin class of the parent, it contains a later member
    but not an earlier one: swapping the two twins gives a smaller mask
    with an isomorphic child, and every mask reaches one that skips for
    no class by such swaps.  The first candidate of each certificate,
    which is the one stored, is therefore never skipped.
    """
    if max_n > bound:
        raise ResourceLimitError(f"graph enumeration limited to n <= {bound}")
    if max_n < 0:
        raise PreconditionError(f"need a vertex count >= 0, got {max_n}")
    level = [SimpleGraph(0)]
    for size in range(1, max_n + 1):
        seen = {}
        for g in level:
            chains = [(1 << a, 1 << b) for a, b in _twin_chains(g.rows)]
            for mask in range(1 << g.n):
                if any(mask & b and not mask & a for a, b in chains):
                    continue
                new_rows = [r | (mask >> v & 1) << g.n
                            for v, r in enumerate(g.rows)]
                new_rows.append(mask)
                cand = SimpleGraph.from_rows(new_rows)
                cert = canonical_form(cand)
                if cert not in seen:
                    seen[cert] = cand
        level = [seen[c] for c in sorted(seen)]
        yield size, level


def enumerate_graphs(n, max_n=8):
    """All graphs on exactly n vertices, one per isomorphism class: the
    last level of ``graph_levels(n)``."""
    level = [SimpleGraph(0)]
    for _, level in graph_levels(n, max_n):
        pass
    return level


def enumerate_labeled_graphs(n):
    """All 2^C(n,2) labeled graphs on n vertices (cross-check oracle)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield SimpleGraph(n, edges)


# ---------------------------------------------------------------------------
# maximum clique (bitset branch and bound)
# ---------------------------------------------------------------------------

def clique_number(g, max_n=DEFAULT_CLIQUE_MAX_N):
    """Size of a maximum clique, by branch and bound with a greedy
    coloring bound."""
    if g.n > max_n:
        raise ResourceLimitError(f"clique_number limited to n <= {max_n}")
    if g.n == 0:
        return 0
    rows = g.rows
    best = [1]

    def bound(cand):
        # greedy coloring of the candidate set; number of color classes
        # bounds the clique size within it
        colors = 0
        while cand:
            colors += 1
            avail = cand
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(1 << v) & ~rows[v]
                cand &= ~(1 << v)
        return colors

    def expand(size, cand):
        if not cand:
            if size > best[0]:
                best[0] = size
            return
        if size + bound(cand) <= best[0]:
            return
        while cand:
            if size + cand.bit_count() <= best[0]:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            expand(size + 1, cand & rows[v])

    expand(0, (1 << g.n) - 1)
    return best[0]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def to_edge_list(g):
    """Bit-exact edge-list text: line 1 "n m", then sorted "u v" lines."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputFormatError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise InputFormatError(f"bad header line: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise InputFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise InputFormatError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    return SimpleGraph(n, edges)


def to_graph6(g):
    """Standard graph6 encoding (n <= 62 supported here)."""
    n = g.n
    if n > 62:
        raise ResourceLimitError("graph6 export limited to n <= 62")
    out = [chr(n + 63)]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(text):
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputFormatError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise InputFormatError("only short-form graph6 (n <= 62) supported")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise InputFormatError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise InputFormatError(f"bad graph6 character {ch!r}")
        bits.extend((val >> i) & 1 for i in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return SimpleGraph(n, edges)
