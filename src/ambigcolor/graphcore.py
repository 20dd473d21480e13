"""Simple undirected graphs with bitrow adjacency.

Provides the one construction of G(A) from the cells of a k^d array A,
labels (i_1, ..., i_d, t) adjacent iff every index coordinate differs,
for matrices (d = 2) and tensors alike; the standard constructions used
by the extremal machinery (complement, complete multipartite, Turan
graph), desk-scale canonical labeling / isomorphism, maximum clique,
exhaustive generation of small graphs up to isomorphism, and the
edge-list / graph6 file formats.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, product

from .errors import InputFormatError, PreconditionError, ResourceLimitError

MAX_VERTICES = 64
DEFAULT_CANON_MAX_N = 16
ENUMERATION_MAX_N = 8       # graphs up to isomorphism, by graph_levels


class SimpleGraph:
    """Finite undirected simple graph.

    Adjacency is stored as one integer bitrow per vertex.  Instances are
    treated as immutable: every "mutating" operation returns a new graph.
    ``labels`` optionally carries the (i, j, t) triple of each vertex when
    the graph was built from a matrix (or the (i_1, ..., i_d, t) tuple for
    tensors).  The coloring search order is computed on first use and kept
    (`clique_cover_order`); as the graph never changes, it never goes
    stale, and equality and hashing ignore it.  Both constructors refuse
    more than MAX_VERTICES vertices, `__init__` before it builds a row.
    """

    __slots__ = ("n", "rows", "labels", "_order")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise InputFormatError(f"vertex count must be >= 0, got {n}")
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InputFormatError(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self.labels = tuple(labels) if labels is not None else None
        self._order = None

    @classmethod
    def from_rows(cls, rows, labels=None):
        _check_order(len(rows))
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g.labels = tuple(labels) if labels is not None else None
        g._order = None
        return g

    def clique_cover_order(self):
        """The vertex order of every coloring search on this graph,
        `_clique_cover_order` of its rows, computed once."""
        if self._order is None:
            self._order = tuple(_clique_cover_order(self.rows))
        return self._order

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
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if not self.has_edge(u, v)]

    def add_edge(self, u, v):
        if u == v or self.has_edge(u, v):
            raise PreconditionError(f"({u}, {v}) is not a non-edge")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return SimpleGraph.from_rows(rows, self.labels)

    def induced(self, vertices):
        """Induced subgraph on the given vertices (kept in sorted order)."""
        return self.permuted(sorted(vertices))

    def permuted(self, perm):
        """Relabel: vertex v of the result is vertex perm[v] of self.  When
        perm lists only some vertices, the result is induced on them."""
        pos = [0] * self.n
        keep = 0
        for new, old in enumerate(perm):
            pos[old] = new
            keep |= 1 << old
        rows = [0] * len(perm)
        for new, old in enumerate(perm):
            r = self.rows[old] & keep
            while r:
                u = (r & -r).bit_length() - 1
                rows[new] |= 1 << pos[u]
                r &= r - 1
        labels = (None if self.labels is None
                  else [self.labels[old] for old in perm])
        return SimpleGraph.from_rows(rows, labels)

    def __eq__(self, other):
        return (isinstance(other, SimpleGraph)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.m})"


def _check_order(n):
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"graph limited to n <= {MAX_VERTICES}")


def _clique_cover_order(rows):
    """The vertices of a graph given by its adjacency bitmasks, as a
    first-fit clique cover (greedy coloring of the complement): sorted by
    degree descending with ties by lower index, then taken pass by pass,
    each pass taking every vertex left that is joined to all it took
    before; the blocks follow one another in the order found."""
    left = sorted(range(len(rows)), key=[r.bit_count() for r in rows]
                  .__getitem__, reverse=True)
    order = []
    while left:
        common, rest = -1, []      # common: joined to all taken this pass
        for v in left:
            if common >> v & 1:
                order.append(v)
                common &= rows[v]
            else:
                rest.append(v)
        left = rest
    return order


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def graph_from_cells(k, d, flat):
    """G(A) of the k^d array A with row-major entries `flat`: a vertex per
    label (i_1, ..., i_d, t), 1 <= t <= A(i_1, ..., i_d), in row-major order,
    u ~ v iff every index coordinate differs.  The A(cell) vertices of a
    cell share one row, built once per nonzero cell.  Raises
    ResourceLimitError as soon as the entries read sum past MAX_VERTICES,
    before any row is built."""
    cells = []
    n = 0
    for idx, a in zip(product(range(1, k + 1), repeat=d), flat):
        if a:
            n += a
            _check_order(n)
            cells.append((idx, a))
    # vertices sharing coordinate p with value x, per (p, x)
    shared = {}
    start = 0
    for idx, a in cells:
        block = ((1 << a) - 1) << start
        for key in enumerate(idx):
            shared[key] = shared.get(key, 0) | block
        start += a
    rows = []
    labels = []
    for idx, a in cells:
        row = (1 << n) - 1
        for key in enumerate(idx):
            row &= ~shared[key]
        rows += [row] * a
        labels += [idx + (t,) for t in range(1, a + 1)]
    return SimpleGraph.from_rows(rows, labels)


def build_graph(matrix):
    """G(A): the graph on the triples (i, j, t), 1 <= t <= A(i, j), in
    row-major order, adjacent iff i != i' and j != j'."""
    return graph_from_cells(matrix.k, 2, chain.from_iterable(matrix.entries))


def complement(g):
    full = (1 << g.n) - 1
    rows = [full & ~g.rows[v] & ~(1 << v) for v in range(g.n)]
    return SimpleGraph.from_rows(rows)


def complete_multipartite(sizes):
    """Complete multipartite graph; vertices grouped class by class."""
    if not sizes or any(s < 1 for s in sizes):
        raise PreconditionError("class sizes must be positive")
    n = sum(sizes)
    _check_order(n)
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
    _check_order(n)
    if n == 0:
        return SimpleGraph(0)
    r = min(r, n)
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return complete_multipartite(sizes)


def complete_graph(n):
    return turan_graph(n, max(n, 1))


def empty_graph(n):
    return SimpleGraph(n)


def cycle_graph(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# canonical labeling / isomorphism
# ---------------------------------------------------------------------------

def _refine(rows, cells, queue=None, last=-1):
    """Equitable refinement of an ordered partition into bitmask cells.

    Splitter-queue refinement (McKay 1981): a FIFO queue holds splitter
    masks, by default the cells themselves.  Each splitter w splits every
    non-singleton cell by the count (rows[v] & w).bit_count(); the
    fragments replace the cell in place, ascending by count, and each
    joins the queue.  The result is the coarsest equitable refinement,
    in an order that depends only on the graph and the input order, so
    relabeling the vertices relabels the result.  A partition that is
    equitable apart from one individualized vertex v needs only the
    queue [1 << v].  With `last`, a vertex mask, it returns None as soon
    as the last cell no longer meets it: the fragments of the last cell
    take its place, so it only shrinks, and no vertex that left it
    returns.
    """
    n = len(rows)
    cells = list(cells)
    queue = deque(cells if queue is None else queue)
    while queue and len(cells) < n:
        w = queue.popleft()
        out = []
        if not w & (w - 1):
            # one splitter vertex: counts 0 and 1 split c into c - N(w)
            # and c & N(w)
            nbr = rows[w.bit_length() - 1]
            for c in cells:
                hit = c & nbr
                if hit and hit != c:
                    out += (c ^ hit, hit)
                    queue += (c ^ hit, hit)
                else:
                    out.append(c)
        else:
            for c in cells:
                low = c & -c
                high = c ^ low
                if not high:
                    out.append(c)
                    continue
                if not high & (high - 1):
                    # two vertices: compare their two counts
                    a = (rows[low.bit_length() - 1] & w).bit_count()
                    b = (rows[high.bit_length() - 1] & w).bit_count()
                    if a == b:
                        out.append(c)
                    else:
                        pair = (low, high) if a < b else (high, low)
                        out += pair
                        queue += pair
                    continue
                groups = {}
                rest = c
                while rest:
                    low = rest & -rest
                    rest ^= low
                    key = (rows[low.bit_length() - 1] & w).bit_count()
                    groups[key] = groups.get(key, 0) | low
                if len(groups) == 1:
                    out.append(c)
                    continue
                for key in sorted(groups):
                    out.append(groups[key])
                    queue.append(groups[key])
        cells = out
        if not cells[-1] & last:
            return None
    return cells


def _cert_bits(rows, order):
    bits = idx = 0
    for a, u in enumerate(order):
        ru = rows[u]
        for v in order[a + 1:]:
            if ru >> v & 1:
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


def canonical_form(g):
    """Canonical certificate: equal certs iff isomorphic.

    Iterative refinement plus backtracking over the remaining cells; the
    certificate is (n, minimal adjacency bitstring over all canonical
    candidate orderings).  At each target cell only the first vertex of
    each twin class in the cell is individualized: swapping two twins is
    an automorphism that fixes every other vertex, hence the current
    partition, and it maps the skipped branch onto the kept one leaf for
    leaf, so the minimum is that of the full search.
    """
    if g.n > DEFAULT_CANON_MAX_N:
        raise ResourceLimitError(
            f"canonical_form limited to n <= {DEFAULT_CANON_MAX_N}")
    if g.n == 0:
        return (0, 0)
    return _canonical_search(g.rows, _refine(g.rows, [(1 << g.n) - 1]))


def _canonical_search(rows, cells):
    """`canonical_form` of nonempty `rows` from their refined unit cells."""
    twin_of = list(range(len(rows)))
    for first, later in _twin_chains(rows):
        twin_of[later] = twin_of[first]
    best = [None]

    def search(cells):
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            cert = _cert_bits(rows, [c.bit_length() - 1 for c in cells])
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        cell = cells[target]
        tried = set()
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if twin_of[v] in tried:
                continue
            tried.add(twin_of[v])
            search(_refine(rows, cells[:target] + [low, cell ^ low]
                           + cells[target + 1:], [low]))

    search(cells)
    return (len(rows), best[0])


def are_isomorphic(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    return canonical_form(g) == canonical_form(h)


def _partition_key(rows, cells):
    """An isomorphism invariant of a graph from its refined unit cells
    (`_refine` commutes with relabeling): for a discrete partition its
    one-leaf certificate, which is what `_canonical_search` returns for
    it; otherwise the equitable quotient, the cell sizes and each cell's
    neighbour count into each cell.  The first entry, the number of
    cells, tells the two kinds apart."""
    tops = [c.bit_length() - 1 for c in cells]
    if len(cells) == len(rows):
        return len(rows), _cert_bits(rows, tops)
    return (len(cells), *[c.bit_count() for c in cells],
            *[(rows[v] & c).bit_count() for v in tops for c in cells])


def _child_cells(rows, of_degree, mask):
    """`_refine(rows, [all])` of a child, or None once its new vertex, the
    last, has left the last cell, which then never holds it again.

    The child joins its new vertex to `mask` in a parent whose vertices of
    degree d form `of_degree[d]`, d = 0..n, and the new vertex has the
    child's maximum degree |mask|, as no parent vertex of that degree is
    in the mask.  So the child's degree cells, ascending, come from those
    masks, with each vertex of the mask one degree up; they are exactly
    the cells that the first splitter of [all] cuts and queues, in that
    order, so refinement seeded with them ends in the same cells."""
    deg = mask.bit_count()
    new = 1 << (len(rows) - 1)
    seed, below = [], 0     # below: the mask's vertices one degree down
    for d in range(deg):
        cell = of_degree[d] & ~mask | below
        below = of_degree[d] & mask
        if cell:
            seed.append(cell)
    seed.append(of_degree[deg] | below | new)
    return _refine(rows, seed, last=new)


def _augment(level, max_m, accept=None):
    """The children of the graphs in `level`, all on n vertices, one per
    isomorphism class of the graphs on n + 1 vertices with at most max_m
    edges whose canonical parent is in `level`, and that `accept` (a test
    of a child's rows, run before its refinement) takes.

    Grown by vertex augmentation with McKay's canonical deletion (1998):
    a child is kept only if its new vertex lies in the last cell of
    `_refine` of its unit partition.  Refinement commutes with
    relabeling, so for every such G and v in that cell, some mask of the
    representative of G - v yields a child isomorphic to G whose new
    vertex, the image of v, is kept.  The first splitter orders cells by
    ascending degree and later splits act in place, so that cell lies
    among the vertices of maximum degree, a cheaper test run first.  A
    mask with a later member of a parent twin class but not an earlier
    one is skipped too: swapping the two gives a smaller mask and a child
    isomorphic by a map that fixes the new vertex, so keeps it in the
    last cell, and such swaps reach a mask skipped for no class.

    A kept child is filed under `_partition_key` of the same cells, and
    is labelled by `_canonical_search` only when a second child has its
    key, and then both are.  Children with different keys are not
    isomorphic.  A key fixes the graph when its partition has n + 1
    cells, and also n: the one cell of two vertices is then a pair of
    twins, as every other cell is single and the partition equitable.
    So a second child with such a key is a duplicate and nothing is
    labelled.  Each class keeps its first child, and the children are
    listed in (key, certificate) order, where only the children that
    share a key need their certificates.
    """
    size = level[0].n + 1
    firsts = {}     # partition key -> rows and cells of its first child
    labelled = {}   # partition key -> {certificate: rows}, once shared
    for g in level:
        # the new vertex may join at most `room` parent vertices
        room = max_m - g.m
        if room < 0:
            continue
        chains = [(1 << a, 1 << b) for a, b in _twin_chains(g.rows)]
        # the new vertex has maximum degree iff its degree |mask| is at
        # least every parent degree and above those of the parent
        # vertices it joins
        degrees = [r.bit_count() for r in g.rows]
        top = max(degrees, default=0)
        of_degree = [0] * size
        for v, d in enumerate(degrees):
            of_degree[d] |= 1 << v
        for mask in range(1 << g.n):
            deg = mask.bit_count()
            if deg < top or deg > room or mask & of_degree[deg]:
                continue
            if any(mask & b and not mask & a for a, b in chains):
                continue
            new_rows = [r | (mask >> v & 1) << g.n
                        for v, r in enumerate(g.rows)]
            new_rows.append(mask)
            if accept is not None and not accept(new_rows):
                continue
            cells = _child_cells(new_rows, of_degree, mask)
            if cells is None:
                continue
            key = _partition_key(new_rows, cells)
            if key not in firsts:
                firsts[key] = new_rows, cells
            elif len(cells) < size - 1:
                if key not in labelled:
                    rows, first_cells = firsts[key]
                    labelled[key] = {
                        _canonical_search(rows, first_cells): rows}
                labelled[key].setdefault(
                    _canonical_search(new_rows, cells), new_rows)
    children = []
    for key in sorted(firsts):
        certs = labelled.get(key) or {None: firsts[key][0]}
        children += (SimpleGraph.from_rows(certs[c]) for c in sorted(certs))
    return children


def graph_levels(max_n):
    """Yield (n, all graphs on n vertices, one per isomorphism class) for
    n = 1..max_n, building each level once from the one before by
    `_augment` (see there for the method).

    Only the low half is generated: the children with 2m <= C(n, 2),
    from the parents with at most that many edges.  This loses no class,
    since such a G has its canonical parent G - v, with at most m edges,
    in the complete level n - 1.  Complementation maps classes one to
    one and m edges to C(n, 2) - m, so each graph above half is the
    complement of exactly one graph below half; those with exactly half
    are all generated, and none is complemented.  The level lists the
    low half in `_augment`'s order, then the complements of its members
    with 2m < C(n, 2), in the same order.
    """
    if max_n > ENUMERATION_MAX_N:
        raise ResourceLimitError(
            f"graph enumeration limited to n <= {ENUMERATION_MAX_N}")
    if max_n < 0:
        raise PreconditionError(f"need a vertex count >= 0, got {max_n}")
    level = [SimpleGraph(0)]
    for size in range(1, max_n + 1):
        # floor(C(size, 2) / 2) edges at most
        low = _augment(level, size * (size - 1) // 4)
        # 2m < C(n, 2)
        level = low + [complement(h) for h in low
                       if 4 * h.m < size * (size - 1)]
        yield size, level


def enumerate_graphs(n):
    """All graphs on exactly n vertices, one per isomorphism class: the
    last level of ``graph_levels(n)``, in its order (see there for that
    order and for which graphs are labelled)."""
    level = [SimpleGraph(0)]
    for _, level in graph_levels(n):
        pass
    return level


# ---------------------------------------------------------------------------
# maximum clique (bitset branch and bound)
# ---------------------------------------------------------------------------

def clique_number(g):
    """Size of a maximum clique, by branch and bound with a greedy
    coloring bound."""
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
    if n > MAX_VERTICES:
        raise ResourceLimitError(
            f"graph file has {n} > {MAX_VERTICES} vertices")
    if len(lines) - 1 != m:
        raise InputFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise InputFormatError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    g = SimpleGraph(n, edges)
    if g.m != m:
        raise InputFormatError(f"{m} edge lines name {g.m} distinct edges")
    return g


def to_graph6(g):
    """Standard graph6 encoding; an order past 62 is "~" and 3 bytes."""
    n = g.n
    out = [chr(63 + b) for b in
           ([n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63])]
    bits = [int(g.has_edge(u, v)) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(text):
    """Decode graph6, with or without ">>graph6<<"; an order past
    MAX_VERTICES, "~~" forms too, is refused before the body is read."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputFormatError("empty graph6 string")
    tildes = 0 if s[0] != "~" else 1 if s[1:2] != "~" else 2
    end = tildes + (1, 3, 6)[tildes]
    head = [ord(ch) - 63 for ch in s[tildes:end]]
    if len(head) != end - tildes or not all(0 <= v < 64 for v in head):
        raise InputFormatError(f"bad graph6 order {s[:end]!r}")
    n = sum(v << 6 * i for i, v in enumerate(reversed(head)))  # big-endian
    if n > MAX_VERTICES:
        raise ResourceLimitError(
            f"graph6 string has {n} > {MAX_VERTICES} vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[end:]
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
