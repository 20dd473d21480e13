"""d-dimensional generalization: graphs from tensors, d-fold colorability,
the join construction, perfect-matching counting, and the subdivided-K4
example whose complement is maximal 3-fold 4-colorable but imperfect.
"""

from __future__ import annotations

import json
from itertools import product

from .coloring import count_colorings, enumerate_colorings
from .errors import InputFormatError, PreconditionError, ResourceLimitError
from .graphcore import SimpleGraph, graph_from_labels
from .matrix import load_matrix, nonnegative_ints
from .maximality import is_maximal

MAX_TENSOR_CELLS = 10 ** 6
MATCHING_MAX_N = 24


class ColorTensor:
    """Dense map {1..k}^d -> nonnegative integers, row-major storage."""

    __slots__ = ("k", "d", "entries")

    def __init__(self, k, d, entries_flat):
        k, d = nonnegative_ints((k, d))
        if k < 1 or d < 2:
            raise InputFormatError("need k >= 1 and d >= 2")
        # k >= 2 and 2^d > MAX_TENSOR_CELLS: reject before computing k^d
        if (k > 1 and d >= MAX_TENSOR_CELLS.bit_length()
                or k ** d > MAX_TENSOR_CELLS):
            raise ResourceLimitError(
                f"k^d exceeds {MAX_TENSOR_CELLS} cells (k = {k}, d = {d})")
        flat = nonnegative_ints(entries_flat)
        if len(flat) != k ** d:
            raise InputFormatError(
                f"expected {k ** d} entries, got {len(flat)}")
        self.k = k
        self.d = d
        self.entries = flat

    def __getitem__(self, idx):
        """Value at a 1-based index tuple."""
        if len(idx) != self.d:
            raise PreconditionError(f"index must have {self.d} components")
        flat = 0
        for i in idx:
            if not 1 <= i <= self.k:
                raise PreconditionError(f"index component {i} out of range")
            flat = flat * self.k + (i - 1)
        return self.entries[flat]

    @property
    def order(self):
        return sum(self.entries)

    @classmethod
    def from_matrix(cls, matrix):
        flat = [x for row in matrix.entries for x in row]
        return cls(matrix.k, 2, flat)

    def to_json(self):
        return {"k": self.k, "d": self.d, "entries_flat": list(self.entries)}

    @classmethod
    def from_json(cls, obj):
        keys = ("k", "d", "entries_flat")
        if not isinstance(obj, dict) or any(key not in obj for key in keys):
            raise InputFormatError(
                'tensor JSON needs keys "k", "d" and "entries_flat"')
        return cls(*(obj[key] for key in keys))


def load_tensor(text):
    """Parse the tensor JSON {"k", "d", "entries_flat"}; any other input is
    read by `matrix.load_matrix` as a matrix, the tensor with d = 2."""
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if isinstance(obj, dict) and "d" in obj:
        return ColorTensor.from_json(obj)
    return ColorTensor.from_matrix(load_matrix(text))


def build_graph_d(tensor):
    """Graph on tuples (i_1, ..., i_d, s), 1 <= s <= A(i_1, ..., i_d), in
    row-major order; adjacency iff every index coordinate differs.
    Coincides with build_graph at d = 2."""
    cells = product(range(1, tensor.k + 1), repeat=tensor.d)
    return graph_from_labels(idx + (s,) for idx, a in zip(cells, tensor.entries)
                             for s in range(1, a + 1))


def is_dfold_colorable(g, d, k):
    """At least d pairwise distinct k-colorings."""
    return count_colorings(g, k, d) >= d


def is_maximal_dfold(g, d, k):
    """d-fold k-colorable, and every single-edge addition is not."""
    return is_maximal(g, k, d)


def recover_tensor(g, d, k):
    """Tensor with A(i_1, ..., i_d) = |C^1_{i_1} n ... n C^d_{i_d}| from
    the first d colorings in enumeration order.

    Classes of coloring 1 keep their enumeration order; classes of each
    later coloring are aligned to it greedily by largest intersection
    (ties by smallest vertex), then padded with empty classes up to k.
    """
    cols = enumerate_colorings(g, k, limit=d)
    if len(cols) < d:
        raise PreconditionError(f"graph has fewer than {d} {k}-colorings")
    base = [set(c) for c in cols[0].classes()]
    base += [set() for _ in range(k - len(base))]
    aligned = [base]
    for col in cols[1:]:
        classes = [set(c) for c in col.classes()]
        slots = [None] * k
        free = set(range(len(classes)))
        pairs = sorted(
            ((len(base[i] & classes[j]), i, j)
             for i in range(k) for j in range(len(classes))),
            key=lambda t: (-t[0], min(classes[t[2]], default=-1), t[1]))
        used_slots = set()
        for _, i, j in pairs:
            if i in used_slots or j not in free:
                continue
            slots[i] = classes[j]
            used_slots.add(i)
            free.discard(j)
        leftovers = sorted(free, key=lambda j: min(classes[j]))
        for i in range(k):
            if slots[i] is None:
                slots[i] = classes[leftovers.pop(0)] if leftovers else set()
        aligned.append(slots)
    flat = []
    for idx in product(range(k), repeat=d):
        common = aligned[0][idx[0]]
        for p in range(1, d):
            common = common & aligned[p][idx[p]]
        flat.append(len(common))
    return ColorTensor(k, d, flat)


def join(g1, g2):
    """Disjoint union plus all cross edges."""
    n1, n2 = g1.n, g2.n
    rows = []
    cross_hi = ((1 << n2) - 1) << n1
    for v in range(n1):
        rows.append(g1.rows[v] | cross_hi)
    lo = (1 << n1) - 1
    for v in range(n2):
        rows.append((g2.rows[v] << n1) | lo)
    return SimpleGraph.from_rows(rows)


def count_perfect_matchings(g, max_n=MATCHING_MAX_N):
    """Exact count by backtracking on the lowest unmatched vertex."""
    if g.n > max_n:
        raise ResourceLimitError(f"limited to n <= {max_n}")
    if g.n % 2:
        return 0
    rows = g.rows
    full = (1 << g.n) - 1

    def count(unmatched):
        if not unmatched:
            return 1
        v = (unmatched & -unmatched).bit_length() - 1
        rest = unmatched & ~(1 << v)
        total = 0
        cand = rows[v] & rest
        while cand:
            u = (cand & -cand).bit_length() - 1
            total += count(rest & ~(1 << u))
            cand &= cand - 1
        return total

    return count(full)


def seymour_example():
    """K4 with the two edges of a fixed matching each subdivided twice.

    Vertices 0..3 are the original K4 vertices; 4, 5 subdivide edge 01 and
    6, 7 subdivide edge 23.  Triangle-free, exactly 3 perfect matchings,
    edge-deletion-critical for that count, and no anticlique of order 4.
    """
    edges = [(0, 4), (4, 5), (5, 1),
             (2, 6), (6, 7), (7, 3),
             (0, 2), (0, 3), (1, 2), (1, 3)]
    return SimpleGraph(8, edges)
