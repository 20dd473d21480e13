"""d-dimensional generalization: graphs from tensors, d-fold colorability,
the join construction, perfect-matching counting, and the subdivided-K4
example whose complement is maximal 3-fold 4-colorable but imperfect.
"""

from __future__ import annotations

import json
from functools import cache, reduce
from itertools import islice, product
from operator import and_

from .coloring import _class_masks, _ordered_classes, count_colorings
from .errors import InputFormatError, PreconditionError, ResourceLimitError
from .graphcore import SimpleGraph, graph_from_cells
from .matrix import load_matrix, nonnegative_ints

MAX_TENSOR_CELLS = 10 ** 6
MATCHING_MAX_N = 24


def _check_cells(k, d):
    """Raise ResourceLimitError when a k^d tensor has more than
    MAX_TENSOR_CELLS cells, or d >= MAX_TENSOR_CELLS.bit_length() at any
    k: its graph costs time and memory linear in d, at k = 1 too.  The d
    test comes first, so k ** d is never computed for a huge d."""
    if d >= MAX_TENSOR_CELLS.bit_length() or k ** d > MAX_TENSOR_CELLS:
        raise ResourceLimitError(
            f"tensor limited to {MAX_TENSOR_CELLS} cells and d < "
            f"{MAX_TENSOR_CELLS.bit_length()} (k = {k}, d = {d})")


class ColorTensor:
    """Dense map {1..k}^d -> nonnegative integers, row-major storage."""

    __slots__ = ("k", "d", "entries")

    def __init__(self, k, d, entries_flat):
        k, d = nonnegative_ints((k, d))
        if k < 1 or d < 2:
            raise InputFormatError("need k >= 1 and d >= 2")
        _check_cells(k, d)
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
    return graph_from_cells(tensor.k, tensor.d, tensor.entries)


def is_dfold_colorable(g, d, k):
    """At least d pairwise distinct k-colorings."""
    return count_colorings(g, k, d) >= d


def recover_tensor(g, d, k):
    """Tensor with A(i_1, ..., i_d) = |C^1_{i_1} n ... n C^d_{i_d}| from
    the first d colorings in search order, the classes of each ordered by
    smallest vertex and padded with empty classes up to k.

    Reordering the classes of one coloring permutes the index values of one
    coordinate, which leaves G(A) unchanged up to isomorphism, so no
    alignment between the colorings is needed.  d >= 2 and k >= 1 are
    checked before any coloring is searched.
    """
    if d < 2 or k < 1:
        raise PreconditionError("need d >= 2 and k >= 1")
    _check_cells(k, d)
    cols = [_ordered_classes(masks)
            for masks in islice(_class_masks(g, k), d)]
    if len(cols) < d:
        raise PreconditionError(f"graph has fewer than {d} {k}-colorings")
    padded = [c + [0] * (k - len(c)) for c in cols]
    flat = [reduce(and_, cell).bit_count() for cell in product(*padded)]
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


def count_perfect_matchings(g):
    """Exact count by backtracking on the lowest unmatched vertex, memoized
    on the unmatched set (K_24: 75,025 sets, not 23!! matchings)."""
    if g.n > MATCHING_MAX_N:
        raise ResourceLimitError(f"limited to n <= {MATCHING_MAX_N}")
    if g.n % 2:
        return 0
    rows = g.rows
    full = (1 << g.n) - 1

    @cache
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
