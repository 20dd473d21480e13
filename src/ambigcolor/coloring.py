"""Enumeration and counting of k-colorings.

A k-coloring is a partition of the vertex set into at most k nonempty
anticliques.  One backtracker finds them all; every coloring question
(counting, enumeration, chromatic number, ambiguity, d-fold colorability,
maximality) goes through it.  Partitions are handed out canonically as
restricted-growth strings over the input's vertex order, so distinct
Coloring values are exactly distinct unordered partitions.  The empty
graph has exactly one coloring (the empty partition) for every k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import PreconditionError, ResourceLimitError

MAX_N = 32


@dataclass(frozen=True)
class Coloring:
    """Class assignment as a restricted-growth string (class indices appear
    in first-use order)."""
    rgs: tuple

    @property
    def num_classes(self):
        return max(self.rgs) + 1 if self.rgs else 0

    def classes(self):
        """Vertex classes, ordered by smallest member (= first-use order)."""
        out = [[] for _ in range(self.num_classes)]
        for v, c in enumerate(self.rgs):
            out[c].append(v)
        return out

    def class_sets(self):
        return [frozenset(c) for c in self.classes()]

    def check_anticliques(self, g):
        for cls in self.classes():
            for a in range(len(cls)):
                for b in range(a + 1, len(cls)):
                    assert not g.has_edge(cls[a], cls[b]), \
                        f"class {cls} is not an anticlique"
        return True

    def to_text(self):
        """One line per class, vertices space-separated, classes sorted by
        smallest member."""
        return "\n".join(" ".join(str(v) for v in cls)
                         for cls in self.classes()) + "\n"


def _class_masks(g, k):
    """Yield every k-coloring of g once, as a list of k class bitmasks
    (empty classes are 0).  The list is reused between yields.

    Backtracks over one static vertex order, degree descending with ties
    by lower index; the vertex at depth i joins a class already opened or
    opens the next one, so each partition is reached exactly once.
    Raises ResourceLimitError above MAX_N vertices.
    """
    n, rows = g.n, g.rows
    if n > MAX_N:
        raise ResourceLimitError(f"coloring search limited to n <= {MAX_N}")
    if k < 0:
        raise PreconditionError("need k >= 0")
    masks = [0] * k
    if n == 0:
        yield masks
        return
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    nbrs = [rows[v] for v in order]
    bits = [1 << v for v in order]
    assign = [0] * n
    opened = [0] * (n + 1)     # opened[i]: classes used by depths < i
    i = c = 0
    while True:
        used = opened[i]
        limit = used + 1 if used < k else k
        nb = nbrs[i]
        while c < limit and nb & masks[c]:
            c += 1
        if c < limit:
            assign[i] = c
            masks[c] |= bits[i]
            opened[i + 1] = used + (c == used)
            i += 1
            c = 0
            if i < n:
                continue
            yield masks
        # backtrack: undo the deepest assignment and try its next class
        if i == 0:
            return
        i -= 1
        c = assign[i]
        masks[c] ^= bits[i]
        c += 1


def _rgs(masks, n):
    """Restricted-growth string of a partition given by class bitmasks."""
    rgs = [0] * n
    classes = sorted((m for m in masks if m), key=lambda m: m & -m)
    for c, m in enumerate(classes):
        while m:
            rgs[(m & -m).bit_length() - 1] = c
            m &= m - 1
    return tuple(rgs)


def iter_colorings(g, k):
    """All k-colorings, each once, in the order `_class_masks` finds them
    (not lexicographic in the restricted-growth strings)."""
    for masks in _class_masks(g, k):
        yield Coloring(_rgs(masks, g.n))


def enumerate_colorings(g, k, limit=None):
    """Up to `limit` distinct colorings in deterministic order; exhaustive
    when fewer exist."""
    if limit is not None and limit < 1:
        raise PreconditionError("need limit >= 1")
    return list(islice(iter_colorings(g, k), limit))


def count_colorings(g, k, cap):
    """Number of distinct k-colorings, saturating at `cap`."""
    if cap < 1:
        raise PreconditionError("need cap >= 1")
    return sum(1 for _ in islice(_class_masks(g, k), cap))


def chromatic_number(g):
    """Least k admitting a k-coloring (0 for the empty graph)."""
    k = 0
    while count_colorings(g, k, 1) == 0:
        k += 1
    return k


def is_ambiguously_colorable(g, k):
    """At least two distinct k-colorings."""
    return count_colorings(g, k, 2) >= 2


def is_uniquely_colorable(g, k):
    """Exactly one k-coloring."""
    return count_colorings(g, k, 2) == 1
