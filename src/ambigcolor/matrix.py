"""k x k nonnegative integer matrices and their classification.

The four matrix classes (tiny, small, special, normal) are the certificate
vocabulary for maximal ambiguous k-colorability; "desirable" means
belonging to one of them.  This module also houses full indecomposability,
the nonzero-walk witness sequence, the balance flags and special variants
used by the extremal machinery, and the generator of the desirable
matrices of one entry sum, one per relabeling.  Last, it enumerates the
matrix classes of one entry sum under independent row and column
permutations and transpose, and gives any matrix the key of its class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product

from .errors import InputFormatError, PreconditionError, ResourceLimitError

MAX_K = 32
DEFAULT_ENUM_CAP = 1_000_000    # matrices yielded by enumerate_desirable


def nonnegative_ints(values):
    """The values as a tuple, if each is a nonnegative int.  Anything else,
    bools and floats (integral or not) included, raises InputFormatError:
    the one entry check of matrices and tensors."""
    try:
        values = tuple(values)
    except TypeError:
        raise InputFormatError(f"expected a list, got {values!r}") from None
    for x in values:
        if type(x) is not int or x < 0:
            raise InputFormatError(
                f"expected a nonnegative integer, got {x!r}")
    return values


class ColorMatrix:
    """Immutable k x k matrix of nonnegative integers, 1-based access."""

    __slots__ = ("k", "entries")

    def __init__(self, entries):
        try:
            rows = tuple(map(nonnegative_ints, entries))
        except TypeError:
            raise InputFormatError("matrix entries must be a list of rows") \
                from None
        k = len(rows)
        if k < 1:
            raise InputFormatError("matrix must have dimension k >= 1")
        if k > MAX_K:
            raise InputFormatError(f"matrix dimension {k} exceeds limit {MAX_K}")
        if any(len(r) != k for r in rows):
            raise InputFormatError("matrix must be square (ragged input)")
        self.k = k
        self.entries = rows

    def __getitem__(self, ij):
        i, j = ij
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise PreconditionError(f"index ({i},{j}) out of range (1-based)")
        return self.entries[i - 1][j - 1]

    @property
    def order(self):
        """Sum of all entries; equals |V(G(A))|."""
        return sum(sum(r) for r in self.entries)

    def row_sums(self):
        return [sum(r) for r in self.entries]

    def col_sums(self):
        return [sum(col) for col in zip(*self.entries)]

    def transpose(self):
        return ColorMatrix(list(zip(*self.entries)))

    def diagonal(self):
        return [self.entries[i][i] for i in range(self.k)]

    def submatrix(self, indices):
        """Principal submatrix on the given 0-based indices (sorted)."""
        idx = sorted(indices)
        return [[self.entries[i][j] for j in idx] for i in idx]

    def __eq__(self, other):
        return isinstance(other, ColorMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ColorMatrix({[list(r) for r in self.entries]})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"k": self.k, "entries": [list(r) for r in self.entries]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "k" not in obj or "entries" not in obj:
            raise InputFormatError('matrix JSON needs keys "k" and "entries"')
        m = cls(obj["entries"])
        if type(obj["k"]) is not int or m.k != obj["k"]:
            raise InputFormatError(f'"k"={obj["k"]} does not match {m.k} rows')
        return m

    def to_text(self):
        lines = [str(self.k)]
        lines.extend(" ".join(str(x) for x in row) for row in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        tokens = text.split()
        if not tokens:
            raise InputFormatError("empty matrix file")
        try:
            k = int(tokens[0])
            values = [int(t) for t in tokens[1:]]
        except ValueError as exc:
            raise InputFormatError("matrix file must contain integers") from exc
        if len(values) != k * k:
            raise InputFormatError(f"expected {k * k} entries, got {len(values)}")
        return cls([values[i * k:(i + 1) * k] for i in range(k)])


def load_matrix(text):
    """Parse either the JSON or the whitespace text matrix format."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:   # includes over-long integer literals
            raise InputFormatError(f"bad JSON: {exc}") from exc
        return ColorMatrix.from_json(obj)
    return ColorMatrix.from_text(text)


# ---------------------------------------------------------------------------
# classification verdict
# ---------------------------------------------------------------------------

TINY = "Tiny"
SMALL = "Small"
SPECIAL = "Special"
NORMAL = "Normal"
NOT_DESIRABLE = "NotDesirable"

VARIANT_A = "A"
VARIANT_B = "B"
VARIANT_C = "C"
VARIANT_PLAIN = "Plain"
VARIANT_NA = "NotApplicable"


@dataclass(frozen=True)
class MatrixClass:
    verdict: str
    special_variant: str = VARIANT_NA
    variants: tuple = ()          # all special variants met, in (a),(b),(c) order
    r: int | None = None          # size of the fully indecomposable block
    mininormal: bool = False
    balance: tuple = (False, False)
    witness: str | None = None    # reason string for NotDesirable

    @property
    def desirable(self):
        return self.verdict != NOT_DESIRABLE

    def to_json(self):
        return {
            "verdict": self.verdict,
            "special_variant": self.special_variant,
            "variants": list(self.variants),
            "r": self.r,
            "mininormal": self.mininormal,
            "row_sum_balanced": self.balance[0],
            "column_sum_balanced": self.balance[1],
            "witness": self.witness,
        }


@dataclass(frozen=True)
class WitnessSequence:
    """Index sequence f_0, ..., f_l certifying a nonzero closed walk."""
    indices: tuple

    def __post_init__(self):
        if len(self.indices) < 4:
            raise PreconditionError("witness sequence needs l >= 3")

    @property
    def length(self):
        return len(self.indices) - 1

    def check(self, m_entries):
        """Check the defining invariants against a matrix (l >= 3 holds by
        construction): indices in 1..r, no index repeated in consecutive
        places, every step on a nonzero entry, and the walk ending as it
        starts; raise PreconditionError naming the first that fails."""
        if isinstance(m_entries, ColorMatrix):
            m_entries = m_entries.entries
        f = self.indices
        r = len(m_entries)
        if not all(1 <= i <= r for i in f):
            raise PreconditionError(f"indices must lie in 1..{r}")
        for h in range(1, len(f)):
            if f[h - 1] == f[h]:
                raise PreconditionError("consecutive indices equal")
            if m_entries[f[h - 1] - 1][f[h] - 1] == 0:
                raise PreconditionError("zero entry step")
        if (f[0], f[1]) != (f[-2], f[-1]):
            raise PreconditionError("endpoints do not repeat start")


# ---------------------------------------------------------------------------
# full indecomposability
# ---------------------------------------------------------------------------

def _row_masks(m_entries):
    """Bitmask of the nonzero columns of each row of a square matrix given
    as a ColorMatrix or a nested list of rows."""
    if isinstance(m_entries, ColorMatrix):
        m_entries = m_entries.entries
    r = len(m_entries)
    masks = []
    for row in m_entries:
        if len(row) != r:
            raise PreconditionError("matrix must be square")
        mask = 0
        for j, x in enumerate(row):
            if x != 0:
                mask |= 1 << j
        masks.append(mask)
    return masks


def _search(succ, start):
    """Breadth-first search from `start` in the digraph whose successor
    sets are the bitmasks `succ`: the predecessor of every reached vertex
    (None for `start`), successors visited in ascending order."""
    parent = {start: None}
    seen = 1 << start
    queue = [start]
    for p in queue:
        new = succ[p] & ~seen
        seen |= new
        while new:
            q = (new & -new).bit_length() - 1
            new &= new - 1
            parent[q] = p
            queue.append(q)
    return parent


def is_fully_indecomposable(m_entries):
    """No s x (r-s) all-zero submatrix for any s in {1, ..., r-1}, and a
    nonzero entry if r = 1.

    Frobenius-Konig: an r x r matrix is fully indecomposable iff its
    support has a perfect matching and, with every column renamed by the
    row matched to it, the digraph i -> i' (M(i, i') != 0) is strongly
    connected.  Column permutations keep full indecomposability, so any
    one augmenting-path matching decides it; strong connectivity is one
    search forward and one backward from row 0.  Accepts a ColorMatrix
    or a nested list of rows.
    """
    succ = _row_masks(m_entries)
    r = len(succ)
    if not r:
        return True
    adj = [[j for j in range(r) if mask >> j & 1] for mask in succ]
    size, match_right = _bipartite_matching(adj, r, r)
    if size < r:
        return False
    return _strongly_connected([sum(1 << match_right[j] for j in row)
                                for row in adj])


def _strongly_connected(succ):
    """Whether the digraph on 0..r-1, r >= 1, whose successor sets are the
    bitmasks `succ` is strongly connected: one search forward and one
    backward from vertex 0."""
    r = len(succ)
    if len(_search(succ, 0)) < r:
        return False
    pred = [0] * r
    for i, mask in enumerate(succ):
        while mask:
            q = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            pred[q] |= 1 << i
    return len(_search(pred, 0)) == r


def _bipartite_matching(adj, n_left, n_right):
    """Maximum matching by augmenting paths; returns match_right list."""
    match_right = [-1] * n_right

    def augment(u, visited):
        for v in adj[u]:
            if not visited[v]:
                visited[v] = True
                if match_right[v] == -1 or augment(match_right[v], visited):
                    match_right[v] = u
                    return True
        return False

    size = sum(augment(u, [False] * n_right) for u in range(n_left))
    return size, match_right


def witness_sequence(m_entries, i, j):
    """Closed nonzero walk (i, j, ..., i, j) through a fully indecomposable
    matrix; indices are 1-based.

    The walk back from j to i is a shortest one, read off the predecessor
    map of the search that tests full indecomposability, run from j on
    the support digraph p -> q (M(p, q) != 0).  Raises PreconditionError
    when M(i, j) = 0 or no such walk exists; the latter means the matrix
    is not fully indecomposable.  Accepts a ColorMatrix or a nested list
    of rows.
    """
    succ = _row_masks(m_entries)
    r = len(succ)
    if i == j:
        raise PreconditionError("need i != j")
    if not (1 <= i <= r and 1 <= j <= r):
        raise PreconditionError("indices out of range")
    if not succ[i - 1] >> (j - 1) & 1:
        raise PreconditionError(f"M({i},{j}) = 0")
    parent = _search(succ, j - 1)
    if i - 1 not in parent:
        raise PreconditionError(
            f"no nonzero walk leads from {j} back to {i}: "
            "the matrix is not fully indecomposable")
    walk = [i - 1]
    while walk[-1] != j - 1:
        walk.append(parent[walk[-1]])
    # i, j, ..., i, j, 1-based; WitnessSequence.check holds: M(i, j) != 0
    # and each later step is a search-tree edge p -> q, q != p
    return WitnessSequence(tuple([i] + [p + 1 for p in reversed(walk)] + [j]))


# ---------------------------------------------------------------------------
# class predicates
# ---------------------------------------------------------------------------

def balance_flags(matrix):
    """(row-sum-balanced, column-sum-balanced): all sums pairwise differ
    by at most 1."""
    rs, cs = matrix.row_sums(), matrix.col_sums()
    return (max(rs) - min(rs) <= 1, max(cs) - min(cs) <= 1)


def _off_diagonal_entries(matrix):
    return [(i, j, matrix.entries[i][j])
            for i in range(matrix.k) for j in range(matrix.k)
            if i != j and matrix.entries[i][j] != 0]


def _variants(matrix, entry, balance):
    """All of (a)/(b)/(c) that a special matrix meets, in that order, given
    its one off-diagonal entry (i, j, 1), 0-based, and its balance flags."""
    i, j, _ = entry
    diag = matrix.diagonal()
    alpha = matrix.order // matrix.k
    out = []
    # (a): row-sum-balanced and row sum at the off-diagonal column index
    # equals floor(n/k) (that row sum is just the diagonal entry A(j, j))
    if balance[0] and diag[j] == alpha:
        out.append(VARIANT_A)
    # (b): the transpose is (a)-special (column i holds only A(i, i))
    if balance[1] and diag[i] == alpha:
        out.append(VARIANT_B)
    # (c): A(i,i) = A(j,j) = alpha - 1, all other diagonal entries in
    # {alpha, alpha + 1} with alpha + 1 attained at least once
    others = [x for p, x in enumerate(diag) if p not in (i, j)]
    if (diag[i] == diag[j] == alpha - 1
            and all(x in (alpha, alpha + 1) for x in others)
            and alpha + 1 in others):
        out.append(VARIANT_C)
    return tuple(out)


def special_variants(matrix):
    """All of (a)/(b)/(c) that a special matrix meets, in that order."""
    off = _off_diagonal_entries(matrix)
    if 0 in matrix.diagonal() or len(off) != 1 or off[0][2] != 1:
        raise PreconditionError("matrix is not special")
    return _variants(matrix, off[0], balance_flags(matrix))


def classify(matrix):
    """Unique verdict among Tiny / Small / Special / Normal / NotDesirable,
    decided from one read each of the diagonal, the off-diagonal support
    and the margins.

    The four desirable classes are mutually exclusive: tiny and small are
    diagonal with different zero counts, special has a zero row in any
    candidate block, and normal needs a fully indecomposable block.  That
    block is forced: every row and column of a fully indecomposable block
    of size >= 2 has an off-diagonal nonzero, and every nonzero
    off-diagonal entry of A lies in it, so its index set is exactly the
    set of indices incident to some nonzero off-diagonal entry.  The block
    is tested only under a positive diagonal, which is a perfect matching
    of its support, so full indecomposability is strong connectivity of
    the support digraph; the block is read as row bitmasks on its own
    indices, straight from the off-diagonal entries.
    """
    balance = balance_flags(matrix)
    diag = matrix.diagonal()
    off = _off_diagonal_entries(matrix)
    if not off:
        zeros = diag.count(0)
        twos = diag.count(2)
        if twos == 1 and max(diag) <= 2 and zeros >= 2:
            return MatrixClass(TINY, balance=balance)
        if twos >= 1 and max(diag) <= 2 and zeros == 1:
            return MatrixClass(SMALL, balance=balance)
        if zeros >= 2:
            reason = ("diagonal with >= 2 zero entries but not tiny: "
                      f"needs exactly one entry 2 and all <= 1, diagonal {diag}")
        elif zeros == 1:
            reason = ("diagonal with exactly one zero entry but not small: "
                      f"needs >= one 2 and all <= 2, diagonal {diag}")
        else:
            reason = "diagonal with no zero entry (neither tiny nor small)"
        return MatrixClass(NOT_DESIRABLE, balance=balance, witness=reason)
    if 0 in diag:
        return MatrixClass(
            NOT_DESIRABLE, balance=balance,
            witness="off-diagonal entries present but a diagonal entry is 0")
    if len(off) == 1 and off[0][2] == 1:
        variants = _variants(matrix, off[0], balance)
        primary = variants[0] if variants else VARIANT_PLAIN
        return MatrixClass(SPECIAL, special_variant=primary,
                           variants=variants, balance=balance)
    block = sorted({x for i, j, _ in off for x in (i, j)})
    pos = {x: p for p, x in enumerate(block)}
    succ = [0] * len(block)
    for i, j, _ in off:
        succ[pos[i]] |= 1 << pos[j]
    if _strongly_connected(succ):
        r = len(block)
        # the block is [[1, 1], [1, 1]]
        mini = (r == 2 and all(x == 1 for _, _, x in off)
                and diag[block[0]] == diag[block[1]] == 1
                and balance == (True, True)
                and 2 * matrix.k <= matrix.order < 3 * matrix.k)
        return MatrixClass(NORMAL, r=r, mininormal=mini, balance=balance)
    if len(off) == 1:
        reason = (f"single off-diagonal entry {off[0][2]} != 1 "
                  "and no fully indecomposable block")
    else:
        reason = ("off-diagonal support does not form a fully "
                  "indecomposable block")
    return MatrixClass(NOT_DESIRABLE, balance=balance, witness=reason)


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------

def _positive_parts(total, parts):
    """Nonincreasing tuples of `parts` positive ints summing to `total`."""
    # _partitions needs a part, and total < parts would make one negative
    if parts == 0:
        if total == 0:
            yield ()
    elif total >= parts:
        for p in _partitions(total - parts, parts):
            yield tuple(x + 1 for x in p)


def _placed(block, diag):
    """The matrix with the square `block` on the leading indices and the
    entries of `diag` on the rest of the diagonal."""
    r, k = len(block), len(block) + len(diag)
    entries = [list(row) + [0] * (k - r) for row in block]
    entries += [[0] * (r + i) + [x] + [0] * (k - r - i - 1)
                for i, x in enumerate(diag)]
    return ColorMatrix(entries)


def _tiny_matrices(k, n):
    # the diagonal (2, 1, ..., 1, 0, ..., 0): n - 2 ones, >= 2 zeros
    if 2 <= n <= k - 1:
        yield _placed((), (2,) + (1,) * (n - 2) + (0,) * (k - n + 1))


def _small_matrices(k, n):
    # the diagonal (2, ..., 2, 1, ..., 1, 0): n - k + 1 twos, one zero
    twos = n - k + 1
    if 1 <= twos <= k - 1:
        yield _placed((), (2,) * twos + (1,) * (k - 1 - twos) + (0,))


def _special_matrices(k, n):
    # the off-diagonal 1 at (1, 2); A(1,1) and A(2,2) free, the rest of
    # the diagonal nonincreasing
    if k < 2:
        return
    for a in range(1, n):
        for b in range(1, n - a):
            for diag in _positive_parts(n - 1 - a - b, k - 2):
                yield _placed(((a, 1), (0, b)), diag)


def _normal_matrices(k, n):
    # each r x r block on the leading indices, with a positive diagonal
    # and a strongly connected off-diagonal support, so fully
    # indecomposable (Frobenius-Konig); the supports are walked by size,
    # and the mass left over is spread over the support and the diagonal,
    # each at least 1; the rest of the diagonal nonincreasing
    for r in range(2, k + 1):
        top = n - (k - r)       # the most mass the block can hold
        cells = [(p, q) for p in range(r) for q in range(r) if p != q]
        diagonal = tuple((p, p) for p in range(r))
        supports = []
        for size in range(r, top - r + 1):
            for support in combinations(cells, size):
                succ = [0] * r
                for p, q in support:
                    succ[p] |= 1 << q
                if _strongly_connected(succ):
                    supports.append(support + diagonal)
        for m_sum in range(2 * r, top + 1):
            diags = list(_positive_parts(n - m_sum, k - r))
            for spots in supports:
                extra = m_sum - len(spots)
                if extra < 0:
                    break       # the supports come by size
                for spread in _bounded_rows(extra, [extra] * len(spots),
                                            [False] * len(spots)):
                    m = [[0] * r for _ in range(r)]
                    for (p, q), x in zip(spots, spread):
                        m[p][q] = x + 1
                    for diag in diags:
                        yield _placed(m, diag)


def _mininormal_matrices(k, n):
    # M is forced to the all-ones 2x2 block; balance and the 2k <= n < 3k
    # window are re-checked through classify
    if not 2 * k <= n < 3 * k or k < 2:
        return
    for diag in _positive_parts(n - 4, k - 2):
        m = _placed(((1, 1), (1, 1)), diag)
        if classify(m).mininormal:
            yield m


def enumerate_desirable(k, n):
    """Yield the desirable k x k matrices with entry sum n, one per orbit
    under simultaneous row and column permutation PAP^T (a relabeling of
    G(A), which keeps classify's verdict): the tiny, then the small,
    special and normal ones.  The normal block sits on the leading
    indices but stays labeled, so a normal orbit with an r x r block may
    appear up to r! times; graph-level deduplication happens downstream.
    A normal block is built from each strongly connected off-diagonal
    support that fits in n, so a call's work is bounded by the supports
    it tests plus the matrices it yields.  Raises ResourceLimitError when
    the matrices yielded pass DEFAULT_ENUM_CAP; k must lie in 1..MAX_K."""
    if not 1 <= k <= MAX_K or n < 0:
        raise PreconditionError(f"need k in 1..{MAX_K}, n >= 0")
    parts = (_tiny_matrices(k, n), _small_matrices(k, n),
             _special_matrices(k, n), _normal_matrices(k, n))
    for count, m in enumerate(chain.from_iterable(parts), 1):
        if count > DEFAULT_ENUM_CAP:
            raise ResourceLimitError(
                f"enumerate_desirable exceeded cap {DEFAULT_ENUM_CAP}")
        yield m


# ---------------------------------------------------------------------------
# matrix classes: orbits under row and column permutations and transpose
# ---------------------------------------------------------------------------

def _pairs(sizes):
    """Sum of C(x, 2) over the sizes: the pairs inside parts of those
    sizes."""
    return sum(x * (x - 1) // 2 for x in sizes)


def _partitions(total, parts):
    """Nonincreasing tuples of `parts` nonnegative ints summing to `total`,
    in descending lexicographic order; needs parts >= 1."""
    return _bounded_rows(total, [total] * parts,
                         [False] + [True] * (parts - 1))


def _runs(sums):
    """(start, stop) of each run of equal values in a sorted tuple."""
    starts = [i for i in range(len(sums)) if i == 0 or sums[i] != sums[i - 1]]
    return list(zip(starts, starts[1:] + [len(sums)]))


def _row_orders(sums):
    """Every row order that permutes rows only within runs of equal sums.
    A run of sum 0 holds only zero rows, which are all equal, so it keeps
    its identity order."""
    return [tuple(chain.from_iterable(parts)) for parts in
            product(*([range(a, b)] if sums[a] == 0
                      else permutations(range(a, b))
                      for a, b in _runs(sums)))]


def _keys(rows, row_orders, col_runs):
    """The column sequence of the table `rows` under each row order given,
    with the columns sorted descending within each run of `col_runs`;
    the largest is the table's key under those symmetries."""
    for order in row_orders:
        cols = list(zip(*(rows[i] for i in order)))
        yield tuple(chain.from_iterable(sorted(cols[a:b], reverse=True)
                                        for a, b in col_runs))


def _margin_pairs(k, n):
    """Every pair (r, c) of nonincreasing k-part row and column sums with
    total n and c <= r lexicographically; c > r is the transpose."""
    sums = list(_partitions(n, k))
    for i, r in enumerate(sums):
        for c in sums[i:]:
            yield r, c


def _bounded_rows(total, cap, tied, j=0, prev=0, room=None, head=()):
    """Rows `head` + (entries from position j < len(cap) on, summing to
    `total`), entry j at most cap[j], and at most the entry before it
    where tied[j].  `room`, passed down, is sum(cap[j:])."""
    room = (sum(cap) if room is None else room) - cap[j]
    top = min(total, cap[j], prev if tied[j] else total)
    if j == len(cap) - 1:
        if total <= top:
            yield head + (total,)
        return
    # the entries after j add at most `room`, and at most x each when
    # all of them are tied
    low = max(total - room, 0)
    if tied[-1] and all(tied[j + 1:]):
        low = max(low, -(-total // (len(cap) - j)))
    for x in range(top, low - 1, -1):
        yield from _bounded_rows(total - x, cap, tied, j + 1, x, room,
                                 head + (x,))


def _margin_classes(r, c, inner=None):
    """One table per class with row sums r and column sums c, as a tuple
    of rows (see matrix_classes); when `inner` is given, only the tables
    whose entries m have sum C(m, 2) = inner."""
    k = len(r)
    row_orders = _row_orders(r)
    col_runs = _runs(c)
    # the most that rows i.. can add to sum C(m, 2): C(r_i, 2) each
    rest = [_pairs(r[i:]) for i in range(k)]
    # the columns of a kept table are nonincreasing within each run of
    # equal c; tied[j]: column j equals column j - 1 on the rows so far
    start = [False] + [c[j] == c[j - 1] for j in range(1, k)]

    def fill(i, cap, tied, rows, got):
        if inner is not None and not got <= inner <= got + rest[i]:
            return
        if i == k - 1:
            # tied columns have equal sums, so the forced last row keeps ties
            last = tuple(cap)
            if inner is None or got + _pairs(last) == inner:
                yield rows + (last,)
            return
        for row in _bounded_rows(r[i], cap, tied):
            step = 0 if inner is None else _pairs(row)
            yield from fill(i + 1, [a - x for a, x in zip(cap, row)],
                            [t and row[j] == row[j - 1]
                             for j, t in enumerate(tied)], rows + (row,),
                            got + step)

    for rows in fill(0, list(c), start, (), 0):
        cols = tuple(zip(*rows))
        if any(key > cols for key in _keys(rows, row_orders, col_runs)):
            continue
        if r == c and any(key > cols
                          for key in _keys(cols, row_orders, col_runs)):
            continue
        yield rows


def matrix_classes(k, n):
    """One k x k matrix with entry sum n per class, where a class is an
    orbit under independent row and column permutations and transpose.

    Margin-based: for each nonincreasing row-sum vector r and each
    nonincreasing column-sum vector c <= r (lexicographically), the
    tables with margins (r, c) are filled row by row, the last row
    forced.  A table T is kept iff its column sequence equals its key:
    the largest, over the row permutations that fix r, of T's columns
    sorted descending within each run of equal c.  When r = c the key
    of T must also be at least that of its transpose.  Each matrix
    yielded is its own `class_key`.  k must lie in 1..MAX_K.
    """
    if not 1 <= k <= MAX_K or n < 0:
        raise PreconditionError(f"need k in 1..{MAX_K}, n >= 0")
    for r, c in _margin_pairs(k, n):
        for rows in _margin_classes(r, c):
            yield ColorMatrix(rows)


def class_key(m):
    """The canonical key of m's class under independent row and column
    permutations and transpose: the rows, as a tuple of tuples, of the one
    matrix that `matrix_classes` yields for that class.  Two matrices have
    the same key iff they lie in the same class, and then their graphs
    G(A) are isomorphic."""
    best = None
    for rows in (m.entries, tuple(zip(*m.entries))):
        r = [sum(row) for row in rows]
        c = [sum(col) for col in zip(*rows)]
        by_r = sorted(range(m.k), key=r.__getitem__, reverse=True)
        by_c = sorted(range(m.k), key=c.__getitem__, reverse=True)
        rs, cs = tuple(r[i] for i in by_r), tuple(c[j] for j in by_c)
        if cs > rs:
            continue
        table = [tuple(rows[i][j] for j in by_c) for i in by_r]
        key = max(_keys(table, _row_orders(rs), _runs(cs)))
        if best is None or key > best:
            best = key
    return tuple(zip(*best))
