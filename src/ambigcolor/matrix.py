"""k x k nonnegative integer matrices and their classification.

The four matrix classes (tiny, small, special, normal) are the certificate
vocabulary for maximal ambiguous k-colorability; "desirable" means
belonging to one of them.  This module also houses full indecomposability,
the nonzero-walk witness sequence, the balance flags and special variants
used by the extremal machinery, and the exhaustive generator of desirable
matrices with a prescribed entry sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import InputFormatError, PreconditionError, ResourceLimitError

MAX_K = 32
DEFAULT_SUBSET_BOUND = 20
DEFAULT_ENUM_CAP = 1_000_000


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
        return [sum(r[j] for r in self.entries) for j in range(self.k)]

    def transpose(self):
        return ColorMatrix(list(zip(*self.entries)))

    def is_diagonal(self):
        return all(self.entries[i][j] == 0
                   for i in range(self.k) for j in range(self.k) if i != j)

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
        """Assert the three defining invariants against a matrix."""
        if isinstance(m_entries, ColorMatrix):
            m_entries = m_entries.entries
        f = self.indices
        assert self.length >= 3
        for h in range(1, len(f)):
            assert f[h - 1] != f[h], "consecutive indices equal"
            assert m_entries[f[h - 1] - 1][f[h] - 1] != 0, "zero entry step"
        assert (f[0], f[1]) == (f[-2], f[-1]), "endpoints do not repeat start"


# ---------------------------------------------------------------------------
# full indecomposability
# ---------------------------------------------------------------------------

def is_fully_indecomposable(m_entries, subset_bound=DEFAULT_SUBSET_BOUND,
                            method="subset"):
    """No s x (r-s) all-zero submatrix for any s in {1, ..., r-1}.

    ``method="subset"`` enumerates all 2^r - 2 proper row subsets (the
    reference algorithm); ``method="matching"`` uses the polynomial check
    that every (i, j) minor has a bipartite support matching.
    For r = 1 the convention is: true iff the single entry is nonzero.
    Accepts a ColorMatrix or a nested list of rows.
    """
    if isinstance(m_entries, ColorMatrix):
        m_entries = m_entries.entries
    rows = [list(r) for r in m_entries]
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise PreconditionError("matrix must be square")
    if r == 1:
        return rows[0][0] != 0
    if method == "matching":
        return _fully_indecomposable_matching(rows)
    if method != "subset":
        raise PreconditionError(f"unknown method {method!r}")
    if r > subset_bound:
        raise ResourceLimitError(
            f"subset enumeration limited to r <= {subset_bound}; "
            "use method='matching'")
    # zero_mask[i]: bitmask of columns j with M(i, j) == 0
    zero_masks = [sum(1 << j for j in range(r) if rows[i][j] == 0)
                  for i in range(r)]
    for subset in range(1, (1 << r) - 1):
        common = (1 << r) - 1
        s = 0
        rest = subset
        while rest:
            i = (rest & -rest).bit_length() - 1
            common &= zero_masks[i]
            s += 1
            rest &= rest - 1
        if common.bit_count() >= r - s:
            return False
    return True


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

    size = 0
    for u in range(n_left):
        if augment(u, [False] * n_right):
            size += 1
    return size, match_right


def _fully_indecomposable_matching(rows):
    # Frobenius-Konig: fully indecomposable iff every minor obtained by
    # deleting one row and one column has a nonzero permanent, i.e. its
    # bipartite support graph has a perfect matching.
    r = len(rows)
    for di in range(r):
        for dj in range(r):
            left = [i for i in range(r) if i != di]
            right = [j for j in range(r) if j != dj]
            adj = [[jj for jj, j in enumerate(right) if rows[i][j] != 0]
                   for i in left]
            size, _ = _bipartite_matching(adj, r - 1, r - 1)
            if size < r - 1:
                return False
    return True


def witness_sequence(m_entries, i, j):
    """Closed nonzero walk (i, j, ..., i, j) through a fully indecomposable
    matrix; indices are 1-based.

    Grows the set of endpoints reachable by nonzero-entry walks whose first
    step is (i, j); full indecomposability forces i to be reached.
    Accepts a ColorMatrix or a nested list of rows.
    """
    if isinstance(m_entries, ColorMatrix):
        m_entries = m_entries.entries
    rows = [list(r) for r in m_entries]
    r = len(rows)
    if i == j:
        raise PreconditionError("need i != j")
    if not (1 <= i <= r and 1 <= j <= r):
        raise PreconditionError("indices out of range")
    if rows[i - 1][j - 1] == 0:
        raise PreconditionError(f"M({i},{j}) = 0")
    # BFS over endpoint indices, remembering predecessors
    parent = {j: None}
    queue = [j]
    while queue:
        p = queue.pop(0)
        if p == i:
            break
        for q in range(1, r + 1):
            if q != p and rows[p - 1][q - 1] != 0 and q not in parent:
                parent[q] = p
                queue.append(q)
    assert i in parent, "matrix is not fully indecomposable"
    walk = [i]
    while walk[-1] != j:
        walk.append(parent[walk[-1]])
    walk.reverse()                      # j ... i
    seq = tuple([i] + walk + [j])       # i, j, ..., i, j
    ws = WitnessSequence(seq)
    ws.check(rows)
    return ws


# ---------------------------------------------------------------------------
# class predicates
# ---------------------------------------------------------------------------

def balance_flags(matrix):
    """(row-sum-balanced, column-sum-balanced): all sums pairwise differ
    by at most 1."""
    rs, cs = matrix.row_sums(), matrix.col_sums()
    row_ok = not rs or max(rs) - min(rs) <= 1
    col_ok = not cs or max(cs) - min(cs) <= 1
    return (row_ok, col_ok)


def _off_diagonal_entries(matrix):
    return [(i, j, matrix.entries[i][j])
            for i in range(matrix.k) for j in range(matrix.k)
            if i != j and matrix.entries[i][j] != 0]


def _is_special(matrix):
    if any(x == 0 for x in matrix.diagonal()):
        return False
    off = _off_diagonal_entries(matrix)
    return len(off) == 1 and off[0][2] == 1


def _normal_block(matrix, subset_bound=DEFAULT_SUBSET_BOUND):
    """0-based index set of the fully indecomposable block, or None.

    Every row and column of a fully indecomposable block of size >= 2 has
    an off-diagonal nonzero, so the block index set is forced: it must be
    exactly the set of indices incident to some nonzero off-diagonal entry.
    """
    if matrix.is_diagonal():
        return None
    if any(x == 0 for x in matrix.diagonal()):
        return None
    block = set()
    for i, j, _ in _off_diagonal_entries(matrix):
        block.add(i)
        block.add(j)
    r = len(block)
    if r < 2:
        return None
    sub = matrix.submatrix(block)
    if r > subset_bound:
        ok = is_fully_indecomposable(sub, method="matching")
    else:
        ok = is_fully_indecomposable(sub, subset_bound=subset_bound)
    return sorted(block) if ok else None


def special_variant(matrix):
    """Primary variant letter for a special matrix ((a) before (b) before
    (c)); VARIANT_PLAIN if none applies."""
    variants = special_variants(matrix)
    return variants[0] if variants else VARIANT_PLAIN


def special_variants(matrix):
    """All of (a)/(b)/(c) that a special matrix meets, in that order."""
    if not _is_special(matrix):
        raise PreconditionError("matrix is not special")
    (i0, j0, _), = _off_diagonal_entries(matrix)
    i, j = i0 + 1, j0 + 1                       # 1-based, entry at (i, j)
    n, k = matrix.order, matrix.k
    alpha = n // k
    row_bal, col_bal = balance_flags(matrix)
    out = []
    # (a): row-sum-balanced and row sum at the off-diagonal column index
    # equals floor(n/k) (that row sum is just the diagonal entry A(j, j))
    if row_bal and matrix.row_sums()[j - 1] == alpha:
        out.append(VARIANT_A)
    # (b): the transpose is (a)-special
    if col_bal and matrix.col_sums()[i - 1] == alpha:
        out.append(VARIANT_B)
    # (c): A(i,i) = A(j,j) = alpha - 1, all other diagonal entries in
    # {alpha, alpha + 1} with alpha + 1 attained at least once
    diag = matrix.diagonal()
    others = [diag[p] for p in range(k) if p + 1 not in (i, j)]
    if (diag[i - 1] == alpha - 1 and diag[j - 1] == alpha - 1
            and all(x in (alpha, alpha + 1) for x in others)
            and any(x == alpha + 1 for x in others)):
        out.append(VARIANT_C)
    return tuple(out)


def classify(matrix, subset_bound=DEFAULT_SUBSET_BOUND):
    """Unique verdict among Tiny / Small / Special / Normal / NotDesirable.

    The four desirable classes are mutually exclusive: tiny and small are
    diagonal with different zero counts, special has a zero row in any
    candidate block, and normal needs a fully indecomposable block.
    """
    balance = balance_flags(matrix)
    if matrix.is_diagonal():
        diag = matrix.diagonal()
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
    if any(x == 0 for x in matrix.diagonal()):
        return MatrixClass(
            NOT_DESIRABLE, balance=balance,
            witness="off-diagonal entries present but a diagonal entry is 0")
    if _is_special(matrix):
        variants = special_variants(matrix)
        primary = variants[0] if variants else VARIANT_PLAIN
        return MatrixClass(SPECIAL, special_variant=primary,
                           variants=variants, balance=balance)
    block = _normal_block(matrix, subset_bound)
    if block is not None:
        r = len(block)
        sub = matrix.submatrix(block)
        mini = (r == 2 and sub == [[1, 1], [1, 1]]
                and balance == (True, True)
                and 2 * matrix.k <= matrix.order < 3 * matrix.k)
        return MatrixClass(NORMAL, r=r, mininormal=mini, balance=balance)
    off = _off_diagonal_entries(matrix)
    if len(off) == 1 and off[0][2] > 1:
        reason = (f"single off-diagonal entry {off[0][2]} != 1 "
                  "and no fully indecomposable block")
    else:
        reason = ("off-diagonal support does not form a fully "
                  "indecomposable block")
    return MatrixClass(NOT_DESIRABLE, balance=balance, witness=reason)


def is_mininormal(matrix):
    return classify(matrix).mininormal


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------

def _compositions(total, parts, minimum=0):
    """All tuples of `parts` ints >= minimum summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _diag_matrix(k, diag):
    return ColorMatrix([[diag[i] if i == j else 0 for j in range(k)]
                        for i in range(k)])


def _tiny_matrices(k, n):
    # diagonal: one 2, (n - 2) ones, rest zeros; need >= 2 zeros
    ones = n - 2
    if ones < 0 or k - 1 - ones < 2:
        return
    for pos2 in range(k):
        rest = [p for p in range(k) if p != pos2]
        for one_pos in combinations(rest, ones):
            diag = [0] * k
            diag[pos2] = 2
            for p in one_pos:
                diag[p] = 1
            yield _diag_matrix(k, diag)


def _small_matrices(k, n):
    # diagonal: entries in {1, 2} except exactly one 0, at least one 2
    for zero_pos in range(k):
        rest = [p for p in range(k) if p != zero_pos]
        for values in _compositions(n, k - 1, minimum=1):
            if max(values, default=0) > 2 or 2 not in values:
                continue
            diag = [0] * k
            for p, v in zip(rest, values):
                diag[p] = v
            yield _diag_matrix(k, diag)


def _special_matrices(k, n):
    if k < 2 or n < k + 1:
        return
    for diag in _compositions(n - 1, k, minimum=1):
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                entries = [[diag[p] if p == q else 0 for q in range(k)]
                           for p in range(k)]
                entries[i][j] = 1
                yield ColorMatrix(entries)


def _normal_matrices(k, n):
    for r in range(2, k + 1):
        d_len = k - r
        for block in combinations(range(k), r):
            min_m = 2 * r            # each block row needs diag >= 1 and an off-diag
            for m_sum in range(min_m, n - d_len + 1):
                d_sum = n - m_sum
                if d_sum < d_len:
                    continue
                d_values = list(_compositions(d_sum, d_len, minimum=1))
                for flat in _compositions(m_sum - r, r * r):
                    m = [[flat[p * r + q] + (1 if p == q else 0)
                          for q in range(r)] for p in range(r)]
                    if not is_fully_indecomposable(m):
                        continue
                    rest = [p for p in range(k) if p not in block]
                    for dv in d_values:
                        entries = [[0] * k for _ in range(k)]
                        for pi, bi in enumerate(block):
                            for qi, bj in enumerate(block):
                                entries[bi][bj] = m[pi][qi]
                        for p, v in zip(rest, dv):
                            entries[p][p] = v
                        yield ColorMatrix(entries)


def _mininormal_matrices(k, n):
    # M is forced to the all-ones 2x2 block; balance and the 2k <= n < 3k
    # window are re-checked through classify
    if not 2 * k <= n < 3 * k or k < 2:
        return
    d_len = k - 2
    for block in combinations(range(k), 2):
        rest = [p for p in range(k) if p not in block]
        for dv in _compositions(n - 4, d_len, minimum=1):
            entries = [[0] * k for _ in range(k)]
            bi, bj = block
            entries[bi][bi] = entries[bi][bj] = 1
            entries[bj][bi] = entries[bj][bj] = 1
            for p, v in zip(rest, dv):
                entries[p][p] = v
            m = ColorMatrix(entries)
            if classify(m).mininormal:
                yield m


FILTERS = ("tiny", "small", "special", "very-special", "normal",
           "mininormal", "all")


def enumerate_desirable(k, n, filters=("all",), cap=DEFAULT_ENUM_CAP):
    """Yield every desirable k x k matrix with entry sum n matching the
    filter set.  Exhaustive within each filter; graph-level deduplication
    happens downstream."""
    if k < 1 or n < 0:
        raise PreconditionError("need k >= 1, n >= 0")
    wanted = set(filters)
    unknown = wanted - set(FILTERS)
    if unknown:
        raise PreconditionError(f"unknown filters {sorted(unknown)}")
    if "all" in wanted:
        wanted = {"tiny", "small", "special", "normal"}

    count = 0

    def guard(gen):
        nonlocal count
        for m in gen:
            count += 1
            if count > cap:
                raise ResourceLimitError(
                    f"enumerate_desirable exceeded cap {cap}")
            yield m

    if "tiny" in wanted:
        yield from guard(_tiny_matrices(k, n))
    if "small" in wanted:
        yield from guard(_small_matrices(k, n))
    if "special" in wanted:
        yield from guard(_special_matrices(k, n))
    elif "very-special" in wanted:
        yield from guard(m for m in _special_matrices(k, n)
                         if special_variants(m))
    if "normal" in wanted:
        yield from guard(_normal_matrices(k, n))
    elif "mininormal" in wanted:
        yield from guard(_mininormal_matrices(k, n))
