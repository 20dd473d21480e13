"""Matrix parsing, classification, full indecomposability, witness walks,
and matrix classes under row and column permutations and transpose."""

import json
import os
import random
import subprocess
import sys
import time
from itertools import chain, combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambigcolor
from ambigcolor import matrix
from ambigcolor.errors import (InputFormatError, PreconditionError,
                               ResourceLimitError)
from ambigcolor.matrix import (NORMAL, NOT_DESIRABLE, SMALL, SPECIAL, TINY,
                               VARIANT_A, VARIANT_B, VARIANT_C, VARIANT_NA,
                               VARIANT_PLAIN,
                               ColorMatrix, WitnessSequence,
                               _mininormal_matrices, _normal_matrices,
                               _small_matrices, _special_matrices,
                               _tiny_matrices, balance_flags, class_key,
                               classify, enumerate_desirable,
                               is_fully_indecomposable, load_matrix,
                               matrix_classes, special_variants,
                               witness_sequence)


def diag(*entries):
    k = len(entries)
    return ColorMatrix([[entries[i] if i == j else 0 for j in range(k)]
                        for i in range(k)])


# ---------------------------------------------------------------------------
# container and I/O
# ---------------------------------------------------------------------------

def test_indexing_is_one_based():
    a = ColorMatrix([[1, 2], [3, 4]])
    assert a[1, 1] == 1 and a[1, 2] == 2 and a[2, 1] == 3
    assert a.order == 10
    assert a.row_sums() == [3, 7] and a.col_sums() == [4, 6]
    with pytest.raises(PreconditionError):
        a[0, 1]


def test_rejects_bad_shapes_and_entries():
    with pytest.raises(InputFormatError):
        ColorMatrix([[1, 2], [3]])
    with pytest.raises(InputFormatError):
        ColorMatrix([[1, -1], [0, 2]])
    with pytest.raises(InputFormatError):
        ColorMatrix([])
    k = matrix.MAX_K + 1
    with pytest.raises(InputFormatError, match="exceeds limit"):
        ColorMatrix([[0] * k for _ in range(k)])
    for text in ("", "2\n1 0 0\n"):       # no tokens; 3 of 4 entries
        with pytest.raises(InputFormatError):
            ColorMatrix.from_text(text)
    with pytest.raises(InputFormatError, match='"k"'):
        ColorMatrix.from_json({"k": 3, "entries": [[1, 0], [0, 1]]})


def test_text_and_json_round_trip():
    a = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])
    assert ColorMatrix.from_text(a.to_text()) == a
    assert ColorMatrix.from_json(json.loads(json.dumps(a.to_json()))) == a
    assert load_matrix(a.to_text()) == a
    assert load_matrix(json.dumps(a.to_json())) == a


def test_transpose_and_submatrix():
    a = ColorMatrix([[1, 2], [3, 4]])
    assert a.transpose()[1, 2] == 3
    sub = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]]).submatrix([0, 1])
    assert sub == [[1, 2], [1, 3]]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_tiny():
    assert classify(diag(2, 0, 0)).verdict == TINY
    assert classify(diag(2, 1, 0, 0)).verdict == TINY
    assert classify(diag(0, 0, 2)).verdict == TINY
    # exactly one 2 required, and at least two zeros
    assert classify(diag(2, 2, 0, 0)).verdict == NOT_DESIRABLE
    assert classify(diag(3, 0, 0)).verdict == NOT_DESIRABLE
    assert classify(diag(1, 1, 0, 0)).verdict == NOT_DESIRABLE


def test_small():
    assert classify(diag(2, 2, 0)).verdict == SMALL
    assert classify(diag(2, 1, 0)).verdict == SMALL
    assert classify(diag(2, 2, 2, 0)).verdict == SMALL
    # exactly one zero, all entries <= 2, at least one 2
    assert classify(diag(1, 1, 0)).verdict == NOT_DESIRABLE
    assert classify(diag(3, 2, 0)).verdict == NOT_DESIRABLE
    assert classify(diag(2, 2, 1)).verdict == NOT_DESIRABLE


def test_special():
    v = classify(ColorMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert v.verdict == SPECIAL
    # positive diagonal plus exactly one off-diagonal 1
    assert classify(ColorMatrix([[1, 2], [0, 1]])).verdict == NOT_DESIRABLE
    assert classify(ColorMatrix([[1, 1], [0, 0]])).verdict == NOT_DESIRABLE
    assert classify(ColorMatrix([[1, 1], [1, 1]])).verdict == NORMAL
    # one off-diagonal 1 but a zero on the diagonal
    with pytest.raises(PreconditionError, match="not special"):
        special_variants(ColorMatrix([[0, 1], [0, 1]]))


def test_normal():
    a = ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])
    v = classify(a)
    assert v.verdict == NORMAL and v.r == 3 and not v.mininormal
    b = ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    v = classify(b)
    assert v.verdict == NORMAL and v.r == 2 and v.mininormal
    # block must be fully indecomposable
    c = ColorMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert classify(c).verdict == NOT_DESIRABLE


def test_desirable_classes_are_mutually_exclusive():
    seen = {}
    for k in range(2, 5):
        for n in range(0, 8):
            for m in enumerate_desirable(k, n):
                key = (k, tuple(m.entries))
                assert key not in seen
                seen[key] = classify(m).verdict
    assert set(seen.values()) == {TINY, SMALL, SPECIAL, NORMAL}


def test_classify_not_desirable_has_reason():
    v = classify(diag(1, 1, 1))
    assert v.verdict == NOT_DESIRABLE and v.witness
    assert not v.desirable


# ---------------------------------------------------------------------------
# special variants
# ---------------------------------------------------------------------------

def test_variant_a_and_b():
    # upper-triangular 2x2 all-ones: n = 3, alpha = 1; both readings hold
    m = ColorMatrix([[1, 1], [0, 1]])
    assert special_variants(m) == (VARIANT_A, VARIANT_B)
    assert classify(m).special_variant == VARIANT_A


def test_variant_a_only():
    # entry at (1, 2); n = 6, alpha = 2.  Row sums (2, 2, 2) balanced and
    # A(2,2) = 2 = alpha, so (a) holds; column sums (1, 3, 2) unbalanced,
    # so (b) fails
    m = ColorMatrix([[1, 1, 0], [0, 2, 0], [0, 0, 2]])
    assert classify(m).verdict == SPECIAL
    assert special_variants(m) == (VARIANT_A,)
    # (b) is exactly (a) of the transpose
    assert special_variants(m.transpose()) == (VARIANT_B,)


def test_variant_c():
    # k = 3, n = 6, alpha = 2: diagonal (1, 1, 3) with entry at (1, 2)
    m = ColorMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 3]])
    assert VARIANT_C in special_variants(m)


def test_variant_plain():
    # k = 3, n = 5, alpha = 1: diagonal (2, 2, 1) with entry at (1, 2)
    # row sums (3, 2, 1) unbalanced, column sums (2, 3, 1) unbalanced,
    # diagonal not of (c) shape
    m = ColorMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 1]])
    assert classify(m).verdict == SPECIAL
    assert classify(m).special_variant == VARIANT_PLAIN


def test_variant_c_existence_window():
    # (c)-special k x k matrices of order n exist iff n >= 2k >= 6 and
    # n mod k <= k - 3
    for k in range(2, 5):
        for n in range(0, 16):
            found = any(
                VARIANT_C in classify(m).variants
                for m in _special_matrices(k, n))
            expect = n >= 2 * k >= 6 and n % k <= k - 3
            assert found == expect, (k, n)


def test_balance_flags():
    assert balance_flags(ColorMatrix([[1, 1], [0, 1]])) == (True, True)
    assert balance_flags(ColorMatrix([[2, 1], [0, 1]])) == (False, True)
    assert balance_flags(ColorMatrix([[2, 0], [1, 1]])) == (True, False)
    assert balance_flags(diag(2, 2, 1)) == (True, True)


def test_mininormal_window():
    # balanced all-ones 2x2 block and 2k <= n < 3k
    assert classify(ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]])).mininormal
    # block must be exactly all-ones 2x2
    assert not classify(
        ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]])).mininormal
    # n = 3k is excluded from the window
    assert not classify(
        ColorMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 5]])).mininormal
    for k in range(2, 5):
        ns = {m.order for m in _mininormal_matrices(k, 3 * k)}
        assert not ns          # n = 3k excluded


def test_mininormal_k2():
    m = ColorMatrix([[1, 1], [1, 1]])
    v = classify(m)
    assert v.verdict == NORMAL and v.r == 2
    # n = 4, k = 2: 2k <= n < 3k holds and sums are balanced
    assert v.mininormal


# ---------------------------------------------------------------------------
# full indecomposability and witness sequences
# ---------------------------------------------------------------------------

def test_fully_indecomposable_known():
    assert is_fully_indecomposable(ColorMatrix([[1, 1], [1, 1]]))
    assert not is_fully_indecomposable(ColorMatrix([[1, 1], [0, 1]]))
    assert not is_fully_indecomposable(diag(1, 1, 1))
    assert is_fully_indecomposable(
        ColorMatrix([[1, 2, 0], [1, 3, 1], [1, 1, 1]]))
    # order-1 convention: nonzero entry
    assert is_fully_indecomposable(ColorMatrix([[3]]))
    assert not is_fully_indecomposable(ColorMatrix([[0]]))
    with pytest.raises(PreconditionError, match="square"):
        is_fully_indecomposable([[1, 1], [1]])


def oracle_is_fully_indecomposable(rows):
    """Reference: scan all 2^r - 2 proper row subsets for one whose common
    zero columns number at least r - |subset|; order 1 must be nonzero."""
    r = len(rows)
    if r == 1:
        return rows[0][0] != 0
    # zero_masks[i]: bitmask of columns j with M(i, j) == 0
    zero_masks = [sum(1 << j for j in range(r) if rows[i][j] == 0)
                  for i in range(r)]
    for subset in range(1, (1 << r) - 1):
        common = (1 << r) - 1
        for i in range(r):
            if subset >> i & 1:
                common &= zero_masks[i]
        if common.bit_count() >= r - subset.bit_count():
            return False
    return True


def test_fully_indecomposable_matches_oracle_on_all_01_matrices():
    for r in range(1, 5):
        for bits in range(1 << (r * r)):
            rows = [[bits >> (i * r + j) & 1 for j in range(r)]
                    for i in range(r)]
            assert (is_fully_indecomposable(rows)
                    == oracle_is_fully_indecomposable(rows)), rows


def test_fully_indecomposable_matches_oracle_on_random_matrices():
    # zero diagonal entries are frequent, so the matching branch runs
    rng = random.Random(5)
    verdicts = set()
    for _ in range(3000):
        r = rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 1, 2)) for _ in range(r)]
                for _ in range(r)]
        fi = is_fully_indecomposable(rows)
        assert fi == oracle_is_fully_indecomposable(rows), rows
        verdicts.add((fi, all(rows[i][i] for i in range(r))))
    assert verdicts == {(True, True), (True, False),
                        (False, True), (False, False)}


def oracle_classify(rows):
    """classify's fields read off the definitions: (verdict, primary
    special variant, variants, r, mininormal, balance).  The normal block
    is searched among all principal index sets that hold the off-diagonal
    support, each tested by oracle_is_fully_indecomposable."""
    k = len(rows)
    n = sum(map(sum, rows))
    alpha = n // k
    diag = [rows[i][i] for i in range(k)]
    off = [(i, j) for i in range(k) for j in range(k)
           if i != j and rows[i][j]]
    rs = [sum(row) for row in rows]
    cs = [sum(col) for col in zip(*rows)]
    balance = (max(rs) - min(rs) <= 1, max(cs) - min(cs) <= 1)
    shape = sorted(diag, reverse=True)
    zeros, twos = diag.count(0), diag.count(2)
    # tiny: diagonal, (2, 1, ..., 1, 0, ..., 0) up to order, >= two zeros
    tiny = (not off and zeros >= 2
            and shape == [2] + [1] * (k - 1 - zeros) + [0] * zeros)
    # small: diagonal, (2, ..., 2, 1, ..., 1, 0) up to order, >= one 2
    small = (not off and twos >= 1
             and shape == [2] * twos + [1] * (k - 1 - twos) + [0])
    # special: positive diagonal and one off-diagonal nonzero, equal to 1
    special = (0 not in diag and len(off) == 1
               and rows[off[0][0]][off[0][1]] == 1)
    # normal: positive diagonal and a fully indecomposable principal block
    # of order r >= 2 that holds every off-diagonal nonzero
    ends = {x for edge in off for x in edge}
    subs = ([[rows[i][j] for j in s] for i in s]
            for r in range(2, k + 1) for s in combinations(range(k), r)
            if ends <= set(s))
    blocks = ([] if 0 in diag else
              [sub for sub in subs if oracle_is_fully_indecomposable(sub)])
    normal = bool(blocks)
    assert tiny + small + special + normal <= 1 and len(blocks) <= 1, rows

    def meets_a(table):
        # (a): row-sum-balanced, and the row at the off-diagonal entry's
        # column index sums to floor(n/k)
        (_, j), = [(i, j) for i in range(k) for j in range(k)
                   if i != j and table[i][j]]
        sums = [sum(row) for row in table]
        return max(sums) - min(sums) <= 1 and sums[j] == alpha

    variants = ()
    if special:
        (i, j), = off
        others = [diag[p] for p in range(k) if p not in (i, j)]
        met = (meets_a(rows),
               meets_a([list(col) for col in zip(*rows)]),   # (b)
               diag[i] == alpha - 1 and diag[j] == alpha - 1   # (c)
               and set(others) <= {alpha, alpha + 1}
               and alpha + 1 in others)
        variants = tuple(name for name, ok in
                         zip((VARIANT_A, VARIANT_B, VARIANT_C), met) if ok)
    verdict = (TINY if tiny else SMALL if small else SPECIAL if special
               else NORMAL if normal else NOT_DESIRABLE)
    primary = (variants + (VARIANT_PLAIN,))[0] if special else VARIANT_NA
    r = len(blocks[0]) if normal else None
    mininormal = (normal and blocks[0] == [[1, 1], [1, 1]]
                  and balance == (True, True) and 2 * k <= n < 3 * k)
    return verdict, primary, variants, r, mininormal, balance


def sparse_block_matrices(seed, count):
    """Seeded k x k matrices, k = 5..7, entries <= 2: a diagonal mostly
    positive, and off-diagonal support drawn on a random index set, so
    that the block is often a proper, non-contiguous set of indices."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(5, 7)
        block = rng.sample(range(k), rng.randint(2, k))
        p = rng.choice((0.3, 0.5, 0.8))
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            rows[i][i] = rng.choice((1, 2)) if rng.random() > 0.05 else 0
            for j in block if i in block else ():
                if j != i and rng.random() < p:
                    rows[i][j] = rng.choice((1, 1, 2))
        yield ColorMatrix(rows)


def test_classify_matches_the_definitions():
    # every k x k matrix with k <= 3 and entries <= 2, or k = 4 and
    # entries <= 1, then the desirable matrices of the family generators,
    # which reach the (c) variant and the larger entries, then a sample
    # at k = 5..7 whose normal blocks sit on scattered indices
    grid = (ColorMatrix([flat[i * k:(i + 1) * k] for i in range(k)])
            for k, top in ((1, 2), (2, 2), (3, 2), (4, 1))
            for flat in product(range(top + 1), repeat=k * k))
    families = (m for k in range(1, 5) for n in range(13)
                for family in (_tiny_matrices, _small_matrices,
                               _special_matrices, _mininormal_matrices)
                for m in family(k, n))
    seen = set()
    scattered = set()       # (k, r) of normal blocks not on 0..r-1
    for m in chain(grid, families, sparse_block_matrices(30, 3000)):
        v = classify(m)
        got = (v.verdict, v.special_variant, v.variants, v.r, v.mininormal,
               v.balance)
        assert got == oracle_classify(m.entries), m
        assert bool(v.witness) == (v.verdict == NOT_DESIRABLE), m
        seen.add((v.verdict, v.special_variant, v.mininormal))
        ends = {x for i, row in enumerate(m.entries)
                for j, e in enumerate(row) if i != j and e for x in (i, j)}
        if v.verdict == NORMAL and ends != set(range(v.r)):
            scattered.add((m.k, v.r))
    assert {(k, r) for k in (5, 6, 7) for r in range(2, k)} <= scattered
    assert {(SPECIAL, x, False) for x in (VARIANT_A, VARIANT_B, VARIANT_C,
                                          VARIANT_PLAIN)} <= seen
    assert {(TINY, VARIANT_NA, False), (SMALL, VARIANT_NA, False),
            (NORMAL, VARIANT_NA, False), (NORMAL, VARIANT_NA, True),
            (NOT_DESIRABLE, VARIANT_NA, False)} <= seen


def test_classify_large_cyclic_block():
    for r in (16, 32):
        m = ColorMatrix([[1 if j in (i, (i + 1) % r) else 0
                          for j in range(r)] for i in range(r)])
        v = classify(m)
        assert v.verdict == NORMAL and v.r == r


@st.composite
def fi_matrices(draw):
    """Random fully indecomposable matrices, r <= 6, by rejection."""
    r = draw(st.integers(2, 6))
    for _ in range(200):
        rows = draw(st.lists(
            st.lists(st.integers(0, 3), min_size=r, max_size=r),
            min_size=r, max_size=r))
        m = ColorMatrix(rows)
        if is_fully_indecomposable(m):
            return m
    # dense fallback, always fully indecomposable
    return ColorMatrix([[1] * r for _ in range(r)])


@settings(max_examples=120, deadline=None)
@given(fi_matrices())
def test_witness_sequence_invariants(m):
    r = m.k
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j or m[i, j] == 0:
                continue
            ws = witness_sequence(m, i, j)
            seq = ws.indices
            # starts i, j and ends i, j; odd walk length; all steps nonzero
            assert seq[0] == i and seq[1] == j
            assert seq[-2] == i and seq[-1] == j
            assert len(seq) >= 4            # walk length l >= 3
            for a, b in zip(seq, seq[1:]):
                assert a != b and m[a, b] != 0


def test_witness_sequence_rejects_zero_entry():
    m = ColorMatrix([[1, 1], [1, 1]])
    with pytest.raises(PreconditionError):
        witness_sequence(m, 1, 1)
    with pytest.raises(PreconditionError):
        witness_sequence([[1, 0], [1, 1]], 1, 2)
    # no nonzero walk leads from 2 back to 1
    with pytest.raises(PreconditionError):
        witness_sequence([[1, 1], [0, 1]], 1, 2)
    with pytest.raises(PreconditionError, match="out of range"):
        witness_sequence(m, 1, 3)
    with pytest.raises(PreconditionError, match="l >= 3"):
        WitnessSequence((1, 2, 1))
    # indices outside 1..r: 0 read row -1, 3 raised IndexError
    for bad in ((0, 1, 0, 1), (1, 3, 1, 3)):
        with pytest.raises(PreconditionError):
            WitnessSequence(bad).check([[1, 1], [1, 1]])


def test_witness_sequence_check_raises_under_optimization():
    # the invariants are checked by raising, not by assert, so they still
    # hold when Python runs with -O
    code = ("from ambigcolor.errors import PreconditionError\n"
            "from ambigcolor.matrix import WitnessSequence\n"
            "try:\n"
            "    WitnessSequence((1, 2, 1, 1)).check([[1, 0], [0, 1]])\n"
            "except PreconditionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = str(Path(ambigcolor.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0
    ones = [[1, 1], [1, 1]]
    WitnessSequence((1, 2, 1, 2)).check(ones)
    for bad in ((1, 1, 2, 1, 1), (1, 2, 1, 2, 1)):
        with pytest.raises(PreconditionError):
            WitnessSequence(bad).check(ones)


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------

def test_family_generators_match_classify():
    # each family generator yields exactly the matrices of
    # enumerate_desirable whose classify verdict or flag names that family
    families = ((_tiny_matrices, lambda v: v.verdict == TINY),
                (_small_matrices, lambda v: v.verdict == SMALL),
                (_special_matrices, lambda v: v.verdict == SPECIAL),
                (_normal_matrices, lambda v: v.verdict == NORMAL),
                (_mininormal_matrices, lambda v: v.mininormal))
    for k in range(1, 5):
        for n in range(10):
            verdicts = {m: classify(m) for m in enumerate_desirable(k, n)}
            assert all(m.order == n and v.desirable
                       for m, v in verdicts.items())
            for family, named in families:
                assert set(family(k, n)) == {
                    m for m, v in verdicts.items() if named(v)}, \
                    (family.__name__, k, n)


def relabeling_orbit(m):
    """The smallest of the k! images P A P^T of a matrix under one
    permutation P of its rows and columns alike."""
    k = m.k
    return min(tuple(tuple(m.entries[i][j] for j in p) for i in p)
               for p in permutations(range(k)))


def test_enumerate_desirable_is_complete():
    # every relabeling orbit of the k x k matrices of entry sum n that
    # classify calls desirable, and no other
    for k, max_n in ((1, 7), (2, 7), (3, 7), (4, 5)):
        for n in range(max_n + 1):
            desirable = set()
            # stars and bars: each matrix of entry sum n once
            for cut in combinations(range(n + k * k - 1), k * k - 1):
                flat = [b - a - 1 for a, b in
                        zip((-1,) + cut, cut + (n + k * k - 1,))]
                m = ColorMatrix([flat[i * k:(i + 1) * k] for i in range(k)])
                if classify(m).desirable:
                    desirable.add(relabeling_orbit(m))
            assert set(map(relabeling_orbit, enumerate_desirable(k, n))) \
                == desirable, (k, n)


def test_family_generators_yield_one_matrix_per_orbit():
    # the normal block stays labeled, so only the normal family repeats
    for family in (_tiny_matrices, _small_matrices, _special_matrices,
                   _mininormal_matrices):
        for k in range(1, 5):
            for n in range(11):
                orbits = [relabeling_orbit(m) for m in family(k, n)]
                assert len(orbits) == len(set(orbits)), (family.__name__,
                                                         k, n)


def test_classify_is_invariant_under_relabeling():
    rng = random.Random(29)
    for k in range(1, 5):
        for n in range(8):
            for m in enumerate_desirable(k, n):
                p = rng.sample(range(k), k)
                image = ColorMatrix([[m.entries[i][j] for j in p]
                                     for i in p])
                a, b = classify(m), classify(image)
                assert (a.verdict, a.variants, a.r, a.mininormal,
                        a.balance) == (b.verdict, b.variants, b.r,
                                       b.mininormal, b.balance), m


def test_enumerate_desirable_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(matrix, "DEFAULT_ENUM_CAP", 3)
    assert len(list(enumerate_desirable(3, 4))) <= 3
    with pytest.raises(ResourceLimitError):
        list(enumerate_desirable(3, 6))
    with pytest.raises(PreconditionError):
        next(enumerate_desirable(0, 3))


@pytest.mark.parametrize("generate", [enumerate_desirable, matrix_classes],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("k, n", [(0, 3), (matrix.MAX_K + 1, 0), (40, 3),
                                  (3, -1)])
def test_generators_refuse_k_outside_max_k(generate, k, n):
    # a precondition on the call, not an input error from a matrix built
    # inside it, and the same for both generators
    with pytest.raises(PreconditionError, match=f"1..{matrix.MAX_K}"):
        next(generate(k, n))


def test_enumerate_desirable_no_duplicates():
    for k in (2, 3, 4, 5):
        for n in range(0, 9):
            mats = [tuple(m.entries) for m in enumerate_desirable(k, n)]
            assert len(mats) == len(set(mats))


def compositions(total, cells):
    """Every tuple of `cells` >= 1 nonnegative ints summing to `total`,
    by stars and bars."""
    end = total + cells - 1
    for cut in combinations(range(end), cells - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (end,)))


def oracle_normal_matrices(k, n):
    """The normal family by the flat-block walk: each r x r block of
    entry sum m is I plus a flat block of entry sum m - r, kept when
    is_fully_indecomposable accepts it, and placed on the leading indices
    with each nonincreasing positive rest of the diagonal."""
    for r in range(2, k + 1):
        for m_sum in range(2 * r, n - (k - r) + 1):
            for flat in compositions(m_sum - r, r * r):
                block = [[flat[p * r + q] + (p == q) for q in range(r)]
                         for p in range(r)]
                if not is_fully_indecomposable(block):
                    continue
                for rest in plain_positive_parts(n - m_sum, k - r, n):
                    rows = [row + [0] * (k - r) for row in block]
                    rows += [[0] * (r + i) + [x] + [0] * (k - r - i - 1)
                             for i, x in enumerate(rest)]
                    yield tuple(map(tuple, rows))


def test_normal_generator_matches_the_flat_block_walk():
    # the same matrices, duplicates included, from the strongly connected
    # supports as from testing every flat block
    total = 0
    for k in range(1, 6):
        for n in range(11):
            want = sorted(oracle_normal_matrices(k, n))
            assert sorted(m.entries for m in _normal_matrices(k, n)) == want, \
                (k, n)
            total += len(want)
    assert total > 1000


def test_enumerate_desirable_reach_pinned():
    # counted by the flat-block walk
    assert sum(1 for _ in enumerate_desirable(4, 10)) == 1955
    assert sum(1 for _ in enumerate_desirable(5, 11)) == 3088


# ---------------------------------------------------------------------------
# matrix classes
# ---------------------------------------------------------------------------

def labeled_matrices(k, n):
    """Every k x k matrix with entry sum n, as a tuple of rows."""
    def flat(total, cells):
        if cells == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in flat(total - first, cells - 1):
                yield (first,) + rest
    for entries in flat(n, k * k):
        yield tuple(entries[i * k:(i + 1) * k] for i in range(k))


def orbit(rows):
    """The images of a table under row and column permutations and
    transpose."""
    k = len(rows)
    out = set()
    for table in (rows, tuple(zip(*rows))):
        for sigma in permutations(range(k)):
            for tau in permutations(range(k)):
                out.add(tuple(tuple(table[i][j] for j in tau)
                              for i in sigma))
    return out


def brute_force_classes(k, n):
    """{labeled matrix: the smallest member of its orbit}."""
    rep = {}
    for rows in labeled_matrices(k, n):
        if rows not in rep:
            members = orbit(rows)
            low = min(members)
            for m in members:
                rep[m] = low
    return rep


@pytest.mark.parametrize("k, max_n", [(1, 7), (2, 7), (3, 7), (4, 5)])
def test_matrix_classes_match_brute_force_deduplication(k, max_n):
    for n in range(max_n + 1):
        rep = brute_force_classes(k, n)
        classes = list(matrix_classes(k, n))
        # one matrix per class, and every class met
        assert sorted(rep[m.entries] for m in classes) == sorted(
            set(rep.values())), (k, n)
        keys = {rep[m.entries]: m.entries for m in classes}
        for m in classes:
            assert class_key(m) == m.entries
        for rows, low in rep.items():
            assert class_key(ColorMatrix(rows)) == keys[low], rows


def test_matrix_class_counts_pinned():
    assert [sum(1 for _ in matrix_classes(3, n)) for n in range(3, 9)] == [
        7, 16, 32, 68, 126, 238]
    with pytest.raises(PreconditionError):
        next(matrix_classes(0, 3))
    with pytest.raises(PreconditionError):
        next(matrix_classes(3, -1))


def test_matrix_classes_cost_flat_in_zero_rows():
    # the k - n zero rows of a matrix with k > n are all equal rows, so
    # their run must not be permuted: factorial in k otherwise
    assert sum(1 for _ in matrix_classes(32, 3)) == 7
    rows = [[0] * 20 for _ in range(20)]
    rows[4][7] = 1
    start = time.perf_counter()
    key = class_key(ColorMatrix(rows))
    assert time.perf_counter() - start < 1.0
    assert key[0][0] == 1 and ColorMatrix(key).order == 1


def test_class_key_invariant_under_permutations_and_transpose():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(k)]
                for _ in range(k)]
        sigma = rng.sample(range(k), k)
        tau = rng.sample(range(k), k)
        image = [[rows[i][j] for j in tau] for i in sigma]
        if rng.random() < 0.5:
            image = [list(col) for col in zip(*image)]
        key = class_key(ColorMatrix(rows))
        assert class_key(ColorMatrix(image)) == key
        assert ColorMatrix(key).order == ColorMatrix(rows).order


def plain_partitions(total, parts, top):
    """Nonincreasing tuples of `parts` ints in 0..top summing to `total`,
    in descending lexicographic order, by plain recursion."""
    if parts == 1:
        if total <= top:
            yield (total,)
        return
    for x in range(min(total, top), -1, -1):
        for rest in plain_partitions(total - x, parts - 1, x):
            yield (x,) + rest


def plain_positive_parts(total, parts, top):
    """As plain_partitions, with every part positive and parts >= 0."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for x in range(min(total, top), 0, -1):
        for rest in plain_positive_parts(total - x, parts - 1, x):
            yield (x,) + rest


def test_partition_walkers_match_a_plain_recursion():
    # the shared walker stops where the tied entries after it cannot
    # reach the total; the sequences must not change
    grid = [(t, p) for t in range(13) for p in range(1, 9)]
    grid += [(40, 8), (33, 5), (21, 7)]
    for total, parts in grid:
        assert list(matrix._partitions(total, parts)) == list(
            plain_partitions(total, parts, total)), (total, parts)
    for total, parts in grid + [(t, 0) for t in range(3)]:
        assert list(matrix._positive_parts(total, parts)) == list(
            plain_positive_parts(total, parts, total)), (total, parts)
