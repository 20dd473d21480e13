"""Seeded inputs and timed rounds of the three benchmark workloads.

``INPUTS[name](seed)`` builds everything a round needs before the first
timed call.  ``ROUNDS[name](inputs, probe)`` makes one round of timed calls
into ambigcolor's public functions, on the clock of a running
``hostspeed.SpeedProbe``, and returns a ``Round``: what each call returned,
how long each item took and how many operations of each kind were attempted
and failed.  Calls go through module attributes (``matrix.classify``,
not a name imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass, field

from ambigcolor import cli, graphcore, matrix, maximality, perfection
from hostspeed import SpeedProbe
from ambigcolor.errors import ReconstructionError, ResourceLimitError

EXHAUSTIVE_MAX_N = 7


def exhaustive_commands(max_n):
    """The two harness invocations, with the default k list {2, 3, 4}."""
    return tuple((kind, ["verify", "--theorem", theorem, "--max-n", str(max_n),
                         "--format", "json"])
                 for kind, theorem in (("theorem1", "1"), ("turan", "turan")))


# certify: twelve matrices at each order 10..20, alternating k = 3 and k = 4,
# the first two slots special where a special matrix fits its cap.
# canonical_form walks at least prod A(i,j)! leaves (refinement never splits
# twins), so that product is capped wherever canonical_form runs on the
# certificate: on every special matrix, and on normal ones of order <= 16.
# The coloring backtracker in is_maximal_ambiguous has a heavy tail on large
# twin classes, so normal entries stay at or below CERTIFY_MAX_ENTRY[k].
# Every matrix is presented under one random simultaneous row and column
# permutation, so that no vertex order is favoured.  The matrices and their
# permutations come from one fixed generator seed, CERTIFY_CORPUS; --seed
# draws the removed edges.  Under random vertex orders an item's cost swings
# up to 10x (see the FOUND line on vertex order), and 132 matrices drawn
# afresh per seed put item_ms_p90 0.3 to 0.5 apart between seeds, wider
# than its 0.25 bound.
CERTIFY_CORPUS = "certify-corpus"
CERTIFY_ORDERS = range(10, 21)
CERTIFY_PER_ORDER = 12
CERTIFY_SPECIAL_SLOTS = (0, 1)
CERTIFY_MAX_ENTRY = {3: 3, 4: 2}
SPECIAL_FACTORIAL_CAP = 1296   # 3!^4
NORMAL_FACTORIAL_CAP = 288     # 3!^2 2!^3
CANON_MAX_N = 16               # graphcore.DEFAULT_CANON_MAX_N

# perfect: 24 graphs at each order 9..13, six of them with a planted odd
# hole or odd antihole component.  The cost of is_perfect doubles with each
# order; with an odd number of orders the median item falls inside the
# middle order's group rather than on the border between two orders, where
# it would jump between seeds.
PERFECT_ORDERS = range(9, 14)
PERFECT_PER_ORDER = 24
PERFECT_PLANTED_SLOTS = (3, 7, 11, 15, 19, 23)
HOLES = ("C5", "C7", "co-C7")


@dataclass
class Round:
    """One round: outputs, per-item latencies (s) and where on the probe's
    clock each item ran, and operation counts."""
    probe: SpeedProbe
    outputs: list = field(default_factory=list)
    item_s: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)      # kind -> [attempted, failed]

    def timed(self, fn, *args):
        t0 = self.probe.now()
        out = fn(*args)
        return out, self.probe.now() - t0

    def add_item(self, start, seconds, output):
        """One item that began at `start` and spent `seconds` in timed
        calls."""
        self.item_s.append(seconds)
        self.intervals.append((start, self.probe.now()))
        self.outputs.append(output)

    def count(self, kind, failed=False):
        entry = self.ops.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += int(failed)

    @property
    def normalized_s(self):
        """Item latencies at the reference host speed."""
        return [t / self.probe.factor(a, b)
                for t, (a, b) in zip(self.item_s, self.intervals)]


def factorial_product(entries):
    return math.prod(math.factorial(x) for row in entries for x in row)


# ---------------------------------------------------------------------------
# matrix generators (shared by certify and perfect)
# ---------------------------------------------------------------------------

MATRIX_TRIES = 50


def _add_mass(rng, entries, positions, units, factorial_cap, max_entry):
    """Add `units` ones at random positions, keeping every entry at most
    `max_entry` and the product of the entries' factorials at most
    `factorial_cap`; False when no position can take another unit."""
    for _ in range(units):
        prod = factorial_product(entries)
        open_ = [(i, j) for i, j in positions
                 if entries[i][j] < max_entry
                 and prod * (entries[i][j] + 1) <= factorial_cap]
        if not open_:
            return False
        i, j = rng.choice(open_)
        entries[i][j] += 1
    return True


def normal_matrix(rng, k, n, factorial_cap=math.inf, max_entry=math.inf):
    """Positive diagonal, a cyclic permutation on a seeded block of size
    r >= 2, and the remaining mass spread over the block and the diagonal
    outside it.  None after MATRIX_TRIES draws that all ran out of room."""
    for _ in range(MATRIX_TRIES):
        r = rng.randint(2, k)
        if n < k + r:
            continue
        block = sorted(rng.sample(range(k), r))
        entries = [[int(i == j) for j in range(k)] for i in range(k)]
        for a in range(r):
            entries[block[a]][block[(a + 1) % r]] += 1
        positions = ([(i, j) for i in block for j in block]
                     + [(i, i) for i in range(k) if i not in block])
        if _add_mass(rng, entries, positions, n - k - r, factorial_cap,
                     max_entry):
            return entries
    return None


def special_matrix(rng, k, n, factorial_cap=math.inf):
    """Positive diagonal plus a single off-diagonal 1.  None after
    MATRIX_TRIES draws that all ran out of room."""
    if n < k + 1:
        return None
    for _ in range(MATRIX_TRIES):
        entries = [[int(i == j) for j in range(k)] for i in range(k)]
        i, j = rng.sample(range(k), 2)
        entries[i][j] = 1
        if _add_mass(rng, entries, [(d, d) for d in range(k)], n - k - 1,
                     factorial_cap, math.inf):
            return entries
    return None


def permuted(rng, entries):
    """The same matrix under one seeded simultaneous row and column
    permutation: the class is kept and G(A) stays isomorphic."""
    order = rng.sample(range(len(entries)), len(entries))
    return [[entries[p][q] for q in order] for p in order]


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

def exhaustive_inputs(seed):
    # the harnesses are fixed commands; the seed has nothing to vary
    return exhaustive_commands(EXHAUSTIVE_MAX_N)


def exhaustive_round(commands, probe):
    rnd = Round(probe)
    for kind, argv in commands:
        start = probe.now()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, seconds = rnd.timed(cli.main, argv)
        rnd.add_item(start, seconds, (kind, code, buf.getvalue()))
        rnd.count(kind)
    return rnd


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifyItem:
    entries: tuple            # the generated matrix, rows as tuples
    verdict: str              # "Normal" or "Special", known from construction
    k: int
    n: int
    edge: tuple               # two (i, j, t) labels adjacent in G(A)


def _certify_item(corpus, rng, slot, n):
    """The slot's matrix from the `corpus` generator, its removed edge from
    `rng`."""
    k = 3 + slot % 2
    entries = None
    if slot in CERTIFY_SPECIAL_SLOTS:
        verdict = "Special"
        entries = special_matrix(corpus, k, n, SPECIAL_FACTORIAL_CAP)
    if entries is None:         # a normal slot, or no special matrix fits
        verdict = "Normal"
        cap = NORMAL_FACTORIAL_CAP if n <= CANON_MAX_N else math.inf
        entries = normal_matrix(corpus, k, n, cap, CERTIFY_MAX_ENTRY[k])
    entries = permuted(corpus, entries)
    labels = [(i, j, t) for i in range(k) for j in range(k)
              for t in range(1, entries[i][j] + 1)]
    while True:
        a, b = rng.sample(labels, 2)
        if a[0] != b[0] and a[1] != b[1]:
            break
    edge = ((a[0] + 1, a[1] + 1, a[2]), (b[0] + 1, b[1] + 1, b[2]))
    return CertifyItem(tuple(map(tuple, entries)), verdict, k, n, edge)


def certify_inputs(seed):
    corpus = random.Random(CERTIFY_CORPUS)
    rng = random.Random(f"certify-{seed}")
    return [_certify_item(corpus, rng, slot, n)
            for n in CERTIFY_ORDERS for slot in range(CERTIFY_PER_ORDER)]


def without_edge(g, labels):
    """G minus the edge between the two labelled vertices (benchmark code,
    not timed)."""
    u, v = (g.labels.index(x) for x in labels)
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return graphcore.SimpleGraph.from_rows(rows, g.labels)


def _reconstruct(g, k):
    try:
        return maximality.reconstruct_matrix(g, k)[0]
    except (ReconstructionError, ResourceLimitError) as exc:
        return exc.with_traceback(None)     # keep no frames alive


def certify_round(items, probe):
    rnd = Round(probe)
    for item in items:
        start = probe.now()
        m = matrix.ColorMatrix(item.entries)
        g, t_build = rnd.timed(graphcore.build_graph, m)
        verdict, t_class = rnd.timed(matrix.classify, m)
        h = without_edge(g, item.edge)
        max_g, t1 = rnd.timed(maximality.is_maximal_ambiguous, g, item.k)
        max_h, t2 = rnd.timed(maximality.is_maximal_ambiguous, h, item.k)
        rec_g, t3 = rnd.timed(_reconstruct, g, item.k)
        rec_h, t4 = rnd.timed(_reconstruct, h, item.k)
        rnd.add_item(start, t_build + t_class + t1 + t2 + t3 + t4,
                     (item, g, verdict.verdict, max_g, max_h, rec_g, rec_h))
        rnd.count("build_graph")
        rnd.count("classify")
        rnd.count("is_maximal_ambiguous")
        rnd.count("is_maximal_ambiguous")
        rnd.count("reconstruct_matrix", isinstance(rec_g, ResourceLimitError))
        rnd.count("reconstruct_matrix", isinstance(rec_h, ResourceLimitError))
    return rnd


# ---------------------------------------------------------------------------
# perfect
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerfectItem:
    graph: object             # SimpleGraph
    perfect: bool             # known from construction
    description: str


def hole_edges(name):
    """Order and edges of C5, C7 or the complement of C7 on 0..h-1."""
    h = 5 if name == "C5" else 7
    cycle = {(i, i + 1) for i in range(h - 1)} | {(0, h - 1)}
    return h, [p for p in itertools.combinations(range(h), 2)
               if (p in cycle) != (name == "co-C7")]


def plant(g, hole, rng):
    """Disjoint union of g and the hole, the hole's vertices placed at
    seeded positions of the combined vertex order."""
    h, edges = hole_edges(hole)
    n = g.n + h
    hole_pos = sorted(rng.sample(range(n), h))
    taken = set(hole_pos)
    rest = [v for v in range(n) if v not in taken]
    out = [(rest[u], rest[v]) for u, v in g.edges()]
    out += [(hole_pos[u], hole_pos[v]) for u, v in edges]
    return graphcore.SimpleGraph(n, out)


def _perfect_item(rng, slot, n):
    planted = slot in PERFECT_PLANTED_SLOTS
    base_n = n
    if planted:
        hole = HOLES[PERFECT_PLANTED_SLOTS.index(slot) % len(HOLES)]
        if n - hole_edges(hole)[0] < 4:
            hole = "C5"
        base_n = n - hole_edges(hole)[0]
    generator = special_matrix if slot % 4 == 0 else normal_matrix
    k = 2 + slot % 3
    entries = generator(rng, k, base_n) or special_matrix(rng, 2, base_n)
    g = graphcore.build_graph(matrix.ColorMatrix(entries))
    if not planted:
        return PerfectItem(g, True, f"G({entries})")
    return PerfectItem(plant(g, hole, rng), False, f"G({entries}) + {hole}")


def perfect_inputs(seed):
    rng = random.Random(f"perfect-{seed}")
    return [_perfect_item(rng, slot, n)
            for n in PERFECT_ORDERS for slot in range(PERFECT_PER_ORDER)]


def perfect_round(items, probe):
    rnd = Round(probe)
    for item in items:
        start = probe.now()
        a, t1 = rnd.timed(perfection.is_perfect, item.graph, "definition")
        b, t2 = rnd.timed(perfection.is_perfect, item.graph, "holes")
        rnd.add_item(start, t1 + t2, (item, a, b))
        rnd.count("is_perfect.definition")
        rnd.count("is_perfect.holes")
    return rnd


INPUTS = {"exhaustive": exhaustive_inputs, "certify": certify_inputs,
          "perfect": perfect_inputs}
ROUNDS = {"exhaustive": exhaustive_round, "certify": certify_round,
          "perfect": perfect_round}
