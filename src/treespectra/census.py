"""Exhaustive generation of unlabeled trees and the cross-checked catalog.

Free trees are produced from the classic rooted level-sequence successor
rule, filtered down to one representative per isomorphism class by keeping
only sequences that equal the centroid-rooted canonical form of their own
underlying tree.  That test is read off the sequence itself: the sizes of
the root's subtrees, and for a tree with two centroids a comparison of its
two halves, each rooted at its own centroid, as in Wright, Richmond,
Odlyzko and McKay, "Constant time generation of free trees" (SIAM J.
Comput. 15, 1986): the heavy half must be at least the rest.  networkx's
``nonisomorphic_trees`` implements that paper, and the tests compare it
with this generator.  A tree is built only for a sequence that survives it,
and the catalog keeps that sequence as the entry's canonical form, so no
entry is canonicalized a second time.  Any other tree's canonical form is
read off :meth:`Tree.bfs`: one search finds the centroids, and one more per
centroid roots the form there.  An independent brute-force count backs the
census for small orders: numpy decodes every Prufer code in blocks to the
Matula number of its tree rooted at one fixed vertex (D. W. Matula, SIAM
Review 10, 1968: a leaf is 1, any other vertex the product of prime(number
of c) over its children c, so isomorphic rooted trees, and only they,
share a number) and counts the codes per number in one tally.  Moving the
root to a child is integer arithmetic on the number, and the numbers it
links are the rootings of one free tree, so the count builds no tree.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, islice

import numpy as np

from .errors import CapExceeded
from .gauntlet import certify_many
from .trees import Tree, _integer

__all__ = [
    "ORDER_CAP",
    "CatalogEntry",
    "free_trees",
    "canonical_levels",
    "canonical_relabel",
    "prufer_count_oracle",
    "tree_name",
    "build_catalog",
    "FILTERS",
]

ORDER_CAP = 16

# The catalog entries each --filter choice keeps.
_KEEPS = {
    "all": lambda entry: True,
    "extremal": lambda entry: entry.extremal,
    "unit_p1": lambda entry: entry.m1_class == "p-1",
    "unit_p2": lambda entry: entry.m1_class == "p-2",
}

FILTERS = tuple(_KEEPS)


@dataclass(frozen=True)
class CatalogEntry:
    """One isomorphism class with its verdicts, in canonical labeling."""

    canonical: str
    n: int
    p: int
    extremal: bool
    lambda_ratios: tuple[str, ...]
    m1_class: str
    m1_exact: int
    name: str
    edges: tuple[tuple[int, int], ...]


def _level_sequences(n: int):
    # Successor rule on level sequences (root at level 1), reverse
    # lexicographic order starting from the path (1, 2, ..., n).
    # p and q are found walking left from the end; seq[0] = 1 stops p.
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = n - 1
        while p and seq[p] <= 2:
            p -= 1
        if not p:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        period = p - q
        for i in range(p, n):
            seq[i] = seq[i - period]


def _tree_from_levels(levels) -> Tree:
    # Parent of each position is the most recent position one level up.
    # Position k is vertex k, so the edges form a tree on 1..n whose labels
    # first appear in order: the checks and relabeling of from_edge_list
    # would change nothing.  A parent has a lower label than its children,
    # which join it in increasing order, so each edge is (parent, child)
    # and each neighbour list comes out sorted, parent first.
    n = len(levels)
    last_at = [0] * (n + 1)
    last_at[levels[0]] = 1
    adjacency: list = [[] for _ in range(n + 1)]
    edges = []
    for v in range(2, n + 1):
        level = levels[v - 1]
        u = last_at[level - 1]
        edges.append((u, v))
        adjacency[u].append(v)
        adjacency[v].append(u)
        last_at[level] = v
    return Tree(n=n, edges=tuple(edges), adjacency=tuple(map(tuple, adjacency)))


def _centroids(tree: Tree) -> tuple[int, ...]:
    # Subtree sizes from one Tree.bfs out of vertex 1, its order read
    # backwards, children before parents; a centroid's heaviest side, its
    # largest child subtree or everything above it, is the lightest.
    n = tree.n
    _, parent, order = tree.bfs(1)
    size = [1] * (n + 1)
    heaviest = [0] * (n + 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
        heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    weight = {v: max(heaviest[v], n - size[v]) for v in range(1, n + 1)}
    best = min(weight.values())
    return tuple(v for v, w in weight.items() if w == best)


def _rooted_levels(tree: Tree, root: int) -> tuple[int, ...]:
    # Level sequence rooted at ``root`` (root at level 1) with every
    # vertex's child blocks in decreasing order.  One Tree.bfs out of the
    # root, its order read backwards, puts children before parents, so one
    # pass builds every block bottom-up, with no recursion.
    dist, parent, order = tree.bfs(root)
    child_blocks: list = [[] for _ in range(tree.n + 1)]
    for v in reversed(order):
        blocks = child_blocks[v]
        child_blocks[v] = None  # frees each block once used: O(n) live, not O(n^2)
        blocks.sort(reverse=True)
        out = [dist[v] + 1]
        for block in blocks:
            out += block
        if v == root:
            return tuple(out)
        child_blocks[parent[v]].append(tuple(out))


def canonical_levels(tree: Tree) -> tuple[int, ...]:
    """Centroid-rooted maximal level sequence; equal iff trees isomorphic."""
    return max(_rooted_levels(tree, c) for c in _centroids(tree))


def _levels_text(levels) -> str:
    return ",".join(map(str, levels))


def canonical_relabel(tree: Tree) -> Tree:
    """The same tree rebuilt with labels 1..n in canonical preorder."""
    return _tree_from_levels(canonical_levels(tree))


def free_trees(n: int):
    """Yield one representative per isomorphism class of trees on n vertices.

    Each is the tree of one level sequence kept by the generator, which is
    already that tree's canonical form (the catalog keeps the sequence
    itself), so each class shows up once, in the successor rule's order.
    An order below 1, a bool or a non-integer raises ValueError, and one
    above ``ORDER_CAP`` CapExceeded.
    """
    for seq in _free_levels(n):
        yield _tree_from_levels(seq)


def _order(n) -> int:
    # ``n`` as an int order: a bool, a non-integer or an order below 1
    # raises ValueError, and one above ORDER_CAP CapExceeded.
    order = _integer(n)
    if order is None:
        raise ValueError(f"order must be an integer, got {n!r}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > ORDER_CAP:
        raise CapExceeded(f"order {order} above the supported cap {ORDER_CAP}")
    return order


def _free_levels(n: int):
    # The rooted level sequences that coincide with the canonical form of
    # their own underlying free tree: one per isomorphism class.
    n = _order(n)
    for seq in _level_sequences(n):
        start, heaviest = _heaviest_root_block(seq)
        if heaviest + heaviest < n:
            # The root is the only centroid, and every successor-rule
            # sequence is already the maximal form of its rooted tree.
            yield seq
        elif heaviest + heaviest == n:
            # Two centroids, the root and its heavy child, which split the
            # tree into two halves of n/2 vertices each.  As in Wright,
            # Richmond, Odlyzko and McKay's generator, the form rooted at
            # the root is the canonical one exactly when the heavy half,
            # rooted at the child, is at least the rest.
            end = start + heaviest
            if tuple(level - 1 for level in seq[start:end]) >= seq[:start] + seq[end:]:
                yield seq
        # Otherwise the root is no centroid, and the canonical form of the
        # tree is rooted at one, so it is not this sequence.


def _heaviest_root_block(seq) -> tuple[int, int]:
    # (start, order) of the root's first largest subtree.  Each subtree's
    # block of the level sequence starts at a level-2 entry and runs to
    # the next one.
    n = len(seq)
    best = (1, 0)
    start = 1
    for _ in range(seq.count(2) - 1):
        end = seq.index(2, start + 1)
        if end - start > best[1]:
            best = (start, end - start)
        start = end
    return best if best[1] >= n - start else (start, n - start)


# Rows per numpy pass, at most.  A pass decodes the n^k codes that share
# their high n-2-k digits, for the largest such k, and adds their root
# numbers to the tally; the low digits and their vertex masks are built
# once per call and reused by every pass.  The cap bounds transient memory:
# the census benchmark (n up to 8) peaked at 32.6 MB RSS with 8192 rows and
# at 38.2 MB with 32768, no faster.
_PRUFER_ROWS = 8192


@cache
def _matula_primes():
    # prime(m) at index m, 2 at index 1, for every prime below 2^16; index 0
    # is unused.  Built on first use, so importing census costs nothing.
    sieve = np.ones(1 << 16, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1 << 8):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.concatenate(([0], np.flatnonzero(sieve))).astype(np.uint16)
    primes.flags.writeable = False  # shared by every caller
    return primes


def _prufer_tally(n: int) -> np.ndarray:
    """Labeled trees on 0..n-1 per Matula number of the tree rooted at n-1.

    Entry v of the int64 array (2^16 entries) counts the Prufer codes over
    0..n-1 whose tree, rooted at n-1, has Matula number v.  All n^(n-2)
    codes are decoded, one block at a time, and each block's root numbers
    are bincounted into the tally.

    A block holds the n^k codes that share their high n-2-k digits, k as
    large as ``_PRUFER_ROWS`` allows; the low digits, and the masks of the
    vertices absent from each of their suffixes, are the same in every
    block.  Vertex masks are uint16.  Step i removes the lowest live vertex
    absent from the rest of the code, whose index is the exponent of that
    mask bit, and hangs it under digit i; the last leaf hangs under n-1,
    which is never removed.  Each vertex carries the product of
    prime(number of c) over the children c removed so far, which is the
    number of the subtree hung below it; a vertex is removed only after its
    children, so its number is final when it is.  Every such subtree has at
    most n vertices, and no rooted tree on 9 or fewer has a number above
    19 577, so for n <= 9 uint16 holds them exactly; prime(number) is read
    off ``_matula_primes``.
    """
    primes = _matula_primes()
    m = n - 2
    k = 0
    while k < m and n ** (k + 1) <= _PRUFER_ROWS:
        k += 1
    h = m - k
    rows = n**k
    low = np.empty((k, rows), dtype=np.uint8)
    index = np.arange(rows)
    for j in range(k - 1, -1, -1):
        index, low[j] = np.divmod(index, n)
    # absent[j, r]: the vertices that occur nowhere in low digits j.. of row
    # r; one digit per numpy row, so each step reads contiguous memory.
    present = np.left_shift(1, low.astype(np.uint16))
    absent = ~np.bitwise_or.accumulate(present[::-1], axis=0)[::-1]
    absent_low = absent[0] if k else np.full(rows, 0xFFFF, dtype=np.uint16)
    # number[v * rows + r]: the Matula number of what hangs below vertex v
    # in row r so far.
    column = np.arange(rows)
    below = column - rows  # + rows * (leaf + 1) finds the leaf's number
    parents = [column + rows * low[j].astype(np.intp) for j in range(k)]
    number = np.empty(n * rows, dtype=np.uint16)
    by_vertex = number.reshape(n, rows)
    tally = np.zeros(1 << 16, dtype=np.int64)
    for block in range(n**h):
        high = [block // n**j % n for j in range(h - 1, -1, -1)]
        alive = np.full(rows, (1 << (n - 1)) - 1, dtype=np.uint16)  # all but the root
        number.fill(1)
        for i in range(n - 1):
            if i < h:  # high digits i.. are the same in every row
                later = sum({1 << d for d in high[i:]})
                free = alive & absent_low & (0xFFFF ^ later)
            elif i < m:
                free = alive & absent[i - h]
            else:
                free = alive
            bit = free & -free
            leaf_1 = np.frexp(bit.astype(np.float32))[1]  # leaf + 1
            child = primes.take(number.take(below + rows * leaf_1))
            if h <= i < m:  # one parent per row, each in its own column
                np.multiply.at(number, parents[i - h], child)
            else:  # the parent is the same in every row
                by_vertex[high[i] if i < h else n - 1] *= child
            alive ^= bit
        counts = np.bincount(by_vertex[n - 1])
        tally[: counts.size] += counts
    return tally


def _rerootings(number: int, primes: list[int]) -> list[int]:
    # Matula numbers of the same free tree rooted at each child of the root
    # instead.  A child numbered i, prime(i) dividing ``number``, takes the
    # rest of the old root as one more child, so it becomes the root
    # i * prime(number / prime(i)).  One trial-division pass gives one move
    # per distinct prime factor.  ``primes`` is _matula_primes() as a list;
    # for n <= 9 the rest has at most 8 vertices, so its number is at most
    # 2 221, well inside the table.
    moves = []
    rest = number
    i = 1
    while rest > 1:
        p = primes[i]
        if p * p > rest:  # what is left is prime
            i, p = bisect_left(primes, rest), rest
        if rest % p == 0:
            moves.append(i * primes[number // p])
            while rest % p == 0:
                rest //= p
        i += 1
    return moves


def _prufer_classes(n: int) -> Counter:
    # Number of labeled trees in each isomorphism class, keyed by the least
    # Matula number among the class's rootings.  A move's inverse is a move
    # out of its result, and moves along edges reach every rooting, so the
    # classes are the components of _rerootings.  Each is flooded from its
    # least number, since the tally's numbers are taken in ascending order.
    tally = _prufer_tally(n)
    primes = _matula_primes().tolist()
    key: dict[int, int] = {}
    classes: Counter = Counter()
    for value in np.flatnonzero(tally).tolist():
        if value not in key:
            key[value] = value
            stack = [value]
            while stack:
                for moved in _rerootings(stack.pop(), primes):
                    if moved not in key:
                        key[moved] = value
                        stack.append(moved)
        classes[key[value]] += int(tally[value])
    return classes


def prufer_count_oracle(n: int) -> int:
    """Count isomorphism classes by brute force over all n^(n-2) labeled trees.

    Only sensible for n in 2..9; any other order, a bool or a non-integer
    raises CapExceeded.  Every Prufer code is decoded, in numpy blocks of up
    to ``_PRUFER_ROWS`` codes that share their high digits, to the Matula
    number of its tree rooted at n-1, and ``_prufer_tally`` counts the codes
    per number: one number per rooted tree on n vertices, 286 at n = 9.
    ``_rerootings`` moves the root along an edge by arithmetic on the
    number, and the classes are the sets of numbers it links.  Nothing here
    builds a tree or shares code with the level-sequence generator it checks.
    """
    # trees._integer's rule, restated: the oracle names nothing of trees
    try:
        order = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        order = None
    if order is None or not 2 <= order <= 9:
        raise CapExceeded(f"brute-force census supports 2..9, got {n!r}")
    return len(_prufer_classes(order))


def tree_name(tree: Tree) -> str:
    """Human name for the common shapes: P_n, K_{1,k}, spider(...); else ''."""
    if not tree.majors:
        return f"P_{tree.n}"
    if len(tree.majors) == 1:
        center = tree.majors[0]
        row = tree.bfs(center)[0]
        legs = sorted(row[u] for u in tree.pendants)
        if all(leg == 1 for leg in legs):
            return f"K_{{1,{len(legs)}}}"
        return "spider(" + ",".join(map(str, legs)) + ")"
    return ""


# Kept sequences per certify_many call, at most, all of one order: one
# LAPACK call per chunk, and chunks small enough to keep a pool busy.
_CATALOG_CHUNK = 64


def _catalog_chunks(max_n: int):
    # The kept sequences of orders 1..max_n in chunks of one order.
    for n in range(1, max_n + 1):
        sequences = _free_levels(n)
        while chunk := list(islice(sequences, _CATALOG_CHUNK)):
            yield chunk


def _catalog_entries(chunk, tol: float) -> list[CatalogEntry]:
    # ``chunk`` holds kept sequences of _free_levels of one order: each its
    # tree's canonical form.
    trees = [_tree_from_levels(levels) for levels in chunk]
    if trees[0].n == 1:
        return [
            CatalogEntry(
                canonical=_levels_text(levels),
                n=1,
                p=0,
                extremal=False,
                lambda_ratios=(),
                m1_class="other",
                m1_exact=0,  # L - I on one vertex is (-1)
                name="P_1",
                edges=(),
            )
            for levels in chunk
        ]

    entries = []
    for levels, tree, cert in zip(chunk, trees, certify_many(trees, tol)):
        report = cert.report
        entries.append(
            CatalogEntry(
                canonical=_levels_text(levels),
                n=tree.n,
                p=report.p,
                extremal=report.extremal,
                lambda_ratios=tuple(str(prm.ratio) for prm in report.lambda_set),
                m1_class=report.m1_class,
                m1_exact=cert.m1_exact,
                name=tree_name(tree),
                edges=tree.edges,
            )
        )
    return entries


def build_catalog(max_n: int, filter_name: str = "all", jobs: int = 1, tol: float = 1e-12):
    """Catalog every tree of order <= max_n with cross-checked verdicts.

    Each entry of order >= 2 passes the checks of :func:`certify`; any
    disagreement raises OracleDisagreement carrying the offending edge
    list.  The trees are certified by :func:`certify_many` in chunks of at
    most ``_CATALOG_CHUNK`` trees of one order, every exact check of a
    chunk before its one LAPACK call.  So with two faulty trees in one
    chunk, the error raised may name the later one, when its fault is an
    exact one.  Entries are sorted by (n, canonical form).  ``jobs > 1``
    fans the chunks out to worker processes, order preserved; the pool
    never has more workers than the machine has CPUs.  A ``max_n`` or ``jobs`` below 1, a bool or
    a non-integer raises ValueError, and a ``max_n`` above ``ORDER_CAP``
    CapExceeded.  A ``tol`` that is not finite and >= 0 raises ValueError
    too, even at ``max_n`` 1, where no tree reaches the float route.
    """
    if filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}; choose from {FILTERS}")
    max_n = _order(max_n)
    workers = _integer(jobs)
    if workers is None or workers < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if not 0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    chunks = _catalog_chunks(max_n)
    entries_for = partial(_catalog_entries, tol=tol)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: multiprocessing adds about 2 MB to every process
        # that imports the package, and only this branch needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(entries_for, chunks))
    else:
        per_chunk = list(map(entries_for, chunks))

    entries = [entry for entry in chain.from_iterable(per_chunk) if _KEEPS[filter_name](entry)]
    entries.sort(key=lambda e: (e.n, e.canonical))
    return entries
