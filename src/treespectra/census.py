"""Exhaustive generation of unlabeled trees and the cross-checked catalog.

:func:`certify` is the one place where the congruence rule, the exact
multiplicities and the numeric clusters are checked against each other;
``check`` and the catalog both go through it.

Free trees are produced from the classic rooted level-sequence successor
rule, filtered down to one representative per isomorphism class by keeping
only sequences that equal the centroid-rooted canonical form of their own
underlying tree; that test is read off the sizes of the root's subtrees,
and a tree is built only for a sequence that survives it.  An independent
brute-force count (decode every Prufer sequence, bucket by canonical
shape) backs the census for small orders.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import product

from .classify import ClassificationReport, classify_m1
from .errors import CapExceeded, OracleDisagreement
from .exact import (
    IntPolynomial,
    LambdaParam,
    char_poly,
    laplacian,
    minimal_poly_lambda,
    rational_nullity,
    root_multiplicity,
)
from .numeric import Spectrum, cluster_multiplicity, eigen_symmetric
from .trees import Tree, _build

__all__ = [
    "ORDER_CAP",
    "CatalogEntry",
    "LambdaRow",
    "Certificate",
    "certify",
    "free_trees",
    "canonical_levels",
    "canonical_form",
    "canonical_relabel",
    "prufer_count_oracle",
    "tree_name",
    "build_catalog",
    "FILTERS",
]

ORDER_CAP = 16

FILTERS = ("all", "extremal", "unit_p1", "unit_p2")


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
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = max((i for i in range(n) if seq[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        period = p - q
        for i in range(p, n):
            seq[i] = seq[i - period]


def _tree_from_levels(levels) -> Tree:
    # Parent of each position is the most recent position one level up.
    # Position k is vertex k, so the edges form a tree on 1..n whose labels
    # first appear in order: the checks and relabeling of from_edge_list
    # would change nothing.
    last_at = {levels[0]: 1}
    edges = []
    for pos in range(1, len(levels)):
        level = levels[pos]
        edges.append((last_at[level - 1], pos + 1))
        last_at[level] = pos + 1
    return _build(len(levels), edges)


def _centroids(tree: Tree) -> tuple[int, ...]:
    n = tree.n
    if n == 1:
        return (1,)
    order = []
    parent = [0] * (n + 1)
    parent[1] = 1
    stack = [1]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in tree.adjacency[v]:
            if parent[w] == 0:
                parent[w] = v
                stack.append(w)
    size = [1] * (n + 1)
    for v in reversed(order):
        if v != 1:
            size[parent[v]] += size[v]
    best = None
    out = []
    for v in range(1, n + 1):
        heaviest = n - size[v]
        for w in tree.adjacency[v]:
            if parent[w] == v and w != 1:
                heaviest = max(heaviest, size[w])
        if best is None or heaviest < best:
            best = heaviest
            out = [v]
        elif heaviest == best:
            out.append(v)
    return tuple(sorted(out))


def _rooted_levels(tree: Tree, root: int) -> tuple[int, ...]:
    # Level sequence rooted at ``root`` (root at level 1) with every
    # vertex's child blocks in decreasing order.  Children come before
    # parents in the reversed breadth-first order, so one pass over
    # list-indexed parent and depth arrays builds every block bottom-up,
    # with no recursion.
    parent = [0] * (tree.n + 1)
    depth = [0] * (tree.n + 1)
    depth[root] = 1
    order = [root]
    for v in order:
        for w in tree.adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    child_blocks: list = [[] for _ in range(tree.n + 1)]
    for v in reversed(order):
        blocks = child_blocks[v]
        child_blocks[v] = None  # frees each block once used: O(n) live, not O(n^2)
        blocks.sort(reverse=True)
        out = [depth[v]]
        for block in blocks:
            out += block
        if v == root:
            return tuple(out)
        child_blocks[parent[v]].append(tuple(out))


def canonical_levels(tree: Tree) -> tuple[int, ...]:
    """Centroid-rooted maximal level sequence; equal iff trees isomorphic."""
    return max(_rooted_levels(tree, c) for c in _centroids(tree))


def canonical_form(tree: Tree) -> str:
    return ",".join(map(str, canonical_levels(tree)))


def canonical_relabel(tree: Tree) -> Tree:
    """The same tree rebuilt with labels 1..n in canonical preorder."""
    return _tree_from_levels(canonical_levels(tree))


def free_trees(n: int):
    """Yield one representative per isomorphism class of trees on n vertices.

    A rooted level sequence survives exactly when it coincides with the
    canonical form of its own underlying free tree, so each class shows up
    once, in the successor rule's order.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > ORDER_CAP:
        raise CapExceeded(f"order {n} above the supported cap {ORDER_CAP}")
    for seq in _level_sequences(n):
        heaviest = _heaviest_root_block(seq)
        if heaviest + heaviest < n:
            # The root is the only centroid, and every successor-rule
            # sequence is already the maximal form of its rooted tree.
            yield _tree_from_levels(seq)
        elif heaviest + heaviest == n:
            # Two centroids, the root and its heavy child: compare both.
            tree = _tree_from_levels(seq)
            if canonical_levels(tree) == seq:
                yield tree
        # Otherwise the root is no centroid, and the canonical form of the
        # tree is rooted at one, so it is not this sequence.


def _heaviest_root_block(seq) -> int:
    # Order of the root's largest subtree.  Each subtree's block of the
    # level sequence starts at a level-2 entry and runs to the next one.
    n = len(seq)
    heaviest = 0
    start = 1
    for _ in range(seq.count(2) - 1):
        end = seq.index(2, start + 1)
        if end - start > heaviest:
            heaviest = end - start
        start = end
    return max(heaviest, n - start)


def _decoded_key(code, n: int, memo: dict):
    """Decode a Prufer code (a tuple over 0..n-1) and key its tree in one pass.

    Returns ``(key, parent)``.  ``key`` is an interned centroid-rooted AHU
    id: within one ``memo``, two codes get the same key iff their trees are
    isomorphic.  ``parent[v]`` is v's neighbour towards the root n-1, for
    every v < n-1.
    """
    # Linear smallest-leaf decode: each removed leaf hangs under its code
    # entry, and the last one under n-1, which is never removed.  A vertex
    # is removed only after all of its children, so its rooted id (the
    # sorted tuple of child ids) and its subtree size are final at that
    # moment and are computed on the spot.
    root = n - 1
    degree = [1] * (n + 1)  # degree[n] is a sentinel that stops the leaf scan
    for x in code:
        degree[x] += 1
    parent = [root] * n
    kid_ids: list = [[] for _ in range(n)]
    ids = [0] * n
    size = [1] * n
    leaf_id = memo.setdefault((), len(memo))
    half = (n + 1) // 2
    # The vertices of size > n/2 form a path down from the root; the first
    # one removed is its lower end, the centroid.  A vertex of size exactly
    # n/2 is a child of the centroid and the second centroid.
    centroid = root
    twin = -1
    ptr = degree.index(1)
    leaf = ptr
    for x in code + (root,):
        kids = kid_ids[leaf]
        if kids:
            kids.sort()
            rid = memo.setdefault(tuple(kids), len(memo))
        else:
            rid = leaf_id
        ids[leaf] = rid
        parent[leaf] = x
        kid_ids[x].append(rid)
        s = size[leaf]
        size[x] += s
        if s >= half:
            if s + s == n:
                twin = leaf
            elif centroid == root:
                centroid = leaf
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr

    # Re-root at the centroid: only the ids along the root-to-centroid path
    # change.  ``up`` holds the id of everything above the current vertex.
    path = [centroid]
    while path[-1] != root:
        path.append(parent[path[-1]])
    up = []
    for i in range(len(path) - 1, 0, -1):
        kids = kid_ids[path[i]] + up
        kids.remove(ids[path[i - 1]])
        up = [memo.setdefault(tuple(sorted(kids)), len(memo))]
    kids = kid_ids[centroid] + up
    key = memo.setdefault(tuple(sorted(kids)), len(memo))
    if twin >= 0:
        kids.remove(ids[twin])
        down = memo.setdefault(tuple(sorted(kids)), len(memo))
        twin_key = memo.setdefault(tuple(sorted(kid_ids[twin] + [down])), len(memo))
        key = min(key, twin_key)
    return key, parent


def prufer_count_oracle(n: int) -> int:
    """Count isomorphism classes by brute force over all n^(n-2) labeled trees.

    Only sensible for n in 2..9; each code is decoded and bucketed by an
    interned centroid-canonical shape id in one pass.
    """
    if not 2 <= n <= 9:
        raise CapExceeded(f"brute-force census supports 2..9, got {n}")
    if n == 2:
        return 1
    memo: dict = {}
    seen: set[int] = set()
    for code in product(range(n), repeat=n - 2):
        seen.add(_decoded_key(code, n, memo)[0])
    return len(seen)


def tree_name(tree: Tree) -> str:
    """Human name for the common shapes: P_n, K_{1,k}, spider(...); else ''."""
    if not tree.majors:
        return f"P_{tree.n}"
    if len(tree.majors) == 1:
        center = tree.majors[0]
        row = tree.distance_row(center)
        legs = sorted(row[u] for u in tree.pendants)
        if all(leg == 1 for leg in legs):
            return f"K_{{1,{len(legs)}}}"
        return "spider(" + ",".join(map(str, legs)) + ")"
    return ""


@dataclass(frozen=True)
class LambdaRow:
    """One extremal eigenvalue with its minimal polynomial and both multiplicities."""

    param: LambdaParam
    minimal_poly: IntPolynomial
    exact: int
    numeric: int


@dataclass(frozen=True)
class Certificate:
    """A tree's verdicts after every route agreed on them.

    ``report`` is the combinatorial verdict (already checked against the
    exact nullity at 1), ``spectrum`` the float route, ``lambda_rows`` one
    row per extremal eigenvalue, ``m1_numeric`` the numeric m(T,1) and
    ``reaches_p_minus_1`` whether some numeric cluster has size p-1.
    """

    report: ClassificationReport
    spectrum: Spectrum
    lambda_rows: tuple[LambdaRow, ...]
    m1_numeric: int
    reaches_p_minus_1: bool


def certify(tree: Tree, tol: float = 1e-12) -> Certificate:
    """Run the oracle gauntlet on a tree with at least two vertices.

    The congruence rule, the exact multiplicities (one characteristic
    polynomial per tree, built only when some eigenvalue is extremal) and
    the numeric clusters must agree on the extremal verdict, on the
    multiplicity p-1 of every extremal eigenvalue, and on m(T,1); any
    disagreement raises OracleDisagreement naming the quantity, each
    route's value and the tree's edges.
    """
    report = classify_m1(tree)
    p = report.p
    lap = laplacian(tree)
    spectrum = eigen_symmetric(lap, tol=tol)
    has_big_cluster = any(mult == p - 1 for _, mult in spectrum.clusters)
    if report.extremal != has_big_cluster:
        raise OracleDisagreement(
            f"extremal verdict {report.extremal} but numeric clusters "
            f"{spectrum.clusters} {'reach' if has_big_cluster else 'miss'} p-1={p - 1}",
            edges=tree.edges,
        )

    rows = []
    phi = char_poly(lap) if report.lambda_set else None
    for param in report.lambda_set:
        mu = minimal_poly_lambda(param)
        exact = root_multiplicity(phi, mu)
        numeric = cluster_multiplicity(spectrum, param.value)
        if exact != p - 1 or numeric != p - 1:
            raise OracleDisagreement(
                f"multiplicity of ratio {param.ratio} (value {param.value:.6f}) "
                f"is not p-1={p - 1} on every route: exact {exact}, numeric {numeric}",
                edges=tree.edges,
            )
        rows.append(LambdaRow(param=param, minimal_poly=mu, exact=exact, numeric=numeric))

    m1_numeric = cluster_multiplicity(spectrum, 1.0)
    if m1_numeric != report.m1_exact:
        raise OracleDisagreement(
            f"m(T,1) disagrees: numeric {m1_numeric}, exact {report.m1_exact}",
            edges=tree.edges,
        )
    return Certificate(
        report=report,
        spectrum=spectrum,
        lambda_rows=tuple(rows),
        m1_numeric=m1_numeric,
        reaches_p_minus_1=has_big_cluster,
    )


def _catalog_entry(tree: Tree, tol: float) -> CatalogEntry:
    if tree.n == 1:
        return CatalogEntry(
            canonical=canonical_form(tree),
            n=1,
            p=0,
            extremal=False,
            lambda_ratios=(),
            m1_class="other",
            m1_exact=rational_nullity(laplacian(tree), 1),
            name="P_1",
            edges=(),
        )

    report = certify(tree, tol).report
    return CatalogEntry(
        canonical=canonical_form(tree),
        n=tree.n,
        p=report.p,
        extremal=report.extremal,
        lambda_ratios=tuple(str(prm.ratio) for prm in report.lambda_set),
        m1_class=report.m1_class,
        m1_exact=report.m1_exact,
        name=tree_name(tree),
        edges=tree.edges,
    )


def _matches(entry: CatalogEntry, filter_name: str) -> bool:
    if filter_name == "all":
        return True
    if filter_name == "extremal":
        return entry.extremal
    if filter_name == "unit_p1":
        return entry.m1_class == "p-1"
    if filter_name == "unit_p2":
        return entry.m1_class == "p-2"
    raise ValueError(f"unknown filter {filter_name!r}; choose from {FILTERS}")


def build_catalog(max_n: int, filter_name: str = "all", jobs: int = 1, tol: float = 1e-12):
    """Catalog every tree of order <= max_n with cross-checked verdicts.

    Each entry of order >= 2 passes :func:`certify`; any disagreement
    raises OracleDisagreement carrying the offending edge list.  Entries are
    sorted by (n, canonical form).  ``jobs > 1`` fans the per-tree work out
    to worker processes, order preserved; the pool never has more workers
    than the machine has CPUs.
    """
    if filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}; choose from {FILTERS}")
    if max_n > ORDER_CAP:
        raise CapExceeded(f"order {max_n} above the supported cap {ORDER_CAP}")
    trees = (tree for n in range(1, max_n + 1) for tree in free_trees(n))
    entry_for = partial(_catalog_entry, tol=tol)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: multiprocessing adds about 2 MB to every process
        # that imports the package, and only this branch needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(entry_for, trees, chunksize=16))
    else:
        entries = list(map(entry_for, trees))

    entries = [e for e in entries if _matches(e, filter_name)]
    entries.sort(key=lambda e: (e.n, e.canonical))
    return entries
