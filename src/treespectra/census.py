"""Exhaustive generation of unlabeled trees and the cross-checked catalog.

This is the only module that compares routes.  :func:`certify` checks the
combinatorial verdicts against the exact multiplicities and the numeric
clusters, from one Laplacian per tree; ``check`` and the catalog both go
through it.  :func:`certify_basis` checks a constructed eigenbasis against
the float Laplacian: its rank and its residuals.  :func:`verify_gamma_witness`
checks the eigenvalue-1 witness ``certify`` receives against the definition
of its family, without the decider that found it.

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
census for small orders: numpy decodes every Prufer code in blocks to a
bracket word of its rooted tree, and only the distinct words are keyed,
rooted at their centers.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classify import ClassificationReport, GammaWitness, classify_m1
from .construct import ConstructionTrace, EigenPair, eigenbasis_extremal
from .errors import CapExceeded, OracleDisagreement
from .exact import (
    IntPolynomial,
    LambdaParam,
    char_poly,
    laplacian,
    minimal_poly_lambda,
    root_multiplicity,
    tree_inertia,
)
from .numeric import Spectrum, cluster_multiplicity, eigen_symmetric, numeric_rank, residual_norm
from .trees import Tree, _build, _root_path

__all__ = [
    "ORDER_CAP",
    "CatalogEntry",
    "LambdaRow",
    "Certificate",
    "certify",
    "verify_gamma_witness",
    "BasisCertificate",
    "certify_basis",
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
    # Subtree sizes from one Tree.bfs out of vertex 1, children before
    # parents by descending distance; a centroid's heaviest side, its
    # largest child subtree or everything above it, is the lightest.
    n = tree.n
    dist, parent = tree.bfs(1)
    size = [1] * (n + 1)
    heaviest = [0] * (n + 1)
    for v in sorted(range(2, n + 1), key=dist.__getitem__, reverse=True):
        size[parent[v]] += size[v]
        heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    weight = {v: max(heaviest[v], n - size[v]) for v in range(1, n + 1)}
    best = min(weight.values())
    return tuple(v for v, w in weight.items() if w == best)


def _rooted_levels(tree: Tree, root: int) -> tuple[int, ...]:
    # Level sequence rooted at ``root`` (root at level 1) with every
    # vertex's child blocks in decreasing order.  One Tree.bfs out of the
    # root, read by descending distance, puts children before parents, so
    # one pass builds every block bottom-up, with no recursion.
    dist, parent = tree.bfs(root)
    child_blocks: list = [[] for _ in range(tree.n + 1)]
    for v in sorted(range(1, tree.n + 1), key=dist.__getitem__, reverse=True):
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


def canonical_form(tree: Tree) -> str:
    return ",".join(map(str, canonical_levels(tree)))


def canonical_relabel(tree: Tree) -> Tree:
    """The same tree rebuilt with labels 1..n in canonical preorder."""
    return _tree_from_levels(canonical_levels(tree))


def free_trees(n: int):
    """Yield one representative per isomorphism class of trees on n vertices.

    Each is the tree of one level sequence kept by the generator, which is
    already that tree's canonical form (the catalog keeps the sequence
    itself), so each class shows up once, in the successor rule's order.
    """
    for seq in _free_levels(n):
        yield _tree_from_levels(seq)


def _free_levels(n: int):
    # The rooted level sequences that coincide with the canonical form of
    # their own underlying free tree: one per isomorphism class.
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > ORDER_CAP:
        raise CapExceeded(f"order {n} above the supported cap {ORDER_CAP}")
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


# Rows per numpy pass, at most.  A pass covers the n^k codes that share
# their high n-2-k digits, for the largest such k; the low digits and their
# vertex masks are built once per call and reused by every pass.  The cap
# bounds transient memory: the census benchmark (n up to 8) peaked at
# 32.1 MB RSS with 8192 rows and at 38.4 MB with 32768, no faster.
_PRUFER_ROWS = 8192


def _prufer_blocks(n: int):
    """Decode all n^(n-2) Prufer codes over 0..n-1, one block of rows at a time.

    Yields ``(digits, leaves, words)`` per block, in running-index order.
    Row r of ``digits`` (uint8) is a code, the base-n digits of a running
    index.  Step i removes the leaf ``leaves[r, i]`` (uint8) and hangs it
    under ``digits[r, i]``; the last leaf hangs under n-1, which is never
    removed.  ``words[r]`` (int32) is the decoded tree's bracket code,
    rooted at n-1 with children in removal order: a 1 bit, then
    ``1 <child codes> 0`` for each child.  Equal words mean isomorphic
    trees, but one isomorphism class spans several words.

    A block holds the n^k codes that share their high n-2-k digits, k as
    large as ``_PRUFER_ROWS`` allows; the low digits, and the masks of the
    vertices absent from each of their suffixes, are the same in every
    block.  Vertex masks are uint16.  The leaf is the lowest live vertex
    absent from the rest of the code, and its index is the exponent of
    that mask bit; a child's code of s vertices is 2s bits long, read off
    as an exponent too.  Words stay below 2^17, so float32 holds both
    exactly.
    """
    m = n - 2
    k = 0
    while k < m and n ** (k + 1) <= _PRUFER_ROWS:
        k += 1
    h = m - k
    rows = n**k
    low = np.empty((rows, k), dtype=np.uint8)
    index = np.arange(rows)
    for j in range(k - 1, -1, -1):
        index, low[:, j] = np.divmod(index, n)
    # absent[r, j]: the vertices that occur nowhere in low digits j.. of row r.
    present = np.left_shift(1, low.astype(np.uint16))
    absent = ~np.bitwise_or.accumulate(present[:, ::-1], axis=1)[:, ::-1]
    absent_low = absent[:, 0] if k else np.full(rows, 0xFFFF, dtype=np.uint16)
    # word[v * rows + r]: the sentinel bit and the codes of the children
    # removed so far of vertex v in row r.  A vertex is removed only after
    # its children, so its code is final when it is.
    column = np.arange(rows)
    below = column - rows  # + rows * (leaf + 1) finds the leaf's word
    parents = [column + rows * low[:, j].astype(np.intp) for j in range(k)]
    word = np.empty(n * rows, dtype=np.int32)
    by_vertex = word.reshape(n, rows)
    for block in range(n**h):
        high = [block // n**j % n for j in range(h - 1, -1, -1)]
        digits = np.empty((rows, m), dtype=np.uint8)
        digits[:, :h] = high
        digits[:, h:] = low
        leaves = np.empty((rows, n - 1), dtype=np.uint8)
        alive = np.full(rows, (1 << (n - 1)) - 1, dtype=np.uint16)  # all but the root
        word.fill(1)
        for i in range(n - 1):
            if i < h:  # high digits i.. are the same in every row
                later = sum({1 << d for d in high[i:]})
                free = alive & absent_low & (0xFFFF ^ later)
            elif i < m:
                free = alive & absent[:, i - h]
            else:
                free = alive
            bit = free & -free
            leaf_1 = np.frexp(bit.astype(np.float32))[1]  # leaf + 1
            leaves[:, i] = leaf_1
            child = word[below + rows * leaf_1] << 1
            width = np.frexp(child.astype(np.float32))[1]
            if h <= i < m:
                up = parents[i - h]
                word[up] = (word[up] << width) | child
            else:  # the parent is the same in every row
                up = by_vertex[high[i] if i < h else n - 1]
                up <<= width
                up |= child
            alive ^= bit
        leaves -= 1
        yield digits, leaves, by_vertex[n - 1].copy()


def _plane_edges(word: int, n: int) -> list[tuple[int, int]]:
    # Edges (child, parent) of the rooted plane tree a bracket word spells,
    # on vertices 0..n-1 with the root at 0.
    edges = []
    stack = [0]
    for bit in range(2 * n - 3, -1, -1):
        if word >> bit & 1:
            child = len(edges) + 1
            edges.append((child, stack[-1]))
            stack.append(child)
        else:
            stack.pop()
    return edges


def _free_key(n: int, edges) -> str:
    """Free-tree key of a tree on vertices 0..n-1: equal iff isomorphic.

    The smaller AHU string rooted at one of the tree's one or two centers,
    where a vertex's string is its children's strings, sorted and wrapped
    in one pair of brackets.  Every isomorphism maps centers to centers.
    The centers are what is left after peeling leaves layer by layer.
    """
    adjacency: list = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    degree = [len(near) for near in adjacency]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adjacency[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled
    best = None
    for root in layer:
        parent = [-1] * n
        parent[root] = root
        order = [root]
        for v in order:
            for w in adjacency[v]:
                if parent[w] < 0:
                    parent[w] = v
                    order.append(w)
        kids: list = [[] for _ in range(n)]
        for v in reversed(order):  # children first, the root last
            code = "(" + "".join(sorted(kids[v])) + ")"
            kids[parent[v]].append(code)
        if best is None or code < best:
            best = code
    return best


def _prufer_classes(n: int) -> Counter:
    # Number of labeled trees in each isomorphism class, by free-tree key.
    tally = np.zeros(1 << (2 * n - 1), dtype=np.int64)  # labeled trees per word
    for _, _, words in _prufer_blocks(n):
        np.add.at(tally, words, 1)
    classes: Counter = Counter()
    for word in np.flatnonzero(tally).tolist():
        classes[_free_key(n, _plane_edges(word, n))] += int(tally[word])
    return classes


def prufer_count_oracle(n: int) -> int:
    """Count isomorphism classes by brute force over all n^(n-2) labeled trees.

    Only sensible for n in 2..9.  Every Prufer code is decoded, in numpy
    blocks of up to ``_PRUFER_ROWS`` codes that share their high digits, to
    a bracket word of its tree rooted at n-1; only the distinct words (at
    most Catalan(n-1) of them) are rebuilt and keyed, by the smaller AHU
    string rooted at a center.  Nothing here shares code with the
    level-sequence generator it checks: centers, not its centroids, root
    the keys.
    """
    if not 2 <= n <= 9:
        raise CapExceeded(f"brute-force census supports 2..9, got {n}")
    return len(_prufer_classes(n))


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

    ``report`` is the combinatorial verdict, ``spectrum`` the float route,
    ``lambda_rows`` one row per extremal eigenvalue, ``m1_exact`` and
    ``m1_numeric`` the exact and numeric m(T,1), and ``reaches_p_minus_1``
    whether some numeric cluster has size p-1.
    """

    report: ClassificationReport
    spectrum: Spectrum
    lambda_rows: tuple[LambdaRow, ...]
    m1_exact: int
    m1_numeric: int
    reaches_p_minus_1: bool


def verify_gamma_witness(tree: Tree, witness: GammaWitness) -> str | None:
    """Check a witness of the eigenvalue-1 family Gamma against the definition.

    Returns None when the witness proves membership, else the first rule
    it breaks.  The rules, in O(n) from one BFS out of the major m:

    - the three legs end at distinct pendants and leave m by distinct
      edges, so they are internally disjoint and form the core;
    - the leg residues d(m, u) mod 3 are the listed ones, of the listed
      Omega type: {1, 1, x != 1} is type A, {2, 0, 0} type B;
    - every vertex off the core lies in exactly one attachment, and each
      attachment is one whole component of the tree minus the core, hung
      at its anchor (a tree component meets the connected core by one
      edge);
    - each anchor a lies on the core with d(a, u) = 1 (mod 3) for its own
      leg's end u, or is m with some leg of length 1 (mod 3);
    - a 'P' attachment is a path hung at its end, on 2 (mod 3) vertices
      with its anchor;
    - the 'Q' attachments at one anchor are two or more, every pendant in
      them lies 1 (mod 3) from the anchor, and every two of them lie
      2 (mod 3) apart.  Two such pendants meeting at z, below the anchor,
      lie 1 + 1 - 2 d(anchor, z) apart, so every vertex of the group with
      two or more children must lie 0 (mod 3) from the anchor.

    Nothing here calls :func:`in_gamma` or its helpers.
    """
    n, adj, major = tree.n, tree.adjacency, witness.major
    named = [major, *witness.endpoints]
    for att in witness.attachments:
        named += [att.anchor, *att.vertices]
    if not all(isinstance(v, int) and 1 <= v <= n for v in named):
        return "a witness label is not a vertex of the tree"
    ends = witness.endpoints
    if len(set(ends)) != 3 or major in ends or any(len(adj[u]) != 1 for u in ends):
        return "the legs do not end at three distinct pendants off the major"
    dist, parent = tree.bfs(major)
    legs = [_root_path(parent, u) for u in ends]
    if len({leg[1] for leg in legs}) != 3:
        return "two legs leave the major by the same edge"
    leg_of = {v: leg[-1] for leg in legs for v in leg[1:]}  # core vertex -> its leg's end

    residues = tuple(dist[u] % 3 for u in ends)
    if residues != witness.leg_residues:
        return f"leg residues are {residues}, not {witness.leg_residues}"
    ordered = sorted(residues)
    omega = "A" if ordered.count(1) == 2 else "B" if ordered == [0, 0, 2] else None
    if omega is None or omega != witness.omega:
        return f"leg residues {residues} are not of Omega type {witness.omega!r}"

    owner = [None] * (n + 1)
    for v in leg_of:
        owner[v] = "core"
    owner[major] = "core"
    for att in witness.attachments:
        for v in att.vertices:
            if owner[v] is not None:
                return f"vertex {v} is on the core or in two attachments"
            owner[v] = att
    if None in owner[1:]:
        return f"vertex {owner.index(None, 1)} lies in no attachment"

    q_groups: dict[int, list] = {}
    for att in witness.attachments:
        exits = [
            (x, y) for x in att.vertices for y in adj[x] if owner[y] is not att
        ]
        if len(exits) != 1 or exits[0][1] != att.anchor or owner[att.anchor] != "core":
            return f"attachment {att.vertices} is not one component hung at {att.anchor}"
        a = att.anchor
        if a == major:
            anchor_ok = any(dist[u] % 3 == 1 for u in ends)
        else:
            anchor_ok = (dist[leg_of[a]] - dist[a]) % 3 == 1
        if not anchor_ok:
            return f"anchor {a} is not 1 (mod 3) from its leg's end"
        if att.family == "P":
            if any(len(adj[x]) > 2 for x in att.vertices) or len(att.vertices) % 3 != 1:
                return f"attachment {att.vertices} is no path on 2 (mod 3) vertices"
        elif att.family == "Q":
            q_groups.setdefault(a, []).append(att)
        else:
            return f"attachment {att.vertices} has no family P or Q"

    for anchor, group in q_groups.items():
        if len(group) < 2:
            return f"the Q group at {anchor} has one member"
        members = {v for att in group for v in att.vertices}
        depth = {anchor: 0}
        order = [anchor]
        for x in order:
            kids = [y for y in adj[x] if y in members and y not in depth]
            for y in kids:
                depth[y] = depth[x] + 1
                order.append(y)
            if not kids and depth[x] % 3 != 1:
                return f"pendant {x} is not 1 (mod 3) from its Q anchor {anchor}"
            if len(kids) >= 2 and depth[x] % 3 != 0:
                return f"pendants of the Q group at {anchor} meet at {x}, not 0 (mod 3) below it"
    return None


def certify(tree: Tree, tol: float = 1e-12) -> Certificate:
    """Run the oracle gauntlet on a tree with at least two vertices.

    A p-2 witness from :func:`in_gamma` must first pass
    :func:`verify_gamma_witness`.  Then the combinatorial verdicts, the
    exact route and the numeric clusters must agree on m(T,1), on the
    extremal verdict and on the multiplicity p-1 of every extremal
    eigenvalue.  The exact m(T,1) is the zero count of the elimination of
    L - I along the tree (:func:`tree_inertia`), checked before any float
    route runs; the extremal multiplicities divide one characteristic
    polynomial, built only when some eigenvalue is extremal, of the one
    Laplacian that LAPACK also reads.  Two more checks follow: the
    elimination's count of eigenvalues below 1 must equal the number of
    float eigenvalues below 1 - tau, and on a non-path the clusters of
    size p-1 must be as many as the extremal eigenvalues.  Any
    disagreement raises OracleDisagreement naming the quantity, each
    route's value and the tree's edges.
    """
    report = classify_m1(tree)
    if report.gamma_witness is not None:
        problem = verify_gamma_witness(tree, report.gamma_witness)
        if problem is not None:
            raise OracleDisagreement(
                f"in_gamma witness fails its check: {problem}", edges=tree.edges
            )
    p = report.p
    m1_below, m1_exact = tree_inertia(tree, 1)
    expected = {"p-1": p - 1, "p-2": p - 2}.get(report.m1_class)
    if expected is not None and m1_exact != expected:
        raise OracleDisagreement(
            f"combinatorial class {report.m1_class} predicts m(T,1)={expected} "
            f"but exact nullity is {m1_exact}",
            edges=tree.edges,
        )
    if expected is None and m1_exact in (p - 1, p - 2):
        raise OracleDisagreement(
            f"exact nullity {m1_exact} hits p-1 or p-2 but no family matched",
            edges=tree.edges,
        )

    lap = laplacian(tree)
    spectrum = eigen_symmetric(lap, tol=tol)
    big_reps = [rep for rep, mult in spectrum.clusters if mult == p - 1]
    if report.extremal != bool(big_reps):
        raise OracleDisagreement(
            f"extremal verdict {report.extremal} but numeric clusters "
            f"{spectrum.clusters} {'reach' if big_reps else 'miss'} p-1={p - 1}",
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
    if m1_numeric != m1_exact:
        raise OracleDisagreement(
            f"m(T,1) disagrees: numeric {m1_numeric}, exact {m1_exact}",
            edges=tree.edges,
        )
    numeric_below = sum(x < 1 - spectrum.tau for x in spectrum.eigenvalues)
    if numeric_below != m1_below:
        raise OracleDisagreement(
            f"eigenvalues below 1 disagree: numeric {numeric_below}, exact {m1_below}",
            edges=tree.edges,
        )
    if tree.majors and len(big_reps) != len(rows):
        # on a path p-1 = 1, and every simple eigenvalue is such a cluster
        reps = ", ".join(f"{rep:.6f}" for rep in big_reps)
        ratios = ", ".join(str(row.param.ratio) for row in rows)
        raise OracleDisagreement(
            f"{len(big_reps)} clusters of size p-1={p - 1} (at {reps}) "
            f"but {len(rows)} extremal eigenvalues (ratios {ratios})",
            edges=tree.edges,
        )
    return Certificate(
        report=report,
        spectrum=spectrum,
        lambda_rows=tuple(rows),
        m1_exact=m1_exact,
        m1_numeric=m1_numeric,
        reaches_p_minus_1=bool(big_reps),
    )


# Largest residual (relative to the vector's max-norm) an eigenbasis may
# show and still be reported; the bound acceptance criterion 4 checks.
_RESIDUAL_MAX = 1e-10


@dataclass(frozen=True)
class BasisCertificate:
    """An explicit eigenbasis after its rank and residuals passed.

    ``pairs`` and ``trace`` are what :func:`eigenbasis_extremal` built;
    ``residuals`` holds each vector's scaled residual, in the same order,
    and ``rank`` the numeric rank of the vectors, which equals p-1.
    """

    pairs: tuple[EigenPair, ...]
    trace: ConstructionTrace
    residuals: tuple[float, ...]
    rank: int


def certify_basis(tree: Tree, q: int, b: int = 0) -> BasisCertificate:
    """Construct the p-1 eigenvectors for one extremal eigenvalue and check them.

    The vectors must have full numeric rank and every residual must stay
    within 1e-10 of the vector's max-norm, measured on the float Laplacian;
    either failure raises OracleDisagreement with the tree's edges.
    """
    pairs, trace = eigenbasis_extremal(tree, q, b)
    lap = np.array(laplacian(tree), dtype=float)
    residuals = tuple(residual_norm(tree, pair.value, pair.vector, lap=lap) for pair in pairs)
    rank = numeric_rank([pair.vector for pair in pairs], tol=1e-8)
    if rank != len(pairs):
        raise OracleDisagreement(
            f"eigenbasis rank is {rank}, not p-1={len(pairs)}", edges=tree.edges
        )
    worst = max(residuals)
    if worst > _RESIDUAL_MAX:
        raise OracleDisagreement(
            f"eigenbasis residual is {worst:.15g}, above {_RESIDUAL_MAX:.15g}",
            edges=tree.edges,
        )
    return BasisCertificate(pairs=tuple(pairs), trace=trace, residuals=residuals, rank=rank)


def _catalog_entry(levels: tuple[int, ...], tol: float) -> CatalogEntry:
    # ``levels`` is a kept sequence of _free_levels: its tree's canonical form.
    tree = _tree_from_levels(levels)
    canonical = ",".join(map(str, levels))
    if tree.n == 1:
        return CatalogEntry(
            canonical=canonical,
            n=1,
            p=0,
            extremal=False,
            lambda_ratios=(),
            m1_class="other",
            m1_exact=tree_inertia(tree, 1)[1],
            name="P_1",
            edges=(),
        )

    cert = certify(tree, tol)
    report = cert.report
    return CatalogEntry(
        canonical=canonical,
        n=tree.n,
        p=report.p,
        extremal=report.extremal,
        lambda_ratios=tuple(str(prm.ratio) for prm in report.lambda_set),
        m1_class=report.m1_class,
        m1_exact=cert.m1_exact,
        name=tree_name(tree),
        edges=tree.edges,
    )


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
    sequences = (seq for n in range(1, max_n + 1) for seq in _free_levels(n))
    entry_for = partial(_catalog_entry, tol=tol)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: multiprocessing adds about 2 MB to every process
        # that imports the package, and only this branch needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(entry_for, sequences, chunksize=16))
    else:
        entries = list(map(entry_for, sequences))

    entries = list(filter(_KEEPS[filter_name], entries))
    entries.sort(key=lambda e: (e.n, e.canonical))
    return entries
