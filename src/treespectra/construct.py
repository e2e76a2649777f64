"""Explicit Laplacian eigenvector constructions on paths and trees.

The centerpiece is :func:`eigenbasis_extremal`: for a tree whose pendant
distances all satisfy d == 2q (mod 2q+1), it produces p-1 linearly
independent eigenvectors for the eigenvalue 2(1 - cos((2b+1)pi/(2q+1))) by
peeling one pendant leg at a time and laying the closed-form path
eigenvector, a sign-alternating cosine profile, along one
pendant-to-pendant path per step and along the bare path left at the end.

Vectors are numpy arrays indexed by ``label - 1``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .classify import pendant_distance_gcd
from .errors import CongruenceViolated, IndexOutOfRange, InvariantViolated, NoMajorVertex
from .exact import LambdaParam
from .trees import Tree, _integer

__all__ = [
    "EigenPair",
    "PathRecord",
    "GlueStep",
    "path_eigenpair",
    "eigenbasis_extremal",
]

ZERO_TOL = 1e-10


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue with one eigenvector, entries indexed by label - 1."""

    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class PathRecord:
    """Bookkeeping for one peel step's path: arm lengths k1, k2 on either
    side of the anchor (both == q mod 2q+1), their quotients N1, N2 by
    2q+1, and the cosine index delta = (2b+1)(N1+N2+1) of the path's
    eigenvector, the path having n = k1+k2+1 vertices."""

    k1: int
    k2: int
    n1: int
    n2: int
    delta: int


@dataclass(frozen=True)
class GlueStep:
    """One peel step of the basis construction, in original labels: the
    chosen pendant pair, the single major vertex on their path, and the
    vertex set of the component kept for the next step."""

    pendant_pair: tuple[int, int]
    anchor: int
    component: tuple[int, ...]


def path_eigenpair(n: int, j: int) -> EigenPair:
    """The j-th Laplacian eigenpair of the path on n vertices.

    Eigenvalue 2(1 - cos(pi j / n)) with entries cos((pi j / n)(v - 1/2)),
    v = 1..n.  Index 0 gives the all-ones kernel vector.
    """
    order, index = _integer(n), _integer(j)
    if order is None or order < 1:
        raise IndexOutOfRange(f"path order must be a positive integer, got {n!r}")
    if index is None or not 0 <= index <= order - 1:
        raise IndexOutOfRange(f"eigenvalue index {j!r} not in 0..{order - 1}")
    angle = math.pi * index / order
    positions = np.arange(1, order + 1, dtype=float) - 0.5
    vector = np.cos(angle * positions)
    return EigenPair(value=2.0 * (1.0 - math.cos(angle)), vector=vector)


def _peel_basis(tree: Tree, q: int, b: int):
    # Peel one pendant leg per step until a bare path is left, on the input
    # tree's own labels: ``deg`` holds live degrees and a peeled vertex drops
    # to degree 0.  A leg runs from a pendant through live degree-2 vertices
    # and stops before the first vertex of another degree, its major.
    # Peeling leaves the anchor at degree >= 2, so the live pendants are
    # always the input pendants not yet peeled, and the live vertices those
    # of nonzero degree (slot 0, a placeholder, has degree 0).  ``reach`` maps
    # live pendants, in label order, to their legs' majors; ``ending`` counts
    # the live legs per major.
    n = tree.n
    adj = tree.adjacency
    deg = [len(a) for a in adj]

    def walk(prev: int, v: int) -> tuple[list[int], int]:
        passed = []
        while deg[v] == 2:
            passed.append(v)
            prev, v = v, next(y for y in adj[v] if y != prev and deg[y])
        return passed, v

    legs: dict[int, list[int]] = {}
    reach: dict[int, int] = {}
    for u in tree.pendants:
        passed, reach[u] = walk(u, adj[u][0])
        legs[u] = [u, *passed]
    ending = Counter(reach.values())

    modulus = 2 * q + 1
    paths = []  # one pendant-to-pendant path per peel step, then the bare path
    records = []
    steps = []
    while len(legs) > 2:
        # The first pendant pair in label order whose path meets one major:
        # the first pendant whose major ends another leg, and the next there.
        u = next((u for u, major in reach.items() if ending[major] >= 2), None)
        if u is None:  # unreachable: some major always sees two major-free legs
            raise InvariantViolated(
                "no pendant pair with a single major on its path", edges=tree.edges
            )
        anchor = reach.pop(u)
        w = next(w for w, major in reach.items() if major == anchor)
        leg_u, leg_w = legs.pop(u), legs[w]
        paths.append([*leg_u, anchor, *reversed(leg_w)])
        k1, k2 = len(leg_u), len(leg_w)
        n1, n2 = k1 // modulus, k2 // modulus
        records.append(PathRecord(k1, k2, n1, n2, delta=(2 * b + 1) * (n1 + n2 + 1)))

        for v in leg_u:
            deg[v] = 0
        deg[anchor] -= 1
        ending[anchor] -= 1
        if deg[anchor] == 2 and ending[anchor] == 1:
            # w's leg now runs on through the anchor, no major any more, to
            # the next major.
            passed, reach[w] = walk(leg_w[-1], anchor)
            leg_w.extend(passed)
            ending[reach[w]] += 1
        component = tuple(compress(range(n + 1), deg))  # the live labels
        steps.append(GlueStep(pendant_pair=(u, w), anchor=anchor, component=component))

    u, w = sorted(legs)
    passed, last = walk(u, adj[u][0])
    bare = [u, *passed, last]
    live = n + 1 - deg.count(0)
    if last != w or len(bare) != live:
        raise InvariantViolated(
            f"two-pendant tree of order {live} has a {len(bare)}-vertex end-to-end walk",
            edges=tree.edges,
        )
    paths.append(bare)

    # Deepest first: the bare path's vector, then the peeled steps' in
    # reverse.  Every path's order is divisible by 2q+1, so its cosine index
    # j is integral.  The vector of step k vanishes at the anchors of steps
    # 0..k, so zero-padding across the removed legs keeps it an eigenvector
    # of the larger tree; its first entry, at the path's first pendant, is
    # cos(gamma pi/2).
    anchor_index = np.array([step.anchor for step in steps], dtype=np.intp) - 1
    first = math.cos((2 * b + 1) * math.pi / (2 * modulus))
    vectors = []
    for k in reversed(range(len(paths))):
        path = paths[k]
        j, rem = divmod(len(path) * (2 * b + 1), modulus)
        if rem:
            raise InvariantViolated(
                f"path of order {len(path)} from {path[0]} to {path[-1]} "
                f"is not divisible by 2q+1={modulus}",
                edges=tree.edges,
            )
        vec = np.zeros(n)
        vec[[v - 1 for v in path]] = path_eigenpair(len(path), j).vector
        off = vec[anchor_index[: k + 1]]
        bad = np.flatnonzero(np.abs(off) > ZERO_TOL)
        if bad.size:
            raise InvariantViolated(
                f"deeper eigenvector is {float(off[bad[0]])!r}, not 0, "
                f"at anchor {steps[bad[0]].anchor}",
                edges=tree.edges,
            )
        if abs(vec[path[0] - 1] - first) > 1e-12:
            raise InvariantViolated(
                f"closed-form path vector starts at {float(vec[path[0] - 1])!r}, not "
                f"cos({2 * b + 1}/{modulus}*pi/2), on the path from {path[0]} to {path[-1]}",
                edges=tree.edges,
            )
        vectors.append(vec)
    return vectors, records, steps


def eigenbasis_extremal(tree: Tree, q: int, b: int = 0):
    """p-1 independent eigenvectors for one extremal eigenvalue.

    Requires a major vertex and every pendant pair at distance == 2q
    (mod 2q+1).  Returns ``(param, vectors, path_records, glue_steps)``:
    the eigenvalue 2(1 - cos((2b+1)pi/(2q+1))) as a LambdaParam, its p-1
    eigenvectors deepest first, and one path record and glue step per peel
    step, in peel order.  All vectors vanish at every major vertex, and
    more generally at every vertex whose distance to some major is
    divisible by 2q+1.
    """
    param = LambdaParam(q, b)
    q, b = param.q, param.b  # ints from here on
    if not tree.majors:
        raise NoMajorVertex("tree is a path; extremal multiplicity is trivial there")
    modulus = 2 * q + 1
    if pendant_distance_gcd(tree) % modulus:
        # Name the first offending pair; only a failing tree pays for the scan.
        pendants = tree.pendants
        for i, u in enumerate(pendants):
            row = tree.bfs(u)[0]
            for w in pendants[i + 1:]:
                d = row[w]
                if d % modulus != 2 * q:
                    raise CongruenceViolated(
                        f"pendant pair ({u}, {w}) at distance {d}, "
                        f"need == {2 * q} (mod {modulus})"
                    )

    vectors, records, steps = _peel_basis(tree, q, b)
    return param, tuple(vectors), tuple(records), tuple(steps)
