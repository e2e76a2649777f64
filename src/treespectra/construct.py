"""Explicit Laplacian eigenvector constructions on paths and trees.

The centerpiece is :func:`eigenbasis_extremal`: for a tree whose pendant
distances all satisfy d == 2q (mod 2q+1), it produces p-1 linearly
independent eigenvectors for the eigenvalue 2(1 - cos((2b+1)pi/(2q+1))) by
peeling one pendant leg at a time and laying a sign-alternating cosine
profile along one pendant-to-pendant path per step.

Vectors are numpy arrays indexed by ``label - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    CongruenceViolated,
    IndexOutOfRange,
    InvariantViolated,
    LabelOutOfRange,
    NoMajorVertex,
)
from .exact import LambdaParam
from .trees import (
    Tree,
    TreePath,
    classify_vertices,
    path_between,
    remove_branch,
)

__all__ = [
    "EigenPair",
    "PathRecord",
    "InternalZeroPath",
    "GlueStep",
    "ConstructionTrace",
    "path_eigenpair",
    "path_internal_zero_vector",
    "nullspace_with_zeros",
    "eigenbasis_extremal",
]

ZERO_TOL = 1e-10


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue with one eigenvector, entries indexed by label - 1."""

    value: float
    vector: np.ndarray
    param: LambdaParam | None = None


@dataclass(frozen=True)
class PathRecord:
    """Bookkeeping for one internal-zero path vector: arm lengths k1, k2
    (both == q mod 2q+1), their quotients N1, N2, and the cosine index
    delta = (2b+1)(N1+N2+1) used on the path of n = k1+k2+1 vertices."""

    k1: int
    k2: int
    n1: int
    n2: int
    delta: int


@dataclass(frozen=True)
class InternalZeroPath:
    pair: EigenPair
    zero_vertex: int
    record: PathRecord


@dataclass(frozen=True)
class GlueStep:
    """One peel step of the basis construction, in original labels: the
    chosen pendant pair, the single major vertex on their path, and the
    vertex set of the component kept for the next step."""

    pendant_pair: tuple[int, int]
    anchor: int
    component: tuple[int, ...]


@dataclass(frozen=True)
class ConstructionTrace:
    q: int
    b: int
    gamma: Fraction
    path_records: tuple[PathRecord, ...]
    glue_steps: tuple[GlueStep, ...]


def path_eigenpair(n: int, j: int) -> EigenPair:
    """The j-th Laplacian eigenpair of the path on n vertices.

    Eigenvalue 2(1 - cos(pi j / n)) with entries cos((pi j / n)(v - 1/2)),
    v = 1..n.  Index 0 gives the all-ones kernel vector.
    """
    if not isinstance(n, int) or n < 1:
        raise IndexOutOfRange(f"path order must be a positive integer, got {n!r}")
    if not isinstance(j, int) or not 0 <= j <= n - 1:
        raise IndexOutOfRange(f"eigenvalue index {j!r} not in 0..{n - 1}")
    angle = math.pi * j / n
    positions = np.arange(1, n + 1, dtype=float) - 0.5
    vector = np.cos(angle * positions)
    return EigenPair(value=2.0 * (1.0 - math.cos(angle)), vector=vector)


def path_internal_zero_vector(k1: int, k2: int, q: int, b: int) -> InternalZeroPath:
    """Eigenvector on the path with arms k1, k2 vanishing at the joint.

    Needs k1 == k2 == q (mod 2q+1) and 0 <= b < q.  The vector is the
    closed-form path eigenvector with index delta = (2b+1)(N1+N2+1); it is
    zero exactly at positions whose doubled offset is divisible by the
    reduced modulus, in particular at the joint vertex k1+1, and its first
    entry cos(gamma pi/2) is nonzero.
    """
    if not (isinstance(q, int) and q >= 1 and isinstance(b, int) and 0 <= b < q):
        raise CongruenceViolated(f"need integers q >= 1 and 0 <= b < q, got q={q!r}, b={b!r}")
    modulus = 2 * q + 1
    if k1 % modulus != q or k2 % modulus != q:
        raise CongruenceViolated(
            f"arm lengths must be == {q} (mod {modulus}), got k1={k1}, k2={k2}"
        )
    n1 = (k1 - q) // modulus
    n2 = (k2 - q) // modulus
    delta = (2 * b + 1) * (n1 + n2 + 1)
    n = k1 + k2 + 1
    pair = path_eigenpair(n, delta)
    param = LambdaParam(q, b)
    pair = EigenPair(value=pair.value, vector=pair.vector, param=param)
    zero_vertex = k1 + 1

    # The closed form guarantees these; the checks catch integer slips.
    if abs(pair.vector[zero_vertex - 1]) > ZERO_TOL:
        raise InvariantViolated(
            f"closed-form path vector is {pair.vector[zero_vertex - 1]!r}, not 0, "
            f"at vertex {zero_vertex} (k1={k1}, k2={k2}, q={q}, b={b})"
        )
    gamma = (2 * b + 1) / (2 * q + 1)
    if abs(pair.vector[0] - math.cos(gamma * math.pi / 2.0)) > 1e-12:
        raise InvariantViolated(
            f"closed-form path vector starts at {pair.vector[0]!r}, "
            f"not cos({gamma}*pi/2) (k1={k1}, k2={k2}, q={q}, b={b})"
        )
    return InternalZeroPath(
        pair=pair,
        zero_vertex=zero_vertex,
        record=PathRecord(k1=k1, k2=k2, n1=n1, n2=n2, delta=delta),
    )


def nullspace_with_zeros(tree: Tree, lam, zero_at=()):
    """One exact rational kernel vector of L - lam*I vanishing on ``zero_at``.

    Returns an integer-normalized tuple of Fractions (first nonzero entry
    positive, content 1), or None when the constrained kernel is trivial.
    Deterministic: the free coordinate chosen is the smallest one.
    """
    from .exact import laplacian

    lam = Fraction(lam)
    n = tree.n
    lap = laplacian(tree)
    rows = [
        [Fraction(lap[i][j] - (lam if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    for j in sorted(set(zero_at)):
        if not 1 <= j <= n:
            raise LabelOutOfRange(f"constraint label {j} not in 1..{n}")
        constraint = [Fraction(0)] * n
        constraint[j - 1] = Fraction(1)
        rows.append(constraint)

    # Reduced row echelon form over the rationals.
    pivot_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break

    free = [c for c in range(n) if c not in pivot_cols]
    if not free:
        return None
    f0 = free[0]
    x = [Fraction(0)] * n
    x[f0] = Fraction(1)
    for row_idx, c in enumerate(pivot_cols):
        x[c] = -rows[row_idx][f0]

    # Clear denominators, divide by content, make the first nonzero positive.
    den = math.lcm(*(v.denominator for v in x))
    ints = [int(v * den) for v in x]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _peel_basis(tree: Tree, q: int, b: int, records, steps) -> list[np.ndarray]:
    # Peel one pendant leg per step until a bare path is left.  Each step's
    # vector is written once, in the labels of the input tree; ``to_original``
    # maps the current component's labels back to those.
    n = tree.n
    edges = tree.edges
    to_original = tuple(range(n + 1))
    anchors = []
    peeled = []
    while True:
        classes = classify_vertices(tree)
        pendants = classes.pendants
        if len(pendants) == 2:
            # Bare path.  Its order is divisible by 2q+1, so the matching
            # cosine index is integral and the closed-form eigenvector
            # applies directly.
            u, w = pendants
            walk = path_between(tree, u, w).vertices
            if len(walk) != tree.n:
                raise InvariantViolated(
                    f"two-pendant tree of order {tree.n} has a {len(walk)}-vertex end-to-end walk",
                    edges=tree.edges,
                )
            j, rem = divmod(tree.n * (2 * b + 1), 2 * q + 1)
            if rem:
                raise InvariantViolated(
                    f"bare path of order {tree.n} is not divisible by 2q+1={2 * q + 1}",
                    edges=tree.edges,
                )
            bare = np.zeros(n)
            bare[[to_original[v] - 1 for v in walk]] = path_eigenpair(tree.n, j).vector
            break

        for u, w in combinations(pendants, 2):
            walk = path_between(tree, u, w)
            majors_on = [x for x in walk.vertices if classes.degrees[x] >= 3]
            if len(majors_on) == 1:
                break
        else:  # unreachable: some major always sees two major-free legs
            raise NoMajorVertex("no pendant pair with a single major on its path")

        anchor = majors_on[0]
        anchor_idx = walk.vertices.index(anchor)
        zero_path = path_internal_zero_vector(anchor_idx, walk.length - anchor_idx, q, b)
        records.append(zero_path.record)

        leg = TreePath(walk.vertices[: anchor_idx + 1])
        component, old_to_new = remove_branch(tree, leg, keep_anchor=anchor)
        steps.append(
            GlueStep(
                pendant_pair=(to_original[u], to_original[w]),
                anchor=to_original[anchor],
                component=tuple(sorted(to_original[old] for old in old_to_new)),
            )
        )
        vec = np.zeros(n)
        vec[[to_original[v] - 1 for v in walk.vertices]] = zero_path.pair.vector
        peeled.append(vec)
        anchors.append(to_original[anchor])

        sub_to_original = [0] * (component.n + 1)
        for old, new in old_to_new.items():
            sub_to_original[new] = to_original[old]
        tree, to_original = component, tuple(sub_to_original)

    # Deepest first: the bare path's vector, then the peeled steps in
    # reverse.  Every vector found after a step vanishes at that step's
    # anchor, so zero-padding across the removed leg keeps it an
    # eigenvector of the larger tree.
    vectors = [bare] + peeled[::-1]
    stacked = np.array(vectors)
    for step, anchor in enumerate(anchors):
        deeper = stacked[: len(anchors) - step, anchor - 1]
        bad = np.flatnonzero(np.abs(deeper) > ZERO_TOL)
        if bad.size:
            raise InvariantViolated(
                f"deeper eigenvector is {float(deeper[bad[0]])!r}, not 0, at anchor {anchor}",
                edges=edges,
            )
    return vectors


def eigenbasis_extremal(tree: Tree, q: int, b: int = 0):
    """p-1 independent eigenvectors for one extremal eigenvalue.

    Requires a major vertex and every pendant pair at distance == 2q
    (mod 2q+1).  Returns ``(pairs, trace)`` where each pair carries the
    eigenvalue 2(1 - cos((2b+1)pi/(2q+1))) and the trace records the peel
    order.  All vectors vanish at every major vertex, and more generally at
    every vertex whose distance to some major is divisible by 2q+1.
    """
    if not (isinstance(q, int) and q >= 1):
        raise CongruenceViolated(f"q must be a positive integer, got {q!r}")
    if not (isinstance(b, int) and 0 <= b < q):
        raise CongruenceViolated(f"b must lie in [0, q), got b={b!r}, q={q}")
    classes = classify_vertices(tree)
    if not classes.majors:
        raise NoMajorVertex("tree is a path; extremal multiplicity is trivial there")
    modulus = 2 * q + 1
    for u, w in combinations(classes.pendants, 2):
        d = tree.distance_row(u)[w]
        if d % modulus != 2 * q:
            raise CongruenceViolated(
                f"pendant pair ({u}, {w}) at distance {d}, "
                f"need == {2 * q} (mod {modulus})"
            )

    param = LambdaParam(q, b)
    records: list[PathRecord] = []
    steps: list[GlueStep] = []
    vectors = _peel_basis(tree, q, b, records, steps)
    pairs = [EigenPair(value=param.value, vector=v, param=param) for v in vectors]
    trace = ConstructionTrace(
        q=q,
        b=b,
        gamma=Fraction(2 * b + 1, 2 * q + 1),
        path_records=tuple(records),
        glue_steps=tuple(steps),
    )
    return pairs, trace
