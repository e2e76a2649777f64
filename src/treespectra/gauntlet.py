"""Route comparisons: where the combinatorial, exact and float routes must agree.

:func:`certify_many` checks the verdicts of trees of one order by the
pipeline :func:`certify` describes, and :func:`certify` runs one tree as
a batch of one; :func:`certify_basis` checks an eigenbasis and
:func:`verify_gamma_witness` an eigenvalue-1 witness.  Every disagreement
is raised here, with its tree's edges.  The float route and the basis
checks read the float Laplacian, set in numpy straight from the tree's
edges; the integer Laplacian of ``exact`` is built only for
``exact.char_poly``, on trees with an extremal eigenvalue other than 1.
The routes are called through their modules (``exact.char_poly``), where
the benchmark's tracer wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify, construct, errors, exact, numeric
from .trees import Tree, _integer, _root_path

__all__ = [
    "LambdaRow",
    "Certificate",
    "certify",
    "certify_many",
    "verify_gamma_witness",
    "BasisCertificate",
    "certify_basis",
]


@dataclass(frozen=True)
class LambdaRow:
    """One extremal eigenvalue with its minimal polynomial and both multiplicities."""

    param: exact.LambdaParam
    minimal_poly: exact.IntPolynomial
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

    report: classify.ClassificationReport
    spectrum: numeric.Spectrum
    lambda_rows: tuple[LambdaRow, ...]
    m1_exact: int
    m1_numeric: int
    reaches_p_minus_1: bool


def verify_gamma_witness(tree: Tree, witness: classify.GammaWitness) -> str | None:
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

    Labels may be numpy integers; they are read as ints.  Nothing here
    calls :func:`in_gamma` or its helpers.
    """
    n, adj = tree.n, tree.adjacency
    major, *ends = map(_integer, (witness.major, *witness.endpoints))
    attachments = [
        classify.GammaAttachment(
            _integer(att.anchor), tuple(map(_integer, att.vertices)), att.family
        )
        for att in witness.attachments
    ]
    named = [major, *ends]
    for att in attachments:
        named += [att.anchor, *att.vertices]
    if not all(v is not None and 1 <= v <= n for v in named):
        return "a witness label is not a vertex of the tree"
    if len(set(ends)) != 3 or major in ends or any(len(adj[u]) != 1 for u in ends):
        return "the legs do not end at three distinct pendants off the major"
    dist, parent, order = tree.bfs(major)
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
    for att in attachments:
        for v in att.vertices:
            if owner[v] is not None:
                return f"vertex {v} is on the core or in two attachments"
            owner[v] = att
    if None in owner[1:]:
        return f"vertex {owner.index(None, 1)} lies in no attachment"

    q_groups: dict[int, list] = {}
    for att in attachments:
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

    # Each attachment is one component hung at its anchor, so its members
    # lie below the anchor in the major's search: a member's depth below the
    # anchor is a difference of distances, and its children are all its
    # neighbours but one.
    q_members = {anchor: [] for anchor in q_groups}  # in the search's order
    for x in order:
        if owner[x] != "core" and owner[x].family == "Q":
            q_members[owner[x].anchor].append(x)
    for anchor, group in q_groups.items():
        if len(group) < 2:
            return f"the Q group at {anchor} has one member"
        for x in q_members[anchor]:
            depth = dist[x] - dist[anchor]
            if len(adj[x]) == 1 and depth % 3 != 1:
                return f"pendant {x} is not 1 (mod 3) from its Q anchor {anchor}"
            if len(adj[x]) >= 3 and depth % 3 != 0:
                return f"pendants of the Q group at {anchor} meet at {x}, not 0 (mod 3) below it"
    return None


def _disagreement(tree: Tree, message: str) -> errors.OracleDisagreement:
    return errors.OracleDisagreement(message, edges=tree.edges)


def _float_laplacians(trees) -> np.ndarray:
    # The (k, n, n) float Laplacians D - A of k trees of one order n, row
    # i <-> label i+1, set straight from each tree's edges.
    if not trees:
        return np.zeros((0, 0, 0))
    k, n = len(trees), trees[0].n
    ends = np.array([tree.edges for tree in trees], dtype=np.intp).reshape(k, n - 1, 2) - 1
    member = np.arange(k)[:, np.newaxis]
    u, v = ends[..., 0], ends[..., 1]
    lap = np.zeros((k, n, n))
    lap[member, u, v] = lap[member, v, u] = -1.0
    degrees = np.bincount((member * n + ends.reshape(k, -1)).ravel(), minlength=k * n)
    diagonal = np.arange(n)
    lap[:, diagonal, diagonal] = degrees.reshape(k, n)
    return lap


def _exact_half(tree: Tree) -> tuple[classify.ClassificationReport, int, int]:
    # Every check of certify that reads no float spectrum, in its order:
    # the witness, the class and Faria's bound against the exact m(T,1).
    # Returns the report and the elimination's (below, zero) counts at 1.
    report = classify.classify_m1(tree)
    if report.gamma_witness is not None:
        problem = verify_gamma_witness(tree, report.gamma_witness)
        if problem is not None:
            raise _disagreement(tree, f"in_gamma witness fails its check: {problem}")
    p = report.p
    m1_below, m1_exact = exact.tree_inertia(tree, 1)
    expected = {"p-1": p - 1, "p-2": p - 2}.get(report.m1_class)
    if expected is not None and m1_exact != expected:
        raise _disagreement(
            tree,
            f"combinatorial class {report.m1_class} predicts m(T,1)={expected} "
            f"but exact nullity is {m1_exact}",
        )
    if expected is None and m1_exact in (p - 1, p - 2):
        raise _disagreement(
            tree, f"exact nullity {m1_exact} hits p-1 or p-2 but no family matched"
        )
    # Faria's bound: with the quasi-pendant vertices S deleted, every
    # pendant is a 1x1 block [1], so interlacing gives m(T,1) >= p - |S|.
    quasi = len({tree.adjacency[u][0] for u in tree.pendants})
    if m1_exact < p - quasi:
        raise _disagreement(
            tree,
            f"exact nullity {m1_exact} is below Faria's bound p - |S| = {p - quasi} "
            f"({quasi} quasi-pendant vertices)",
        )
    return report, m1_below, m1_exact


def _float_half(
    tree: Tree,
    report: classify.ClassificationReport,
    m1_below: int,
    m1_exact: int,
    spectrum: numeric.Spectrum,
) -> Certificate:
    # Every check of certify that reads the float spectrum, in its order,
    # with the extremal rows' exact counts among them.
    p = report.p
    big_reps = [rep for rep, mult in spectrum.clusters if mult == p - 1]
    if report.extremal != bool(big_reps):
        raise _disagreement(
            tree,
            f"extremal verdict {report.extremal} but numeric clusters "
            f"{spectrum.clusters} {'reach' if big_reps else 'miss'} p-1={p - 1}",
        )

    rows = []
    phi = None
    # Exact counts by the ratio's denominator: conjugates share mu, and phi
    # is over Z, so they share the count.  The one ratio over 3 is lambda = 1.
    counts = {3: m1_exact}
    for param in report.lambda_set:
        mu = exact.minimal_poly_lambda(param)
        s = param.ratio.denominator
        if s not in counts:
            if phi is None:
                phi = exact.char_poly(exact.laplacian(tree))
            counts[s] = exact.root_multiplicity(phi, mu)
        m_exact = counts[s]
        m_numeric = numeric.cluster_multiplicity(spectrum, param.value)
        if m_exact != p - 1 or m_numeric != p - 1:
            raise _disagreement(
                tree,
                f"multiplicity of ratio {param.ratio} (value {param.value:.6f}) "
                f"is not p-1={p - 1} on every route: exact {m_exact}, numeric {m_numeric}",
            )
        rows.append(LambdaRow(param=param, minimal_poly=mu, exact=m_exact, numeric=m_numeric))

    m1_numeric = numeric.cluster_multiplicity(spectrum, 1.0)
    if m1_numeric != m1_exact:
        raise _disagreement(tree, f"m(T,1) disagrees: numeric {m1_numeric}, exact {m1_exact}")
    numeric_below = sum(x < 1 - spectrum.tau for x in spectrum.eigenvalues)
    if numeric_below != m1_below:
        raise _disagreement(
            tree, f"eigenvalues below 1 disagree: numeric {numeric_below}, exact {m1_below}"
        )
    if tree.majors and len(big_reps) != len(rows):
        # on a path p-1 = 1, and every simple eigenvalue is such a cluster
        reps = ", ".join(f"{rep:.6f}" for rep in big_reps)
        ratios = ", ".join(str(row.param.ratio) for row in rows)
        raise _disagreement(
            tree,
            f"{len(big_reps)} clusters of size p-1={p - 1} (at {reps}) "
            f"but {len(rows)} extremal eigenvalues (ratios {ratios})",
        )
    return Certificate(
        report=report,
        spectrum=spectrum,
        lambda_rows=tuple(rows),
        m1_exact=m1_exact,
        m1_numeric=m1_numeric,
        reaches_p_minus_1=bool(big_reps),
    )


def certify(tree: Tree, tol: float = 1e-12) -> Certificate:
    """Run the oracle gauntlet on a tree with at least two vertices.

    Every exact check runs before the float route.  A p-2 witness from
    :func:`in_gamma` must first pass :func:`verify_gamma_witness`.  Then
    the combinatorial verdicts, the exact route and the numeric clusters
    must agree on m(T,1), on the extremal verdict and on the multiplicity
    p-1 of every extremal eigenvalue.  The exact m(T,1) is the zero count
    of the elimination of L - I along the tree (:func:`tree_inertia`),
    checked against the combinatorial class and against Faria's bound
    m(T,1) >= p - |S|, S the vertices next to a pendant (I. Faria, Linear
    Algebra Appl. 64 (1985) 255-265), and is the multiplicity of the
    extremal eigenvalue 1.  Only then does LAPACK read the float Laplacian,
    set from the tree's edges.  Any other extremal multiplicity comes from
    dividing one characteristic polynomial of the integer Laplacian, both
    built only when such an eigenvalue exists, by the minimal polynomial,
    once for all its conjugates.  Two more checks follow: the
    elimination's count of eigenvalues below 1 must equal the number of
    float eigenvalues below 1 - tau, and on a non-path the clusters of size
    p-1 must be as many as the extremal eigenvalues.  Any disagreement
    raises OracleDisagreement naming the quantity, each route's value and
    the tree's edges.  The tree runs as a batch of one in
    :func:`certify_many`, so LAPACK reads a stack of one Laplacian.
    """
    return certify_many([tree], tol)[0]


def certify_many(trees, tol: float = 1e-12) -> list[Certificate]:
    """:func:`certify` on trees of one order, with one LAPACK call for all.

    Each tree runs the checks :func:`certify` describes, so this equals
    ``[certify(t, tol) for t in trees]`` when every tree passes.  The
    exact checks run on every tree first, then LAPACK reads the stack
    of their float Laplacians once, then each tree's float checks run in
    turn.  So the disagreement raised names the first tree with an exact
    fault, if any tree has one, else the first with a float fault.  Trees
    of different orders raise ValueError.
    """
    trees = list(trees)
    orders = sorted({tree.n for tree in trees})
    if len(orders) > 1:
        raise ValueError(f"certify_many takes trees of one order, got orders {orders}")
    halves = [_exact_half(tree) for tree in trees]
    spectra = numeric.eigen_symmetric(_float_laplacians(trees), tol=tol)
    return [
        _float_half(tree, *half, spectrum) for tree, half, spectrum in zip(trees, halves, spectra)
    ]


# Largest residual (relative to the vector's max-norm) an eigenbasis may
# show and still be reported; the bound acceptance criterion 4 checks.
_RESIDUAL_MAX = 1e-10


@dataclass(frozen=True)
class BasisCertificate:
    """An explicit eigenbasis after its rank and residuals passed.

    ``param``, ``vectors``, ``path_records`` and ``glue_steps`` are what
    :func:`eigenbasis_extremal` built; ``residuals`` holds each vector's
    scaled residual, in the same order, and ``rank`` the numeric rank of
    the vectors, which equals p-1.
    """

    param: exact.LambdaParam
    vectors: tuple[np.ndarray, ...]
    path_records: tuple[construct.PathRecord, ...]
    glue_steps: tuple[construct.GlueStep, ...]
    residuals: tuple[float, ...]
    rank: int


def certify_basis(tree: Tree, q: int, b: int = 0) -> BasisCertificate:
    """Construct the p-1 eigenvectors for one extremal eigenvalue and check them.

    The vectors must have full numeric rank and every residual must stay
    within 1e-10 of the vector's max-norm, measured on the float Laplacian;
    either failure raises OracleDisagreement with the tree's edges.
    """
    param, vectors, records, steps = construct.eigenbasis_extremal(tree, q, b)
    lap = _float_laplacians([tree])[0]
    residuals = tuple(numeric.residual_norm(lap, param.value, x) for x in vectors)
    rank = numeric.numeric_rank(vectors)
    if rank != len(vectors):
        raise _disagreement(tree, f"eigenbasis rank is {rank}, not p-1={len(vectors)}")
    worst = max(residuals)
    if worst > _RESIDUAL_MAX:
        raise _disagreement(
            tree, f"eigenbasis residual is {worst:.15g}, above {_RESIDUAL_MAX:.15g}"
        )
    return BasisCertificate(param, vectors, records, steps, residuals, rank)
