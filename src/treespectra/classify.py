"""Deciders for when a tree Laplacian reaches maximal eigenvalue multiplicity.

A tree with p pendants can have an eigenvalue of multiplicity at most p-1.
The bound is attained exactly for paths and for trees where some odd
modulus 2q+1 >= 3 divides d(u,w)+1 for every pendant pair; the attaining
eigenvalues are 2(1 - cos((2b+1)pi/(2q+1))).  This module also classifies
the multiplicity of the specific eigenvalue 1: it is p-1 exactly on the
mod-3 family, and p-2 exactly on a three-legged-core family decided by
:func:`in_gamma`.

Every verdict here is combinatorial, read off breadth-first searches:
pendant distances and, for :func:`in_gamma`, a table of the subtrees hung
below each major.  No matrix is built.  The exact and floating-point
routes that check these verdicts live in :mod:`treespectra.gauntlet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import NotExtremal, TooFewPendants
from .exact import LambdaParam
from .trees import Tree, _root_path

__all__ = [
    "CongruenceCertificate",
    "GammaAttachment",
    "GammaWitness",
    "ClassificationReport",
    "pendant_distance_gcd",
    "admissible_q",
    "extremal_lambda_set",
    "in_gamma",
    "classify_m1",
]


@dataclass(frozen=True)
class CongruenceCertificate:
    """gcd of d(u,w)+1 over pendant pairs, and the odd moduli dividing it."""

    g: int
    admissible_moduli: tuple[int, ...]
    q_list: tuple[int, ...]
    is_path: bool


@dataclass(frozen=True)
class GammaAttachment:
    """One hanging component: its anchor on the core, its vertices, and the
    family it is accounted under ('P' for a path hung at a pendant, 'Q' for
    a member of the merged mod-3 subtree hung at one of its nodes)."""

    anchor: int
    vertices: tuple[int, ...]
    family: str


@dataclass(frozen=True)
class GammaWitness:
    """Membership in the eigenvalue-1 family: the major, the three leg ends
    and their residues mod 3 with their Omega type, and every component of
    the tree minus the core, ordered by anchor and then by smallest vertex."""

    major: int
    endpoints: tuple[int, int, int]
    leg_residues: tuple[int, int, int]
    omega: str
    attachments: tuple[GammaAttachment, ...]


@dataclass(frozen=True)
class ClassificationReport:
    p: int
    certificate: CongruenceCertificate
    extremal: bool
    lambda_set: tuple[LambdaParam, ...]
    m1_class: str
    gamma_witness: GammaWitness | None


def pendant_distance_gcd(tree: Tree) -> int:
    """gcd of d(u,w) + 1 over all distinct pendant pairs, from one BFS.

    Rooted at the smallest pendant u0 it is the gcd of d(u0,w) + 1 over the
    other pendants w and of 2 d(u0,x) + 1 over the majors x: two pendants
    that meet at x have d(w,w') + 1 = (d(u0,w)+1) + (d(u0,w')+1) - (2 d(u0,x)+1),
    and every major is the meeting vertex of two pendants in different
    branches below it.
    """
    pendants = tree.pendants
    if len(pendants) < 2:
        raise TooFewPendants(f"need at least two pendants, found {len(pendants)}")
    row = tree.bfs(pendants[0])[0]
    return math.gcd(
        *(row[w] + 1 for w in pendants[1:]), *(2 * row[x] + 1 for x in tree.majors)
    )


def admissible_q(tree: Tree) -> CongruenceCertificate:
    """All odd moduli m >= 3 dividing the pendant-distance gcd, as q values."""
    g = pendant_distance_gcd(tree)
    moduli = tuple(m for m in range(3, g + 1, 2) if g % m == 0)
    return CongruenceCertificate(
        g=g,
        admissible_moduli=moduli,
        q_list=tuple((m - 1) // 2 for m in moduli),
        is_path=not tree.majors,
    )


def extremal_lambda_set(tree: Tree) -> tuple[LambdaParam, ...]:
    """All extremal eigenvalues of a non-path tree, deduplicated and sorted.

    Candidates 2(1 - cos((2b+1)pi/(2q+1))) over admissible q and
    0 <= b < q coincide whenever the reduced ratios do; one representative
    per ratio survives, ordered by eigenvalue.
    """
    cert = admissible_q(tree)
    if cert.is_path:
        raise NotExtremal(
            "path spectra are simple; the extremal set is defined for non-paths"
        )
    if not cert.q_list:
        raise NotExtremal(f"no admissible modulus divides the pendant gcd {cert.g}")
    return _lambda_params(cert)


def _lambda_params(cert: CongruenceCertificate) -> tuple[LambdaParam, ...]:
    # Every admissible modulus divides the largest, M, so the ratios are the
    # reduced k/M = r/s for odd k < M, ascending with k.  Each keeps its
    # smallest admissible q, which is (s-1)/2.
    m = cert.admissible_moduli[-1]
    ratios = (Fraction(k, m) for k in range(1, m - 1, 2))
    return tuple(LambdaParam((r.denominator - 1) // 2, (r.numerator - 1) // 2) for r in ratios)


def _omega_type(sorted_residues) -> str | None:
    # exactly two legs == 1 (mod 3) and the third anything else -> A;
    # one leg == 2 and two legs == 0 -> B
    if sorted_residues.count(1) == 2:
        return "A"
    if sorted_residues == [0, 0, 2]:
        return "B"
    return None


def in_gamma(tree: Tree):
    """Decide membership in the family where eigenvalue 1 has multiplicity p-2.

    The shape: a major vertex m with three internally disjoint paths to
    pendants u1, u2, u3 whose lengths mod 3 form {1,1,x!=1} or {2,0,0},
    plus hanging subtrees allowed only at core vertices a with
    d(a, u_j) == 1 (mod 3) along a's own path (any j works at m itself).
    Each hanging component must individually be a path on 2 (mod 3)
    vertices hung at its end, or groupable with other mod-3 components at
    the same anchor into a subtree all of whose pendants sit at the right
    residues; a mod-3 group needs at least two components so the anchor is
    interior to it.

    One breadth-first search per major gives its distance row and parents;
    each pendant's leg m..u is read off the parents, and one bottom-up pass
    tabulates which subtrees hung below m are path or mod-3 pieces.  The
    scan reads each triple's leg residues off the row first, then rejects
    the triple if two of its legs leave m by the same edge.  What hangs off
    a leg's inner vertices depends on that leg alone, so it is judged once
    per major, at the first triple past both tests that holds the leg; each
    triple judges only what hangs at m.  The tests only filter the same
    scan, so their order changes neither the verdict nor the witness.

    Returns ``(verdict, witness-or-None)``; the witness is the first found,
    scanning majors in ascending order and pendant triples lexicographically.
    """
    pendants = tree.pendants
    if len(pendants) < 3 or not tree.majors:
        return False, None

    for major in tree.majors:
        row_m, parent, order = tree.bfs(major)
        pieces = _hung_pieces(tree, row_m, parent, order)
        legs = {u: _root_path(parent, u) for u in pendants}
        judged = {}  # pendant -> what hangs off its leg, or None if not allowed
        for trio in combinations(pendants, 3):
            omega = _omega_type(sorted(row_m[u] % 3 for u in trio))
            if omega is None:
                continue
            steps = {legs[u][1] for u in trio}
            if len(steps) < 3:
                continue  # legs must leave m by distinct edges
            for u in trio:
                if u not in judged:
                    judged[u] = _judge_leg(tree, row_m, pieces, legs[u])
            hung = [_hung_at(tree, row_m, pieces, major, steps, trio), *map(judged.get, trio)]
            if None not in hung:
                return True, GammaWitness(
                    major=major,
                    endpoints=trio,
                    leg_residues=tuple(row_m[u] % 3 for u in trio),
                    omega=omega,
                    attachments=_attachments(parent, order, [legs[u] for u in trio], hung),
                )
    return False, None


def _hung_pieces(tree: Tree, row, parent, order):
    """The family each subtree hung below the root can be accounted under.

    ``row``, ``parent`` and ``order`` come from one :meth:`Tree.bfs`; the
    subtree below each non-root c hangs at its anchor ``parent[c]``.  A
    mod-3 piece has every tree pendant inside 1 (mod 3) from the anchor
    and pairwise 2 (mod 3) apart; two such pendants meeting at x lie
    2 + d(anchor, x) apart (mod 3) and the meeting vertices are the majors
    inside, so majors must sit at 0.  Distances from the anchor are
    differences along ``row``: pendants must sit at ``row[c]`` and majors
    at ``row[c] - 1`` (mod 3).  A path piece, a path on 2 (mod 3) vertices
    with its anchor at one end, is a subtree with no major and one pendant,
    at ``row[c]`` (mod 3); so every path piece is a mod-3 piece too.

    Returns by label 'P' for a path piece, 'Q' for any other mod-3 piece
    and None otherwise.  One pass over ``order`` backwards, children before
    parents, ORs 6-bit residue masks up the parents: bit r for a pendant at
    residue r, bit 3 + r for a major.
    """
    adj = tree.adjacency
    mask = [0] * (tree.n + 1)
    pieces = [None] * (tree.n + 1)
    for c in reversed(order):
        r = row[c] % 3
        deg = len(adj[c])
        mask[c] |= (1 if deg == 1 else 8 if deg >= 3 else 0) << r
        if parent[c] != c:
            mask[parent[c]] |= mask[c]
            if mask[c] == 1 << r:
                pieces[c] = "P"
            elif mask[c] & ~(1 << r | 8 << (r - 1) % 3) == 0:
                pieces[c] = "Q"
    return pieces


def _hung_at(tree: Tree, row_m, pieces, anchor, core, ends):
    # The components at a core anchor, its neighbours off ``core``, as
    # (anchor, c, family), or None unless the anchor is 1 (mod 3) from an end
    # it answers to and each is a 'P' or 'Q' piece; as a path piece is also a
    # mod-3 piece, one 'Q' makes all one mod-3 group, which needs two or more.
    comps = [c for c in tree.adjacency[anchor] if c not in core]
    kinds = [pieces[c] for c in comps]
    if kinds and all((row_m[u] - row_m[anchor]) % 3 != 1 for u in ends):
        return None
    if None in kinds or ("Q" in kinds and len(kinds) < 2):
        return None
    family = "Q" if "Q" in kinds else "P"
    return [(anchor, c, family) for c in comps]


def _judge_leg(tree: Tree, row_m, pieces, leg):
    # _hung_at over the leg's inner vertices against the leg's own end, or
    # None.  A triple's legs leave the major by distinct edges and meet
    # nowhere else, so what hangs there is off this leg, whatever the others.
    hung = []
    for prev, anchor, nxt in zip(leg, leg[1:], leg[2:]):
        at = _hung_at(tree, row_m, pieces, anchor, (prev, nxt), leg[-1:])
        if at is None:
            return None
        hung += at
    return hung


def _attachments(parent, order, paths, hung):
    # The witness's attachments from _hung_at's lists, ordered by anchor, then
    # smallest vertex.  One pass over the major's Tree.bfs order, parents
    # first, labels each vertex off the core with the top c of its component:
    # itself when its parent is on the core, else its parent's top.
    core = {v for leg in paths for v in leg}
    below = {c: [] for part in hung for _, c, _ in part}
    top = {}
    for x in order:
        if x not in core:
            top[x] = top.get(parent[x], x)
            below[top[x]].append(x)
    attachments = [
        GammaAttachment(anchor=anchor, vertices=tuple(sorted(below[c])), family=family)
        for part in hung for anchor, c, family in part
    ]
    attachments.sort(key=lambda att: (att.anchor, att.vertices))
    return tuple(attachments)


def classify_m1(tree: Tree) -> ClassificationReport:
    """Full combinatorial verdict at eigenvalue 1, read off the tree alone.

    m(T,1) = p-1 exactly on trees whose pendant pairs all sit at distance
    2 (mod 3): 1 = 2(1 - cos(pi/3)) is the q=1 extremal value, so the
    modulus 3 must divide the pendant gcd.  That covers paths too: a path's
    gcd is its order, and 1 is an eigenvalue of the path on n vertices
    exactly when 3 divides n.  m(T,1) = p-2 exactly on paths of other
    orders and on the :func:`in_gamma` family.  Nothing here computes a
    spectrum: :func:`treespectra.gauntlet.certify` checks the verdict
    against the exact nullity and the numeric clusters.

    The extremal verdict, some eigenvalue of multiplicity p-1, is decided
    here alone: it holds for paths (p-1 = 1 there) and for trees with some
    admissible q from :func:`admissible_q`.
    """
    cert = admissible_q(tree)  # raises TooFewPendants below two pendants
    p = len(tree.pendants)
    extremal = cert.is_path or bool(cert.q_list)
    lambda_set = _lambda_params(cert) if extremal and not cert.is_path else ()

    witness = None
    if cert.g % 3 == 0:  # every pendant pair at distance 2 (mod 3)
        m1_class = "p-1"
    elif cert.is_path:  # p-2 = 0, and 1 is no eigenvalue of this path
        m1_class = "p-2"
    else:
        verdict, witness = in_gamma(tree)
        m1_class = "p-2" if verdict else "other"

    return ClassificationReport(
        p=p,
        certificate=cert,
        extremal=extremal,
        lambda_set=lambda_set,
        m1_class=m1_class,
        gamma_witness=witness,
    )
