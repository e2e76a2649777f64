"""Deciders for when a tree Laplacian reaches maximal eigenvalue multiplicity.

A tree with p pendants can have an eigenvalue of multiplicity at most p-1.
The bound is attained exactly for paths and for trees where some odd
modulus 2q+1 >= 3 divides d(u,w)+1 for every pendant pair; the attaining
eigenvalues are 2(1 - cos((2b+1)pi/(2q+1))).  This module also classifies
the multiplicity of the specific eigenvalue 1: it is p-1 exactly on the
mod-3 family, and p-2 exactly on a three-legged-core family decided by
:func:`in_gamma`.

Every verdict here is combinatorial, read off pendant distances alone;
no matrix is built.  The exact and floating-point routes that check these
verdicts live in :mod:`treespectra.census`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InvariantViolated, NotExtremal, TooFewPendants
from .exact import LambdaParam
from .trees import Tree, path_between

__all__ = [
    "CongruenceCertificate",
    "FamilyFlags",
    "GammaAttachment",
    "GammaWitness",
    "ClassificationReport",
    "pendant_distance_gcd",
    "admissible_q",
    "is_extremal",
    "extremal_lambda_set",
    "has_unit_extremal",
    "family_membership",
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
class FamilyFlags:
    """Membership in the mod-3 families relevant at eigenvalue 1.

    in_q: every pendant pair sits at distance 2 (mod 3).
    in_p: a path on 2 (mod 3) vertices.
    omega: 'A' or 'B' when the tree is a three-legged spider whose leg
    lengths have residues {1,1,x!=1} or {2,0,0} mod 3, else None.
    """

    in_q: bool
    in_p: bool
    omega: str | None


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
    major: int
    endpoints: tuple[int, int, int]
    leg_residues: tuple[int, int, int]
    omega: str
    attachments: tuple[GammaAttachment, ...]


@dataclass(frozen=True)
class ClassificationReport:
    n: int
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
    row = tree.distance_row(pendants[0])
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


def is_extremal(tree: Tree):
    """Whether some eigenvalue reaches multiplicity p-1, with certificate.

    Paths always qualify (p-1 = 1 there); otherwise the tree qualifies
    exactly when at least one odd modulus >= 3 divides every pendant-pair
    distance plus one.
    """
    cert = admissible_q(tree)
    return cert.is_path or bool(cert.q_list), cert


def extremal_lambda_set(tree: Tree) -> tuple[LambdaParam, ...]:
    """All extremal eigenvalues of a non-path tree, deduplicated and sorted.

    Candidates 2(1 - cos((2b+1)pi/(2q+1))) over admissible q and
    0 <= b < q coincide whenever the reduced ratios do; one representative
    per ratio survives, ordered by eigenvalue.
    """
    extremal, cert = is_extremal(tree)
    if cert.is_path:
        raise NotExtremal(
            "path spectra are simple; the extremal set is defined for non-paths"
        )
    if not extremal:
        raise NotExtremal(f"no admissible modulus divides the pendant gcd {cert.g}")
    return _lambda_params(cert)


def _lambda_params(cert: CongruenceCertificate) -> tuple[LambdaParam, ...]:
    by_ratio: dict[Fraction, LambdaParam] = {}
    for q in cert.q_list:
        for b in range(q):
            param = LambdaParam(q, b)
            by_ratio.setdefault(param.ratio, param)
    return tuple(sorted(by_ratio.values(), key=lambda p: p.ratio))


def has_unit_extremal(tree: Tree) -> bool:
    """Does the eigenvalue 1 itself reach multiplicity p-1?

    1 = 2(1 - cos(pi/3)) is the q=1 extremal value, so non-paths need the
    modulus 3 admissible; a path reaches multiplicity 1 at eigenvalue 1
    exactly when 3 divides its order.
    """
    cert = admissible_q(tree)
    if cert.is_path:
        return tree.n % 3 == 0
    return cert.g % 3 == 0


def family_membership(tree: Tree) -> FamilyFlags:
    pendants = tree.pendants
    # every pendant pair at distance 2 (mod 3); vacuous below two pendants
    in_q = len(pendants) < 2 or pendant_distance_gcd(tree) % 3 == 0
    in_p = not tree.majors and tree.n % 3 == 2

    omega = None
    if len(tree.majors) == 1 and len(pendants) == 3:
        # One major and three pendants force a three-legged spider.
        center = tree.majors[0]
        row = tree.distance_row(center)
        omega = _omega_type(sorted(row[u] % 3 for u in pendants))
    return FamilyFlags(in_q=in_q, in_p=in_p, omega=omega)


def _omega_type(sorted_residues) -> str | None:
    # exactly two legs == 1 (mod 3) and the third anything else -> A;
    # one leg == 2 and two legs == 0 -> B
    if sorted_residues.count(1) == 2:
        return "A"
    if sorted_residues == [0, 0, 2]:
        return "B"
    return None


def _component_eligibility(tree: Tree, comp: frozenset, anchor: int, row_m):
    """Can a hanging component be accounted as a path piece or a mod-3 piece?

    Path piece: together with its anchor it forms a path hung at an end,
    on 2 (mod 3) vertices, i.e. every component vertex has degree <= 2 and
    |comp| == 1 (mod 3).  Mod-3 piece: every tree pendant inside lies at
    distance 1 (mod 3) from the anchor and pairwise at distance 2 (mod 3);
    two such pendants meeting at x lie 2 + d(anchor, x) apart (mod 3) and
    the meeting vertices are the majors inside, so majors must sit at 0.
    The component hangs below the vertex of ``row_m``, so d(anchor, x) is
    row_m[x] - row_m[anchor].
    """
    degrees = [len(tree.adjacency[x]) for x in comp]
    path_ok = max(degrees) <= 2 and len(comp) % 3 == 1
    q_ok = all(
        (row_m[x] - row_m[anchor]) % 3 == (1 if deg == 1 else 0)
        for x, deg in zip(comp, degrees)
        if deg != 2
    )
    return path_ok, q_ok


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

    The scan reads each triple's leg residues off the major's distance row
    and builds the three legs only for triples of an Omega type; the legs
    then decide the distinct-first-step rule and the attachments.  Each test
    only filters the same scan, so their order changes neither the verdict
    nor the witness.

    Returns ``(verdict, witness-or-None)``; the witness is the first found,
    scanning majors in ascending order and pendant triples lexicographically.
    """
    pendants = tree.pendants
    if len(pendants) < 3 or not tree.majors:
        return False, None

    for major in tree.majors:
        row_m = tree.distance_row(major)
        for trio in combinations(pendants, 3):
            omega = _omega_type(sorted(row_m[u] % 3 for u in trio))
            if omega is None:
                continue
            paths = [path_between(tree, major, u).vertices for u in trio]
            first_steps = {p[1] for p in paths}
            if len(first_steps) < 3:
                continue  # legs must leave m by distinct edges
            ok, attachments = _check_attachments(tree, row_m, paths)
            if ok:
                return True, GammaWitness(
                    major=major,
                    endpoints=trio,
                    leg_residues=tuple(row_m[u] % 3 for u in trio),
                    omega=omega,
                    attachments=attachments,
                )
    return False, None


def _check_attachments(tree: Tree, row_m, paths):
    # Components of the tree minus the core, each hanging at one core vertex.
    # The legs leave the major by distinct edges, so every other core vertex
    # lies on one leg; all distances are differences along the major's row.
    major = paths[0][0]
    leg_end = {v: leg[-1] for leg in paths for v in leg[1:]}
    core = set(leg_end) | {major}
    unseen = set(range(1, tree.n + 1)) - core
    by_anchor: dict[int, list[frozenset]] = {}
    while unseen:
        seed = min(unseen)
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in tree.adjacency[x]:
                if y in comp or y in core:
                    continue
                if y in unseen:
                    comp.add(y)
                    stack.append(y)
        unseen -= comp
        anchors = {
            y for x in comp for y in tree.adjacency[x] if y in core
        }
        if len(anchors) != 1:  # tree structure: one edge into the core
            raise InvariantViolated(
                f"component {sorted(comp)} meets the core at {sorted(anchors)}, "
                "not at exactly one vertex",
                edges=tree.edges,
            )
        by_anchor.setdefault(anchors.pop(), []).append(frozenset(comp))

    attachments = []
    for anchor, comps in sorted(by_anchor.items()):
        if anchor == major:
            anchor_ok = any(row_m[leg[-1]] % 3 == 1 for leg in paths)
        else:
            anchor_ok = (row_m[leg_end[anchor]] - row_m[anchor]) % 3 == 1
        if not anchor_ok:
            return False, ()

        elig = [_component_eligibility(tree, comp, anchor, row_m) for comp in comps]
        if any(not p and not q for p, q in elig):
            return False, ()
        q_only = sum(1 for p, q in elig if q and not p)
        q_total = sum(1 for _, q in elig if q)
        if q_only > 0 and q_total < 2:
            return False, ()

        for comp, (path_ok, q_ok) in zip(comps, elig):
            if q_only == 0:
                family = "P"
            else:
                family = "Q" if q_ok else "P"
            attachments.append(
                GammaAttachment(
                    anchor=anchor, vertices=tuple(sorted(comp)), family=family
                )
            )
    return True, tuple(attachments)


def classify_m1(tree: Tree) -> ClassificationReport:
    """Full combinatorial verdict at eigenvalue 1, read off the tree alone.

    m(T,1) = p-1 exactly on paths of order divisible by 3 and on trees
    whose pendant pairs all sit at distance 2 (mod 3); m(T,1) = p-2 exactly
    on paths of other orders and on the :func:`in_gamma` family.  Nothing
    here computes a spectrum: :func:`treespectra.census.certify` checks the
    verdict against the exact nullity and the numeric clusters.
    """
    p = len(tree.pendants)
    if p < 2:
        raise TooFewPendants("classification needs at least two pendants")
    cert = admissible_q(tree)
    extremal = cert.is_path or bool(cert.q_list)
    lambda_set = _lambda_params(cert) if extremal and not cert.is_path else ()

    witness = None
    if cert.is_path:
        m1_class = "p-1" if tree.n % 3 == 0 else "p-2"
    elif cert.g % 3 == 0:  # every pendant pair at distance 2 (mod 3)
        m1_class = "p-1"
    else:
        verdict, witness = in_gamma(tree)
        m1_class = "p-2" if verdict else "other"

    return ClassificationReport(
        n=tree.n,
        p=p,
        certificate=cert,
        extremal=extremal,
        lambda_set=lambda_set,
        m1_class=m1_class,
        gamma_witness=witness,
    )
