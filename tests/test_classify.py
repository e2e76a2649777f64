import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shapes import gamma_near_misses, gamma_trees, path, prufer_tree, spider, star
from test_float_route import SETTINGS, extremal_trees

from treespectra import (
    LambdaParam,
    Tree,
    admissible_q,
    certify,
    classify_m1,
    extremal_lambda_set,
    free_trees,
    from_edge_list,
    in_gamma,
    laplacian,
    path_between,
    pendant_distance_gcd,
    rational_nullity,
    single_vertex,
)
from treespectra import classify
from treespectra.classify import GammaAttachment, GammaWitness, _hung_pieces, _omega_type
from treespectra.errors import InvariantViolated, NotExtremal, TooFewPendants


class TestCongruenceCertificate:
    def test_star_gcd(self):
        assert pendant_distance_gcd(star(3)) == 3

    def test_asymmetric_spider_gcd(self):
        assert pendant_distance_gcd(spider(1, 1, 4)) == 3
        assert pendant_distance_gcd(spider(1, 2, 2)) == 1

    def test_too_few_pendants(self):
        with pytest.raises(TooFewPendants):
            pendant_distance_gcd(single_vertex())

    def test_spider222_certificate(self):
        cert = admissible_q(spider(2, 2, 2))
        assert cert.g == 5
        assert cert.admissible_moduli == (5,)
        assert cert.q_list == (2,)
        assert not cert.is_path

    def test_long_path_moduli(self):
        cert = admissible_q(path(15))
        assert cert.g == 15
        assert cert.admissible_moduli == (3, 5, 15)
        assert cert.q_list == (1, 2, 7)
        assert cert.is_path


def pairwise_pendant_gcd(tree):
    """The definition, pair by pair: gcd of d(u,w) + 1 over pendant pairs."""
    pendants = tree.pendants
    g = 0
    for i, u in enumerate(pendants):
        row = tree.bfs(u)[0]
        g = math.gcd(g, *(row[w] + 1 for w in pendants[i + 1:]))
    return g


@st.composite
def prufer_trees(draw, max_n=300, min_n=2):
    n = draw(st.integers(min_n, max_n))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return prufer_tree(seq)


class TestPendantGcdAgainstPairs:
    def test_every_tree_to_order_12(self):
        for n in range(2, 13):
            for tree in free_trees(n):
                g = pairwise_pendant_gcd(tree)
                assert pendant_distance_gcd(tree) == g

    @settings(SETTINGS)
    @given(prufer_trees())
    def test_random_trees_to_order_300(self, tree):
        assert pendant_distance_gcd(tree) == pairwise_pendant_gcd(tree)

    @settings(SETTINGS)
    @given(extremal_trees(max_n=300, max_q=5, max_majors=6, max_legs=5))
    def test_extremal_trees_to_order_300(self, case):
        q, tree = case
        g = pendant_distance_gcd(tree)
        assert g == pairwise_pendant_gcd(tree)
        assert g % (2 * q + 1) == 0


def pairwise_mod3_piece(tree, comp, anchor):
    """The definition of a mod-3 piece: every pendant inside at distance
    1 (mod 3) from the anchor, and every pair of them at distance 2 (mod 3)."""
    leaves = sorted(x for x in comp if len(tree.adjacency[x]) == 1)
    row_anchor = tree.bfs(anchor)[0]
    if any(row_anchor[x] % 3 != 1 for x in leaves):
        return False
    for i, x in enumerate(leaves):
        row = tree.bfs(x)[0]
        if any(row[y] % 3 != 2 for y in leaves[i + 1:]):
            return False
    return True


def subtree_below(tree, parent, c):
    """Vertex set of the subtree below c, for the parents of a Tree.bfs."""
    comp, stack = {c}, [c]
    while stack:
        x = stack.pop()
        for y in tree.adjacency[x]:
            if y != parent[x]:
                comp.add(y)
                stack.append(y)
    return frozenset(comp)


def is_hung_path(tree, anchor, c):
    """Walk down from c, away from the anchor: a path piece meets one new
    vertex at each step, ends at a pendant, and has 2 (mod 3) vertices with
    its anchor."""
    prev, x, count = anchor, c, 1
    while True:
        ahead = [y for y in tree.adjacency[x] if y != prev]
        if not ahead:
            return count % 3 == 1
        if len(ahead) > 1:
            return False
        prev, x, count = x, ahead[0], count + 1


def assert_meeting_vertex_rule(tree):
    # The table from every root r against the definitions, for every c != r:
    # each subtree hangs below every vertex outside it, so any root's row
    # may stand in for the major's.  Returns the number of mod-3 pieces.
    expected = {}  # (anchor, c) -> (path piece, mod-3 piece)
    for root in range(1, tree.n + 1):
        row, parent, order = tree.bfs(root)
        table = _hung_pieces(tree, row, parent, order)
        for c in range(1, tree.n + 1):
            if c == root:
                continue
            edge = (parent[c], c)
            if edge not in expected:
                comp = subtree_below(tree, parent, c)
                expected[edge] = (
                    is_hung_path(tree, parent[c], c),
                    pairwise_mod3_piece(tree, comp, parent[c]),
                )
            got = (table[c] == "P", table[c] in ("P", "Q"))
            assert got == expected[edge], (tree.edges, root, c)
    return sum(q for _, q in expected.values())


class TestMeetingVertexRule:
    def test_every_tree_to_order_12(self):
        pieces = 0
        for n in range(2, 13):
            for tree in free_trees(n):
                pieces += assert_meeting_vertex_rule(tree)
        assert pieces > 0

    @settings(SETTINGS)
    @given(prufer_trees(max_n=60))
    def test_random_trees_to_order_60(self, tree):
        assert_meeting_vertex_rule(tree)


class TestIsExtremal:
    # the extremal verdict of classify_m1, with the certificate it rests on
    def test_paths_always(self):
        for n in (2, 3, 7):
            report = classify_m1(path(n))
            assert report.extremal and report.certificate.is_path

    def test_star(self):
        report = classify_m1(star(3))
        assert report.extremal
        assert report.certificate.q_list == (1,)

    def test_negative(self):
        report = classify_m1(spider(1, 2, 2))
        assert not report.extremal
        assert report.certificate.g == 1


class TestLambdaSet:
    def test_star_single_value(self):
        assert extremal_lambda_set(star(3)) == (LambdaParam(1, 0),)

    def test_spider444_dedup(self):
        # moduli 3 and 9 overlap at ratio 1/3; four distinct values remain
        params = extremal_lambda_set(spider(4, 4, 4))
        ratios = [p.ratio for p in params]
        assert ratios == [
            Fraction(1, 9),
            Fraction(1, 3),
            Fraction(5, 9),
            Fraction(7, 9),
        ]
        values = [p.value for p in params]
        assert values == sorted(values)
        assert all(0 < v < 4 for v in values)

    def test_matches_definition_over_all_q(self):
        # spider(k, k, k) has g = 2k+1: every odd composite brings several
        # moduli, whose candidates (q, b) share ratios
        composite = 0
        for k in range(1, 91):
            tree = spider(k, k, k)
            cert = admissible_q(tree)
            composite += len(cert.q_list) > 1
            first: dict[Fraction, LambdaParam] = {}
            for q in sorted(cert.q_list):
                for b in range(q):
                    param = LambdaParam(q, b)
                    first.setdefault(param.ratio, param)
            expected = [(p.q, p.b, p.ratio) for p in sorted(first.values(), key=lambda p: p.ratio)]
            assert [(p.q, p.b, p.ratio) for p in extremal_lambda_set(tree)] == expected
        assert composite == 49

    def test_paths_rejected(self):
        with pytest.raises(NotExtremal):
            extremal_lambda_set(path(9))

    def test_non_extremal_rejected(self):
        with pytest.raises(NotExtremal):
            extremal_lambda_set(spider(1, 2, 2))


def unit_extremal(tree):
    """m(T,1) = p-1 read two ways: the decider classify_m1 runs, and the
    modulus 3 among the admissible ones (1 is the q = 1 extremal value)."""
    by_class = classify_m1(tree).m1_class == "p-1"
    by_modulus = 3 in admissible_q(tree).admissible_moduli
    assert by_class == by_modulus, tree.edges
    return by_class


class TestUnitExtremal:
    def test_paths(self):
        assert unit_extremal(path(6))
        assert not unit_extremal(path(5))

    def test_non_paths(self):
        assert unit_extremal(star(3))
        assert unit_extremal(spider(1, 1, 4))
        assert not unit_extremal(spider(2, 2, 2))

    def test_path_gcd_is_its_order(self):
        # the mod-3 rule needs no path case: a path's pendant gcd is n, and
        # 1 is an eigenvalue of the path on n vertices exactly when 3 | n
        for n in range(2, 301):
            assert admissible_q(path(n)).g == n
            assert unit_extremal(path(n)) == (n % 3 == 0)
            assert classify_m1(path(n)).m1_class == ("p-1" if n % 3 == 0 else "p-2")


def _judged_legs(monkeypatch):
    # every leg in_gamma hands to classify._judge_leg, in order
    calls = []
    real = classify._judge_leg

    def counting(tree, row_m, pieces, leg):
        calls.append(leg)
        return real(tree, row_m, pieces, leg)

    monkeypatch.setattr(classify, "_judge_leg", counting)
    return calls


class TestInGamma:
    def test_core_only_spider(self):
        verdict, witness = in_gamma(spider(1, 1, 2))
        assert verdict
        assert witness.major == 1
        assert witness.endpoints == (2, 3, 5)
        assert witness.leg_residues == (1, 1, 2)
        assert witness.omega == "A"
        assert witness.attachments == ()

    def test_attachment_at_major(self):
        verdict, witness = in_gamma(spider(1, 1, 1, 2))
        assert verdict
        assert witness.endpoints == (2, 3, 6)
        att, = witness.attachments
        assert att.anchor == 1
        assert att.vertices == (4,)
        assert att.family == "P"

    def test_omega_types(self):
        # leg residues {1,1,x!=1} are type A, {2,0,0} type B, others neither
        assert in_gamma(spider(1, 1, 2))[1].omega == "A"
        assert in_gamma(spider(2, 3, 3))[1].omega == "B"
        assert in_gamma(spider(1, 1, 1)) == (False, None)

    def test_not_gamma(self):
        assert in_gamma(spider(1, 2, 2)) == (False, None)
        assert in_gamma(star(3)) == (False, None)
        assert in_gamma(path(7)) == (False, None)

    def test_one_distance_row_per_major(self, monkeypatch):
        # three majors, components hanging off the legs and no valid triple
        # anywhere: every distance and every leg in the scan comes off one
        # breadth-first search per major
        tree = from_edge_list(
            [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (7, 8), (7, 9), (4, 10)]
        )
        roots = []
        real = Tree.bfs

        def counting(t, u):
            roots.append(u)
            return real(t, u)

        monkeypatch.setattr(Tree, "bfs", counting)
        assert in_gamma(tree) == (False, None)
        assert roots == list(tree.majors)

    def test_no_legs_without_an_omega_residue(self, monkeypatch):
        # spider(3, 3, 3, 3): g = 7, so classify_m1 reaches in_gamma, and
        # every leg has residue 0, so no triple has an Omega type and no
        # leg is judged
        calls = _judged_legs(monkeypatch)
        tree = spider(3, 3, 3, 3)
        assert pendant_distance_gcd(tree) == 7
        assert in_gamma(tree) == (False, None)
        assert calls == []
        assert in_gamma(spider(1, 1, 2))[0]
        assert calls == [(1, 2), (1, 3), (1, 4, 5)]

    def test_each_leg_judged_once_per_major(self, monkeypatch):
        # spider(1, 1, 1, 3, 3, 3): the nine triples of two short legs and
        # one long one are all type A with distinct first steps, and each
        # fails at the major, where a leg of 3 is neither a 'P' nor a 'Q'
        # piece; so the scan meets every leg in three or six of them
        tree = spider(1, 1, 1, 3, 3, 3)
        major = tree.majors[0]
        row = tree.bfs(major)[0]
        omega = [
            trio
            for trio in combinations(tree.pendants, 3)
            if _omega_type(sorted(row[u] % 3 for u in trio))
        ]
        assert len(omega) == 9
        calls = _judged_legs(monkeypatch)
        assert in_gamma(tree) == in_gamma_by_triple_scan(tree) == (False, None)
        assert sorted(calls) == sorted(path_between(tree, major, u) for u in tree.pendants)

    def test_attachments_ordered_by_smallest_vertex(self):
        # two P components at the major: the one through child 9 holds
        # vertex 6, so it comes before the one through child 8
        tree = from_edge_list(
            [(1, 2), (1, 3), (1, 4), (4, 5), (6, 7), (1, 8), (1, 9), (9, 6), (7, 10)]
        )
        verdict, witness = in_gamma(tree)
        assert verdict
        assert witness.attachments == (
            GammaAttachment(anchor=1, vertices=(6, 7, 9, 10), family="P"),
            GammaAttachment(anchor=1, vertices=(8,), family="P"),
        )
        assert in_gamma_by_triple_scan(tree) == (verdict, witness)


# The reference scan's own attachment check: a flood fill of T - core for
# every triple, independent of in_gamma's per-major table of hung subtrees.
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


def in_gamma_by_triple_scan(tree):
    """The reference triple scan, with no shortcut: three legs built for
    every pendant triple at every major, then the distinct-first-step rule,
    the Omega type and the attachments, in that order."""
    pendants = tree.pendants
    if len(pendants) < 3 or not tree.majors:
        return False, None

    for major in tree.majors:
        row_m = tree.bfs(major)[0]
        for trio in combinations(pendants, 3):
            paths = [path_between(tree, major, u) for u in trio]
            first_steps = {p[1] for p in paths}
            if len(first_steps) < 3:
                continue  # legs must leave m by distinct edges
            residues = sorted(row_m[u] % 3 for u in trio)
            omega = _omega_type(residues)
            if omega is None:
                continue
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


class TestInGammaAgainstTripleScan:
    def test_every_tree_to_order_12(self):
        members = 0
        for n in range(2, 13):
            for tree in free_trees(n):
                got = in_gamma(tree)
                assert got == in_gamma_by_triple_scan(tree), tree.edges
                members += got[0]
        assert members > 0

    @settings(SETTINGS, max_examples=60)
    @given(prufer_trees(min_n=13, max_n=30))
    def test_random_trees_13_to_30(self, tree):
        verdict, witness = in_gamma(tree)
        assert (verdict, witness) == in_gamma_by_triple_scan(tree)
        # a path has no major and m(T,1) = p-2 off the multiples of 3, so
        # the equivalence with the exact nullity holds for non-paths
        if tree.majors:
            m1 = rational_nullity(laplacian(tree), 1)
            assert verdict == (m1 == len(tree.pendants) - 2)

    @settings(SETTINGS, max_examples=40)
    @given(gamma_trees(max_n=60))
    def test_constructed_gamma_trees(self, tree):
        # random Prufer trees are rarely in Gamma; these all are, by construction
        assert tree.n <= 60
        got = in_gamma(tree)
        assert got[0]
        assert got == in_gamma_by_triple_scan(tree)
        assert rational_nullity(laplacian(tree), 1) == len(tree.pendants) - 2

    @settings(SETTINGS, max_examples=40)
    @given(gamma_near_misses())
    def test_near_misses(self, tree):
        # one vertex away from Gamma: mostly negative verdicts, each one
        # checked against the reference scan and the exact nullity
        assert tree.n <= 45
        verdict, witness = in_gamma(tree)
        assert (verdict, witness) == in_gamma_by_triple_scan(tree)
        m1 = rational_nullity(laplacian(tree), 1)
        assert verdict == (m1 == len(tree.pendants) - 2)


class TestClassifyM1:
    def test_star_report(self):
        rep = classify_m1(star(3))
        assert rep.p == 3
        assert rep.extremal
        assert rep.lambda_set == (LambdaParam(1, 0),)
        assert rep.m1_class == "p-1"
        assert rep.gamma_witness is None
        assert certify(star(3)).m1_exact == 2

    def test_gamma_report(self):
        rep = classify_m1(spider(1, 1, 2))
        assert rep.m1_class == "p-2"
        assert rep.gamma_witness is not None
        assert certify(spider(1, 1, 2)).m1_exact == 1

    def test_other_report(self):
        rep = classify_m1(spider(1, 2, 2))
        assert rep.m1_class == "other"
        assert not rep.extremal
        assert certify(spider(1, 2, 2)).m1_exact == 0

    def test_path_reports(self):
        assert classify_m1(path(6)).m1_class == "p-1"
        assert classify_m1(path(5)).m1_class == "p-2"
        assert classify_m1(path(2)).m1_class == "p-2"

    def test_too_few_pendants(self):
        # pendant_distance_gcd checks it, once, for classify_m1
        with pytest.raises(TooFewPendants, match="need at least two pendants, found 0"):
            classify_m1(single_vertex())

    def test_cross_check_holds_small(self):
        # certify raises OracleDisagreement on any mismatch between the
        # combinatorial class and the exact or numeric m(T,1)
        for n in range(2, 9):
            for tree in free_trees(n):
                assert certify(tree).report == classify_m1(tree)
