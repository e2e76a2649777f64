import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shapes import path, prufer_tree, spider, star
from test_float_route import SETTINGS, extremal_trees

from treespectra import (
    LambdaParam,
    Tree,
    admissible_q,
    certify,
    classify_m1,
    extremal_lambda_set,
    family_membership,
    free_trees,
    from_edge_list,
    has_unit_extremal,
    in_gamma,
    is_extremal,
    laplacian,
    path_between,
    pendant_distance_gcd,
    rational_nullity,
    single_vertex,
)
from treespectra import classify
from treespectra.classify import (
    GammaWitness,
    _check_attachments,
    _component_eligibility,
    _omega_type,
)
from treespectra.errors import NotExtremal, TooFewPendants


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
        row = tree.distance_row(u)
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
                assert family_membership(tree).in_q == (g % 3 == 0)

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

    def test_in_q_vacuous_below_two_pendants(self):
        assert family_membership(single_vertex()).in_q


def pairwise_mod3_piece(tree, comp, anchor):
    """The definition of a mod-3 piece: every pendant inside at distance
    1 (mod 3) from the anchor, and every pair of them at distance 2 (mod 3)."""
    leaves = sorted(x for x in comp if len(tree.adjacency[x]) == 1)
    row_anchor = tree.distance_row(anchor)
    if any(row_anchor[x] % 3 != 1 for x in leaves):
        return False
    for i, x in enumerate(leaves):
        row = tree.distance_row(x)
        if any(row[y] % 3 != 2 for y in leaves[i + 1:]):
            return False
    return True


def components_off(tree, anchor):
    """Vertex sets of the components of T - anchor."""
    comps = []
    for root in tree.adjacency[anchor]:
        comp, stack = {root}, [root]
        while stack:
            x = stack.pop()
            for y in tree.adjacency[x]:
                if y != anchor and y not in comp:
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def assert_meeting_vertex_rule(tree):
    # Every component hangs below every vertex outside it, so each such
    # vertex's row may stand in for the major's.
    rows = [None] + [tree.distance_row(v) for v in range(1, tree.n + 1)]
    for anchor in range(1, tree.n + 1):
        for comp in components_off(tree, anchor):
            want = pairwise_mod3_piece(tree, comp, anchor)
            for top in range(1, tree.n + 1):
                if top not in comp:
                    got = _component_eligibility(tree, comp, anchor, rows[top])[1]
                    assert got == want, (tree.edges, anchor, sorted(comp), top)


class TestMeetingVertexRule:
    def test_every_tree_to_order_12(self):
        pieces = 0
        for n in range(2, 13):
            for tree in free_trees(n):
                assert_meeting_vertex_rule(tree)
                pieces += sum(
                    pairwise_mod3_piece(tree, comp, a)
                    for a in range(1, n + 1)
                    for comp in components_off(tree, a)
                )
        assert pieces > 0

    @settings(SETTINGS)
    @given(prufer_trees(max_n=60))
    def test_random_trees_to_order_60(self, tree):
        assert_meeting_vertex_rule(tree)


class TestIsExtremal:
    def test_paths_always(self):
        for n in (2, 3, 7):
            flag, cert = is_extremal(path(n))
            assert flag and cert.is_path

    def test_star(self):
        flag, cert = is_extremal(star(3))
        assert flag
        assert cert.q_list == (1,)

    def test_negative(self):
        flag, cert = is_extremal(spider(1, 2, 2))
        assert not flag
        assert cert.g == 1


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

    def test_paths_rejected(self):
        with pytest.raises(NotExtremal):
            extremal_lambda_set(path(9))

    def test_non_extremal_rejected(self):
        with pytest.raises(NotExtremal):
            extremal_lambda_set(spider(1, 2, 2))


class TestUnitExtremal:
    def test_paths(self):
        assert has_unit_extremal(path(6))
        assert not has_unit_extremal(path(5))

    def test_non_paths(self):
        assert has_unit_extremal(star(3))
        assert has_unit_extremal(spider(1, 1, 4))
        assert not has_unit_extremal(spider(2, 2, 2))


class TestFamilyMembership:
    def test_in_q(self):
        assert family_membership(star(3)).in_q
        assert not family_membership(spider(1, 2, 2)).in_q

    def test_in_p(self):
        assert family_membership(path(5)).in_p
        assert not family_membership(path(6)).in_p
        assert not family_membership(star(3)).in_p

    def test_omega_types(self):
        assert family_membership(spider(1, 1, 2)).omega == "A"
        assert family_membership(spider(2, 3, 3)).omega == "B"
        assert family_membership(spider(1, 2, 2)).omega is None
        assert family_membership(spider(1, 1, 1)).omega is None

    def test_omega_needs_three_legs(self):
        assert family_membership(spider(1, 1, 1, 2)).omega is None


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

    def test_not_gamma(self):
        assert in_gamma(spider(1, 2, 2)) == (False, None)
        assert in_gamma(star(3)) == (False, None)
        assert in_gamma(path(7)) == (False, None)

    def test_one_distance_row_per_major(self, monkeypatch):
        # three majors, components hanging off the legs and no valid triple
        # anywhere: every distance in the scan comes off the majors' rows
        tree = from_edge_list(
            [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (7, 8), (7, 9), (4, 10)]
        )
        rows = []
        real = Tree.distance_row

        def counting(t, u):
            rows.append(u)
            return real(t, u)

        monkeypatch.setattr(Tree, "distance_row", counting)
        assert in_gamma(tree) == (False, None)
        assert rows == list(tree.majors)

    def test_no_legs_without_an_omega_residue(self, monkeypatch):
        # spider(3, 3, 3, 3): g = 7, so classify_m1 reaches in_gamma, and
        # every leg has residue 0, so no triple has an Omega type
        calls = []
        real = classify.path_between

        def counting(tree, u, w):
            calls.append((u, w))
            return real(tree, u, w)

        monkeypatch.setattr(classify, "path_between", counting)
        tree = spider(3, 3, 3, 3)
        assert pendant_distance_gcd(tree) == 7
        assert in_gamma(tree) == (False, None)
        assert calls == []
        assert in_gamma(spider(1, 1, 2))[0]
        assert calls == [(1, 2), (1, 3), (1, 5)]


def in_gamma_by_triple_scan(tree):
    """The reference triple scan, with no shortcut: three legs built for
    every pendant triple at every major, then the distinct-first-step rule,
    the Omega type and the attachments, in that order."""
    pendants = tree.pendants
    if len(pendants) < 3 or not tree.majors:
        return False, None

    for major in tree.majors:
        row_m = tree.distance_row(major)
        for trio in combinations(pendants, 3):
            paths = [path_between(tree, major, u).vertices for u in trio]
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


class TestClassifyM1:
    def test_star_report(self):
        rep = classify_m1(star(3))
        assert (rep.n, rep.p) == (4, 3)
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
        with pytest.raises(TooFewPendants):
            classify_m1(single_vertex())

    def test_cross_check_holds_small(self):
        # certify raises OracleDisagreement on any mismatch between the
        # combinatorial class and the exact or numeric m(T,1)
        for n in range(2, 9):
            for tree in free_trees(n):
                assert certify(tree).report == classify_m1(tree)
