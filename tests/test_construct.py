import math
from fractions import Fraction

import numpy as np
import pytest
from shapes import path, spider, star

from treespectra import (
    EigenPair,
    construct,
    eigenbasis_extremal,
    from_edge_list,
    laplacian,
    numeric_rank,
    path_eigenpair,
    residual_norm,
    trees,
)
from treespectra.errors import (
    CongruenceViolated,
    IndexOutOfRange,
    InvariantViolated,
    NoMajorVertex,
)

S3 = math.sqrt(3) / 2


class TestPathEigenpair:
    def test_p3_middle(self):
        pair = path_eigenpair(3, 1)
        assert pair.value == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(pair.vector, [S3, 0.0, -S3], atol=1e-15)

    def test_p2(self):
        pair = path_eigenpair(2, 1)
        r = math.sqrt(2) / 2
        assert pair.value == pytest.approx(2.0, abs=1e-15)
        assert np.allclose(pair.vector, [r, -r], atol=1e-15)

    def test_kernel_index(self):
        pair = path_eigenpair(5, 0)
        assert pair.value == 0.0
        assert np.allclose(pair.vector, np.ones(5))

    def test_residuals_across_path(self):
        for n in (2, 5, 12):
            t = path(n)
            for j in range(n):
                pair = path_eigenpair(n, j)
                assert residual_norm(laplacian(t), pair.value, pair.vector) < 1e-12

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            path_eigenpair(3, 3)
        with pytest.raises(IndexOutOfRange):
            path_eigenpair(3, -1)
        with pytest.raises(IndexOutOfRange):
            path_eigenpair(0, 0)
        # bool is an int subclass; True would pass as the path of order 1
        with pytest.raises(IndexOutOfRange):
            path_eigenpair(True, 0)
        with pytest.raises(IndexOutOfRange):
            path_eigenpair(3, True)


class TestEigenbasisExtremal:
    def test_star_basis(self):
        t = star(3)
        param, vectors, _, glue_steps = eigenbasis_extremal(t, q=1)
        assert len(vectors) == 2
        assert numeric_rank(vectors) == 2
        assert param.value == pytest.approx(1.0, abs=1e-15)
        assert (param.q, param.b) == (1, 0)
        assert param.ratio == Fraction(1, 3)
        for x in vectors:
            assert residual_norm(laplacian(t), param.value, x) < 1e-10
            assert abs(x[0]) < 1e-12  # center
        step, = glue_steps
        assert step.pendant_pair == (2, 3)
        assert step.anchor == 1
        assert step.component == (1, 3, 4)
        # deepest first: the bare path 3-1-4, then the peeled path 2-1-3
        assert vectors[0][1] == 0.0 and vectors[0][3] != 0.0
        assert vectors[1][3] == 0.0 and vectors[1][1] != 0.0

    def test_star_of_1200_leaves(self):
        # one peel step per leaf, far past the interpreter's recursion limit
        _, vectors, _, glue_steps = eigenbasis_extremal(star(1200), q=1)
        assert len(vectors) == 1199
        assert len(glue_steps) == 1198
        assert all(abs(x[0]) < 1e-10 for x in vectors)

    def test_deeper_vector_off_zero_at_anchor_raises(self, monkeypatch):
        # spider(1,1,4) peels the leg 2-1 at anchor 1 and leaves the bare
        # path 3-1-4-5-6-7; a bare-path vector that is 1 everywhere would
        # break the zero-padding across the removed leg
        real = construct.path_eigenpair

        def ones_on_the_bare_path(n, j):
            pair = real(n, j)
            return EigenPair(pair.value, np.ones(n)) if n == 6 else pair

        monkeypatch.setattr(construct, "path_eigenpair", ones_on_the_bare_path)
        with pytest.raises(InvariantViolated, match="deeper eigenvector is 1.0, not 0, at anchor 1"):
            eigenbasis_extremal(spider(1, 1, 4), q=1)

    def test_step_vector_off_zero_at_its_anchor_raises(self, monkeypatch):
        # spider(1,1,4) peels along the 3-vertex path 2-1-3, whose vector
        # must vanish at its own anchor, the joint 1
        real = construct.path_eigenpair

        def ones_on_the_peeled_path(n, j):
            pair = real(n, j)
            return EigenPair(pair.value, np.ones(n)) if n == 3 else pair

        monkeypatch.setattr(construct, "path_eigenpair", ones_on_the_peeled_path)
        with pytest.raises(InvariantViolated, match="is 1.0, not 0, at anchor 1"):
            eigenbasis_extremal(spider(1, 1, 4), q=1)

    def test_sign_flipped_path_vector_raises(self, monkeypatch):
        # -x is still an eigenvector with the same zeros, but the closed form
        # starts every path at +cos(gamma pi/2)
        real = construct.path_eigenpair
        monkeypatch.setattr(
            construct, "path_eigenpair", lambda n, j: EigenPair(real(n, j).value, -real(n, j).vector)
        )
        with pytest.raises(InvariantViolated, match="starts at -0.866"):
            eigenbasis_extremal(spider(1, 1, 4), q=1)

    def test_path_order_off_the_modulus_raises(self):
        # spider(1,1,4) peels 2-1-3 and leaves 3-1-4-5-6-7, neither of order
        # divisible by 5; the bare path, laid first, is named
        with pytest.raises(InvariantViolated, match="order 6 from 3 to 7 is not divisible by 2q[+]1=5"):
            construct._peel_basis(spider(1, 1, 4), 2, 0)

    def test_bare_walk_that_misses_the_other_pendant_raises(self):
        # not a tree: pendants 1 and 5 hang off a triangle 2-3-4, so the walk
        # from 1 stops at 2 instead of reaching 5
        graph = trees._build(5, [(1, 2), (2, 3), (3, 4), (2, 4), (3, 5)])
        with pytest.raises(InvariantViolated, match="order 5 has a 2-vertex end-to-end walk"):
            construct._peel_basis(graph, 1, 0)

    def test_no_pair_at_one_major_raises(self):
        # not a tree: a triangle with one leg at each corner, so no two legs
        # share a major; the peel must fail as an invariant, not crash
        graph = trees._build(6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)])
        with pytest.raises(InvariantViolated, match="no pendant pair with a single major") as info:
            construct._peel_basis(graph, 1, 0)
        assert info.value.edges == graph.edges

    def test_spider222_both_indices(self):
        t = spider(2, 2, 2)
        for b, lam in ((0, 2 * (1 - math.cos(math.pi / 5))),
                       (1, 2 * (1 - math.cos(3 * math.pi / 5)))):
            param, vectors, _, _ = eigenbasis_extremal(t, q=2, b=b)
            assert len(vectors) == 2
            assert numeric_rank(vectors) == 2
            assert param.value == pytest.approx(lam, abs=1e-14)
            for x in vectors:
                assert residual_norm(laplacian(t), param.value, x) < 1e-10

    def test_zeros_at_majors_and_congruent_vertices(self):
        t = spider(1, 1, 4)
        _, vectors, _, _ = eigenbasis_extremal(t, q=1)
        major_rows = [t.bfs(m)[0] for m in t.majors]
        forced = {
            v
            for v in range(1, t.n + 1)
            for row in major_rows
            if row[v] % 3 == 0
        }
        assert forced == {1, 6}
        for x in vectors:
            for v in forced:
                assert abs(x[v - 1]) < 1e-10

    def test_two_major_tree(self):
        # legs (1,1) at each end of a 3-edge path between the majors; after
        # relabeling the majors are 2 and 6 and the pendants 1, 3, 7, 8
        t = from_edge_list(
            [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)]
        )
        param, vectors, path_records, glue_steps = eigenbasis_extremal(t, q=1)
        assert len(vectors) == 3
        assert numeric_rank(vectors) == 3
        for x in vectors:
            assert residual_norm(laplacian(t), param.value, x) < 1e-10
        # peeling leg 1-2 drops major 2 to degree 2, so the leg of pendant 3
        # runs on through 2, 4 and 5 to major 6 in the second step
        assert (param.q, param.b, param.ratio) == (1, 0, Fraction(1, 3))
        assert path_records == (
            construct.PathRecord(k1=1, k2=1, n1=0, n2=0, delta=1),
            construct.PathRecord(k1=4, k2=1, n1=1, n2=0, delta=2),
        )
        assert glue_steps == (
            construct.GlueStep(pendant_pair=(1, 3), anchor=2, component=(2, 3, 4, 5, 6, 7, 8)),
            construct.GlueStep(pendant_pair=(3, 7), anchor=6, component=(6, 7, 8)),
        )
        supports = [tuple(np.flatnonzero(np.abs(x) > 1e-12) + 1) for x in vectors]
        assert supports == [(7, 8), (3, 4, 5, 7), (1, 3)]

    def test_leg_run_on_brings_a_smaller_pendant_to_the_next_major(self):
        # majors 4 - 2 - 7 on a spine, 3 edges apart, with pendants 3, 5 at
        # 4, pendant 1 at 2 and pendants 6, 8 at 7.  Peeling 3 leaves 4 at
        # degree 2, so 5's leg runs on to 2, whose lone leg 1 now has a
        # partner; after peeling 1, 5's leg runs on to 7 and is paired
        # before 6 and 8 there.
        t = from_edge_list(
            [(1, 2), (3, 4), (5, 4), (6, 7), (8, 7),
             (4, 9), (9, 10), (10, 2), (2, 11), (11, 12), (12, 7)]
        )
        param, vectors, _, glue_steps = eigenbasis_extremal(t, q=1)
        assert [(step.pendant_pair, step.anchor) for step in glue_steps] == [
            ((3, 5), 4),
            ((1, 5), 2),
            ((5, 6), 7),
        ]
        assert glue_steps[-1].component == (6, 7, 8)
        assert numeric_rank(vectors) == 4
        for x in vectors:
            assert residual_norm(laplacian(t), param.value, x) < 1e-10

    def test_rejects_wrong_residue(self):
        with pytest.raises(CongruenceViolated):
            eigenbasis_extremal(spider(1, 2, 2), q=1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(CongruenceViolated):
            eigenbasis_extremal(star(3), q=0)
        with pytest.raises(CongruenceViolated):
            eigenbasis_extremal(star(3), q=1, b=1)
        with pytest.raises(CongruenceViolated):
            eigenbasis_extremal(star(3), q=True)

    def test_rejects_paths(self):
        with pytest.raises(NoMajorVertex):
            eigenbasis_extremal(path(6), q=1)
