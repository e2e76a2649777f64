import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from shapes import path, star
from test_float_route import SETTINGS

from treespectra import (
    census,
    cluster_multiplicity,
    eigen_symmetric,
    free_trees,
    laplacian,
    numeric_rank,
    residual_norm,
)
from treespectra.errors import EmptyInput, NonFinite, NonSymmetric, ZeroVector
from treespectra.gauntlet import _float_laplacians


class TestEigenSymmetric:
    def test_p2(self):
        spec = eigen_symmetric(laplacian(path(2)))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_p3(self):
        spec = eigen_symmetric(laplacian(path(3)))
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_star_clusters(self):
        spec = eigen_symmetric(laplacian(star(3)))
        assert [m for _, m in spec.clusters] == [1, 2, 1]
        reps = [rep for rep, _ in spec.clusters]
        assert np.allclose(reps, [0.0, 1.0, 4.0], atol=1e-9)

    def test_single_vertex_matrix(self):
        spec = eigen_symmetric(((0,),))
        assert spec.eigenvalues == (0.0,)
        assert spec.clusters == ((0.0, 1),)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetric):
            eigen_symmetric(((0, 1), (2, 0)))
        with pytest.raises(NonSymmetric):
            eigen_symmetric(((0, 1, 0),))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonSymmetric):
            eigen_symmetric(((bad, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_rejects_bad_tol(self, tol):
        # NaN and negative tol once fell back to tau = 1e-8 unseen, and +inf
        # put the whole spectrum in one cluster
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            eigen_symmetric(laplacian(path(3)), tol=tol)
        assert eigen_symmetric(laplacian(path(3)), tol=0).tau == 1e-8

    def test_matches_path_closed_form(self):
        n = 17
        spec = eigen_symmetric(laplacian(path(n)))
        expected = sorted(2 * (1 - math.cos(math.pi * j / n)) for j in range(n))
        assert np.allclose(spec.eigenvalues, expected, atol=1e-9)


@st.composite
def symmetric_stacks(draw):
    # (k, n, n) stacks of symmetric float matrices; small integer entries
    # repeat eigenvalues, so clusters of more than one value show up too
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = st.one_of(st.integers(-3, 3).map(float), st.floats(-100, 100))
    a = draw(arrays(np.float64, (k, n, n), elements=entries))
    return a + a.transpose(0, 2, 1)


class TestEigenSymmetricStack:
    def test_catalog_chunks_match_one_matrix_calls(self):
        # every tree of order 2 to 12, in the chunks build_catalog certifies
        chunks = [chunk for chunk in census._catalog_chunks(12) if len(chunk[0]) > 1]
        assert sum(map(len, chunks)) == 986
        for chunk in chunks:
            trees = [census._tree_from_levels(levels) for levels in chunk]
            stack = _float_laplacians(trees)
            spectra = eigen_symmetric(stack)
            assert spectra == tuple(map(eigen_symmetric, stack))
            for tree, spectrum in zip(trees, spectra):
                alone = np.linalg.eigvalsh(np.array(laplacian(tree), dtype=float))
                assert spectrum.eigenvalues == tuple(alone.tolist())

    @settings(SETTINGS)
    @given(symmetric_stacks(), st.sampled_from([0.0, 1e-12, 1e-6]))
    def test_random_stacks_match_one_matrix_calls(self, stack, tol):
        # == on eigenvalues, clusters and tau, bit for bit
        spectra = eigen_symmetric(stack, tol=tol)
        assert spectra == tuple(eigen_symmetric(member, tol=tol) for member in stack)

    def test_empty_stack(self):
        assert eigen_symmetric(np.zeros((0, 4, 4))) == ()

    @pytest.mark.parametrize(
        "stack, message",
        [
            (np.array([np.eye(2), [[0, 1], [2, 0]]]), "matrix 1 of the stack is not symmetric"),
            (
                np.array([np.eye(2), np.eye(2), [[0, math.nan], [math.nan, 0]]]),
                "matrix 2 of the stack has non-finite entries",
            ),
            (np.zeros((2, 2, 3)), "expected a stack of square matrices, got shape (2, 2, 3)"),
            (np.zeros((1, 2, 2, 2)), "expected a square matrix, got shape (1, 2, 2, 2)"),
        ],
        ids=["asymmetric_member", "nan_member", "not_square", "four_dimensional"],
    )
    def test_rejects_bad_stacks(self, stack, message):
        with pytest.raises(NonSymmetric) as info:
            eigen_symmetric(stack)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (((0, 1, 0),), "expected a square matrix, got shape (1, 3)"),
            ((0, 1), "expected a square matrix, got shape (2,)"),
            (((math.inf, 0.0), (0.0, 1.0)), "matrix has non-finite entries"),
            (((0, 1), (2, 0)), "matrix is not symmetric"),
        ],
    )
    def test_one_matrix_messages(self, matrix, message):
        with pytest.raises(NonSymmetric) as info:
            eigen_symmetric(matrix)
        assert str(info.value) == message


class TestClusters:
    def test_cluster_multiplicity_lookup(self):
        spec = eigen_symmetric(laplacian(star(5)))
        assert cluster_multiplicity(spec, 1.0) == 4
        assert cluster_multiplicity(spec, 2.5) == 0

    def test_pendant_bound_on_cluster_size(self):
        # no cluster can exceed p-1 for trees on >= 3 vertices
        for n in range(3, 10):
            for tree in free_trees(n):
                p = len(tree.pendants)
                spec = eigen_symmetric(laplacian(tree))
                assert max(m for _, m in spec.clusters) <= p - 1


class TestResidualNorm:
    def test_exact_eigenvector(self):
        t = star(3)
        x = np.array([0.0, 1.0, -1.0, 0.0])
        assert residual_norm(laplacian(t), 1.0, x) < 1e-15

    def test_scales_with_vector(self):
        t = star(3)
        x = np.array([0.0, 1.0, -1.0, 0.0])
        assert residual_norm(laplacian(t), 1.0, 1e6 * x) == residual_norm(laplacian(t), 1.0, x)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            residual_norm(laplacian(star(3)), 1.0, np.zeros(4))

    @pytest.mark.parametrize("cols, shape", [(4, (3,)), (4, (5,)), (4, (2, 2)), (3, (4,))])
    def test_shape_mismatch(self, cols, shape):
        lap = np.array(laplacian(star(3)), dtype=float)[:, :cols]
        with pytest.raises(NonSymmetric, match="does not fit"):
            residual_norm(lap, 1.0, np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual(self, bad):
        lap = np.array(laplacian(star(3)), dtype=float)
        x = np.array([0.0, 1.0, -1.0, 0.0])
        spoiled = lap.copy()
        spoiled[1, 1] = bad
        with pytest.raises(NonFinite):
            residual_norm(spoiled, 1.0, x)
        with pytest.raises(NonFinite):
            residual_norm(lap, bad, x)
        with pytest.raises(NonFinite):
            residual_norm(lap, 1.0, np.array([0.0, 1.0, bad, 0.0]))


class TestNumericRank:
    def test_dependent_vectors(self):
        assert numeric_rank([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2

    def test_noise_below_tolerance_ignored(self):
        # singular values count above 1e-8 times the largest vector norm
        assert numeric_rank([[1, 0, 0], [1, 1e-12, 0]]) == 1
        assert numeric_rank([[1, 0, 0], [1, 1e-9, 0]]) == 1
        assert numeric_rank([[1, 0, 0], [1, 1e-6, 0]]) == 2

    def test_empty(self):
        with pytest.raises(EmptyInput):
            numeric_rank([])

    def test_all_zero(self):
        assert numeric_rank([[0.0, 0.0], [0.0, 0.0]]) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFinite):
            numeric_rank([[bad, 0.0], [0.0, 1.0]])

    def test_kahan_matrix_is_rank_deficient(self):
        # Kahan's upper-triangular matrix (Canad. Math. Bull. 9, 1966), its
        # columns scaled by (1 - 1e-9)^j and taken as the vectors: every
        # pivot of a column-pivoted orthogonalization stays above 1e-8, yet
        # the smallest singular value is about 2.6e-11 and the largest
        # column norm is 1
        n, c = 60, 0.4
        s = math.sqrt(1 - c * c)
        kahan = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        kahan = kahan * (1 - 1e-9) ** np.arange(n)
        assert numeric_rank(kahan.T) == n - 1


class TestSignlessSimilarity:
    def test_spectra_agree_on_trees(self):
        # trees are bipartite, so both Laplacian signs are similar
        for n in range(2, 9):
            for tree in free_trees(n):
                lap = np.array(laplacian(tree))
                plain = eigen_symmetric(lap).eigenvalues
                signless = eigen_symmetric(np.abs(lap)).eigenvalues  # D + A
                assert np.allclose(plain, signless, atol=1e-8)
