import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shapes import path, prufer_tree, star
from test_float_route import SETTINGS, random_trees

from treespectra import (
    IntPolynomial,
    LambdaParam,
    char_poly,
    exact,
    from_edge_list,
    free_trees,
    laplacian,
    minimal_poly_lambda,
    multiplicity_exact,
    pendant_distance_gcd,
    rational_nullity,
    root_multiplicity,
    single_vertex,
    tree_inertia,
)
from treespectra.errors import CongruenceViolated, ZeroPolynomial
from treespectra.exact import poly_divmod, poly_mul


class TestLambdaParam:
    def test_reduced_ratio_and_value(self):
        p = LambdaParam(4, 1)  # 3/9 reduces to 1/3
        assert p.ratio == Fraction(1, 3)
        assert p == LambdaParam(1, 0)
        assert abs(p.value - 1.0) < 1e-12

    def test_ratio_terms_both_odd(self):
        for q in range(1, 8):
            for b in range(q):
                r = LambdaParam(q, b).ratio
                assert r.numerator % 2 == 1 and r.denominator % 2 == 1
                assert 0 < r < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaParam(0, 0)
        with pytest.raises(ValueError):
            LambdaParam(2, 2)

    @pytest.mark.parametrize(
        "q, b",
        [(1.5, 0), (2, 0.5), (2.0, 0), ("2", 0), (2, None), (True, False), (True, 0), (2, False)],
    )
    def test_non_integer_parameters_rejected(self, q, b):
        # bool is an int subclass, and JSON's true reads back as True
        with pytest.raises(CongruenceViolated):
            LambdaParam(q, b)


class TestLaplacian:
    def test_star(self):
        assert laplacian(star(3)) == (
            (3, -1, -1, -1),
            (-1, 1, 0, 0),
            (-1, 0, 1, 0),
            (-1, 0, 0, 1),
        )

    def test_rows_built_once(self):
        # Each row becomes a tuple before the next starts, so building holds
        # one spare row at most, not a second copy of the whole matrix.
        tree = path(400)
        tracemalloc.start()
        try:
            result = laplacian(tree)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 400
        assert peak < 1.5 * size


class TestRationalNullity:
    def test_star_at_one(self):
        assert rational_nullity(laplacian(star(3)), 1) == 2

    def test_p3_at_one(self):
        assert rational_nullity(laplacian(path(3)), 1) == 1

    def test_p4_at_one(self):
        assert rational_nullity(laplacian(path(4)), 0) == 1
        assert rational_nullity(laplacian(path(4)), 1) == 0

    def test_fractional_shift(self):
        # 2 - sqrt(2) is irrational, so any rational shift misses it
        assert rational_nullity(laplacian(path(4)), Fraction(3, 2)) == 0

    def test_empty_matrix(self):
        assert rational_nullity((), 1) == 0

    def test_kernel_is_always_one_dimensional(self):
        for n in range(2, 9):
            for tree in free_trees(n):
                assert rational_nullity(laplacian(tree), 0) == 1


def eigvalsh_inertia(tree, lam):
    """(below, at) counts of the LAPACK eigenvalues against ``lam``, margin 1e-8."""
    values = np.linalg.eigvalsh(np.array(laplacian(tree), dtype=float))
    lam = float(lam)
    return int(np.sum(values < lam - 1e-8)), int(np.sum(abs(values - lam) <= 1e-8))


@st.composite
def rationals(draw):
    """a/b in [-1, 5] with 1 <= b <= 50."""
    b = draw(st.integers(1, 50))
    return Fraction(draw(st.integers(-b, 5 * b)), b)


class TestTreeInertia:
    def test_small_cases(self):
        assert tree_inertia(star(3), 1) == (1, 2)  # spectrum 0, 1, 1, 4
        assert tree_inertia(path(4), 0) == (0, 1)
        assert tree_inertia(path(4), Fraction(3, 2)) == (2, 0)  # 0, 2 - sqrt(2) below
        assert tree_inertia(single_vertex(), 1) == (1, 0)

    @pytest.mark.parametrize("lam", [1, Fraction(1, 2), 2, 3], ids=str)
    def test_every_tree_to_order_12(self, lam):
        # zeros against the dense fraction-free rank, negatives against LAPACK
        for n in range(1, 13):
            for tree in free_trees(n):
                below, zero = tree_inertia(tree, lam)
                assert zero == rational_nullity(laplacian(tree), lam), tree.edges
                assert (below, zero) == eigvalsh_inertia(tree, lam), tree.edges

    @settings(SETTINGS, max_examples=60)
    @given(random_trees(min_n=2, max_n=150))
    def test_random_trees_at_one(self, tree):
        below, zero = tree_inertia(tree, 1)
        assert zero == rational_nullity(laplacian(tree), 1)
        assert (below, zero) == eigvalsh_inertia(tree, 1)

    @settings(SETTINGS, max_examples=100)
    @given(random_trees(min_n=2, max_n=60), rationals())
    def test_random_trees_at_random_rationals(self, tree, lam):
        # zeros against the dense rank always; both counts against LAPACK
        # unless an eigenvalue sits off lam but within 1e-6 of it, where
        # the 1e-8 margin would not tell the two apart
        below, zero = tree_inertia(tree, lam)
        assert zero == rational_nullity(laplacian(tree), lam)
        values = np.linalg.eigvalsh(np.array(laplacian(tree), dtype=float))
        gaps = abs(values - float(lam))
        if not np.any((gaps > 1e-8) & (gaps <= 1e-6)):
            assert (below, zero) == eigvalsh_inertia(tree, lam)

    @pytest.mark.parametrize("n", [1200, 1201, 4800])
    def test_long_paths(self, n):
        # P_n has eigenvalues 2 - 2cos(k*pi/n), k < n: those below 1 are
        # k < n/3, and k = n/3 is the eigenvalue 1; all lie below 4 < 9/2
        tree = path(n)
        expected = (n // 3, 1) if n % 3 == 0 else (-(-n // 3), 0)
        assert tree_inertia(tree, 1) == expected
        assert tree_inertia(tree, Fraction(9, 2)) == (n, 0)

    def test_large_star(self):
        # K_{1,k}: 0, then 1 with multiplicity k - 1, then k + 1
        assert tree_inertia(star(1199), 1) == (1, 1198)

    def test_converts_lam_alone(self, monkeypatch):
        # the elimination runs on ints: the one Fraction built per call is
        # the conversion of lam, whatever the tree's zeros and cuts
        made = []
        real = exact.Fraction

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(exact, "Fraction", counting)
        cases = [
            (star(5), 1),
            (path(6), 1),
            (path(30), Fraction(9, 2)),
            (prufer_tree([3, 3, 5, 1, 7, 7]), Fraction(-2, 7)),
        ]
        for tree, lam in cases:
            tree_inertia(tree, lam)
        assert made == [(lam,) for _, lam in cases]

    def test_unit_zeros_match_char_poly(self):
        # certify reads m(T,1) off the elimination for the ratio 1/3 row and
        # never divides char_poly by x - 1; this is that comparison, on every
        # tree of order <= 12 with 3 | g (exactly the trees with that row,
        # plus the paths of order 3k) and on stars of order 4 to 60
        unit = minimal_poly_lambda(LambdaParam(1, 0))
        trees = [
            tree
            for n in range(2, 13)
            for tree in free_trees(n)
            if pendant_distance_gcd(tree) % 3 == 0
        ]
        assert len(trees) == 40
        for tree in trees + [star(3), star(9), star(29), star(59)]:
            zero = tree_inertia(tree, 1)[1]
            assert root_multiplicity(char_poly(laplacian(tree)), unit) == zero, tree.edges
            assert zero == len(tree.pendants) - 1, tree.edges


class TestCharPoly:
    def test_p2(self):
        assert char_poly(laplacian(path(2))).coeffs == (0, -2, 1)

    def test_star(self):
        assert char_poly(laplacian(star(3))).coeffs == (0, -4, 9, -6, 1)

    def test_one_by_one(self):
        assert char_poly(((0,),)).coeffs == (0, 1)

    def test_linear_coefficient_counts_spanning_trees(self):
        # for a tree: coefficient of x is (-1)^(n-1) * n, constant term 0
        for n in range(2, 9):
            for tree in free_trees(n):
                coeffs = char_poly(laplacian(tree)).coeffs
                assert coeffs[0] == 0
                assert coeffs[1] == (-1) ** (n - 1) * n

    def test_matches_root_sum(self):
        # trace = sum of eigenvalues = -coefficient of x^(n-1)
        t = from_edge_list([(1, 2), (2, 3), (2, 4), (4, 5)])
        coeffs = char_poly(laplacian(t)).coeffs
        assert coeffs[-2] == -sum(len(a) for a in t.adjacency)


class TestMinimalPoly:
    def test_ratio_one_third_gives_one(self):
        mu = minimal_poly_lambda(LambdaParam(1, 0))
        assert mu.coeffs == (-1, 1)

    def test_ratio_one_fifth(self):
        mu = minimal_poly_lambda(LambdaParam(2, 0))
        assert mu.coeffs == (1, -3, 1)

    def test_conjugate_ratio_shares_minimal_poly(self):
        assert minimal_poly_lambda(LambdaParam(2, 1)).coeffs == (1, -3, 1)

    def test_vanishes_at_the_eigenvalue(self):
        for q in range(1, 7):
            for b in range(q):
                param = LambdaParam(q, b)
                mu = minimal_poly_lambda(param)
                assert mu.coeffs[-1] == 1
                assert abs(mu(param.value)) < 1e-8

    def test_matches_sympy_and_shared_by_conjugates(self):
        # an independent reference: sympy's minimal polynomial of the
        # algebraic number itself, for ratio 1/s
        import sympy

        x = sympy.Symbol("x")
        for s in range(3, 46, 2):
            mu = minimal_poly_lambda(LambdaParam((s - 1) // 2, 0))
            reference = sympy.minimal_polynomial(2 - 2 * sympy.cos(sympy.pi / s), x)
            coeffs = tuple(int(c) for c in reversed(sympy.Poly(reference, x).all_coeffs()))
            assert mu.coeffs == coeffs
            for r in range(3, s, 2):
                if math.gcd(r, s) == 1:
                    assert minimal_poly_lambda(LambdaParam((s - 1) // 2, (r - 1) // 2)) == mu


class TestRootMultiplicity:
    def test_basic(self):
        p = poly_mul(
            poly_mul(IntPolynomial((-1, 1)), IntPolynomial((-1, 1))),
            IntPolynomial((2, 1)),
        )
        assert root_multiplicity(p, IntPolynomial((-1, 1))) == 2
        assert root_multiplicity(p, IntPolynomial((2, 1))) == 1
        assert root_multiplicity(p, IntPolynomial((5, 1))) == 0

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            root_multiplicity(IntPolynomial(()), IntPolynomial((-1, 1)))


class TestPolyHelpers:
    def test_divmod_exact(self):
        q, r = poly_divmod(IntPolynomial((0, -2, 1)), IntPolynomial((0, 1)))
        assert q.coeffs == (-2, 1) and r.degree < 0

    def test_divmod_remainder(self):
        q, r = poly_divmod(IntPolynomial((1, 0, 1)), IntPolynomial((1, 1)))
        assert r.coeffs == (2,)

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            poly_divmod(IntPolynomial((1, 1)), IntPolynomial(()))

    def test_divmod_by_non_monic(self):
        with pytest.raises(ValueError, match="divisor must be monic"):
            poly_divmod(IntPolynomial((1, 0, 1)), IntPolynomial((1, 2)))

    def test_divmod_of_lower_degree(self):
        p = IntPolynomial((3, 1))
        q, r = poly_divmod(p, IntPolynomial((1, 0, 1)))
        assert q.coeffs == () and r == p

    def test_mul_by_zero(self):
        zero, p = IntPolynomial(()), IntPolynomial((-1, 1))
        assert poly_mul(zero, p).coeffs == poly_mul(p, zero).coeffs == ()


class TestMultiplicityExact:
    def test_star_at_unit(self):
        assert multiplicity_exact(star(3), LambdaParam(1, 0)) == 2

    def test_spider222(self):
        t = from_edge_list([(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
        assert multiplicity_exact(t, LambdaParam(2, 0)) == 2
        assert multiplicity_exact(t, LambdaParam(2, 1)) == 2

    def test_p4_misses_unit(self):
        assert multiplicity_exact(path(4), LambdaParam(1, 0)) == 0

    def test_agrees_with_rational_nullity_at_one(self):
        # ratio 1/3 means eigenvalue exactly 1, where nullity is computable
        for n in range(2, 10):
            for tree in free_trees(n):
                exact = rational_nullity(laplacian(tree), 1)
                assert multiplicity_exact(tree, LambdaParam(1, 0)) == exact


class TestIntegerEigenvalues:
    def test_large_integer_eigenvalues_simple_and_divide_n(self):
        # known structural fact checked exhaustively for small orders
        for n in range(2, 11):
            for tree in free_trees(n):
                cp = char_poly(laplacian(tree))
                for lam in range(2, n + 1):
                    mult = root_multiplicity(cp, IntPolynomial((-lam, 1)))
                    if mult:
                        assert mult == 1
                        assert n % lam == 0
