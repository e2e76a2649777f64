"""Float route against the exact routes on trees past the exhaustive order 12.

Random trees come from uniformly drawn Prufer sequences (orders 13..60);
extremal trees are built from the congruence rule: legs of length = q
(mod 2q+1) at every major vertex, majors joined by paths of length = 0
(mod 2q+1).  Both generators live here so the test shares no code with
the package's own enumeration or the benchmark inputs.  The explicit
eigenbasis is checked on extremal trees up to order 200, against the
peel rule written out pair by pair, and for the triangular shape that a
rank certificate read off the construction would rest on.  ``certify``
runs on extremal trees up to order 150 whose only modulus is 3, with
``char_poly`` refused.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from shapes import prufer_tree

from treespectra import (
    admissible_q,
    certify,
    cluster_multiplicity,
    eigen_symmetric,
    eigenbasis_extremal,
    exact,
    extremal_lambda_set,
    free_trees,
    from_edge_list,
    laplacian,
    multiplicity_exact,
    numeric_rank,
    path_between,
    rational_nullity,
    residual_norm,
)

EXTREMAL_MAX_N = 45  # char_poly is O(n^4) in pure Python; keeps the suite fast
UNIT_MAX_N = 150  # certify builds no char_poly when 3 is the only modulus
BASIS_MAX_N = 200  # the basis construction alone reaches further

SETTINGS = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_trees(draw, min_n=13, max_n=60):
    n = draw(st.integers(min_n, max_n))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return prufer_tree(seq)


@st.composite
def extremal_trees(draw, max_n=EXTREMAL_MAX_N, max_q=4, max_majors=3, max_legs=3):
    """A non-path tree of order <= max_n whose pendant gcd is a multiple of 2q+1.

    Up to max_majors majors carry up to max_legs legs each, q <= max_q.
    Legs have length q or 3q+1 and inter-major paths length m or 2m.  The
    smallest tree for the drawn shape is laid out first; each optional
    extension (a longer leg or path, one more leg) is drawn only while the
    order stays within the cap, which must fit the smallest shape.
    """
    q = draw(st.integers(1, max_q))
    m = 2 * q + 1
    majors = draw(st.integers(1, max_majors))
    # major i > 0 hangs off an earlier major
    parents = [draw(st.integers(0, i - 1)) for i in range(1, majors)]
    links = [0] * majors
    for i, parent in enumerate(parents, start=1):
        links[i] += 1
        links[parent] += 1
    min_legs = [max(1, 3 - k) for k in links]  # every major keeps degree >= 3
    slack = max_n - (majors + (majors - 1) * (m - 1) + q * sum(min_legs))

    def extend(cost):
        nonlocal slack
        if cost <= slack and draw(st.booleans()):
            slack -= cost
            return True
        return False

    edges = []
    labels = iter(range(majors + 1, max_n + 1))

    def add_path(start, length):
        prev = start
        for _ in range(length):
            nxt = next(labels)
            edges.append((prev, nxt))
            prev = nxt
        return prev

    for i, parent in enumerate(parents, start=1):
        length = 2 * m if extend(m) else m
        edges.append((add_path(parent + 1, length - 1), i + 1))
    for major in range(majors):
        legs = min_legs[major] + sum(extend(q) for _ in range(max_legs - min_legs[major]))
        for _ in range(legs):
            add_path(major + 1, q + m if extend(m) else q)
    return q, from_edge_list(edges)


def mean_per_block(sorted_values, tau):
    """Clusters as the float route first computed them: np.mean of every block."""
    clusters = []
    start = 0
    for i in range(1, len(sorted_values) + 1):
        if i == len(sorted_values) or sorted_values[i] - sorted_values[i - 1] > tau:
            block = sorted_values[start:i]
            clusters.append((float(np.mean(block)), len(block)))
            start = i
    return tuple(clusters)


def assert_clusters_are_block_means(tree):
    spectrum = eigen_symmetric(laplacian(tree))
    expected = mean_per_block(np.array(spectrum.eigenvalues), spectrum.tau)
    assert spectrum.clusters == expected


def test_cluster_representatives_equal_block_means_to_order_12():
    for n in range(2, 13):
        for tree in free_trees(n):
            assert_clusters_are_block_means(tree)


@SETTINGS
@given(random_trees())
def test_cluster_representatives_equal_block_means_on_random_trees(tree):
    assert_clusters_are_block_means(tree)


@SETTINGS
@given(extremal_trees())
def test_cluster_representatives_equal_block_means_on_extremal_trees(case):
    assert_clusters_are_block_means(case[1])


@SETTINGS
@given(random_trees())
def test_float_clusters_match_exact_nullity_on_random_trees(tree):
    lap = laplacian(tree)
    spectrum = eigen_symmetric(lap)
    assert cluster_multiplicity(spectrum, 1.0) == rational_nullity(lap, 1)
    p = len(tree.pendants)
    assert max(mult for _, mult in spectrum.clusters) <= p - 1


@settings(SETTINGS, max_examples=25)
@given(extremal_trees())
def test_float_clusters_reach_p_minus_1_on_extremal_trees(case):
    q, tree = case
    p = len(tree.pendants)
    spectrum = eigen_symmetric(laplacian(tree))
    params = extremal_lambda_set(tree)
    assert any(param.ratio.denominator == 2 * q + 1 for param in params)
    for param in params:
        assert cluster_multiplicity(spectrum, param.value) == p - 1
        assert multiplicity_exact(tree, param) == p - 1


@SETTINGS
@given(extremal_trees(max_n=UNIT_MAX_N, max_q=1, max_majors=16, max_legs=8))
def test_certify_unit_row_without_char_poly(case):
    # with 3 the only modulus, the one extremal eigenvalue is 1, whose exact
    # count is the tree elimination's; char_poly would take seconds here
    _, tree = case
    assume(admissible_q(tree).admissible_moduli == (3,))

    def no_char_poly(matrix):
        raise AssertionError("certify built a characteristic polynomial")

    with mock.patch.object(exact, "char_poly", no_char_poly):
        cert = certify(tree)
    (row,) = cert.lambda_rows
    assert str(row.param.ratio) == "1/3"
    assert row.exact == row.numeric == cert.m1_exact == cert.m1_numeric == len(tree.pendants) - 1


def first_single_major_pair(tree, component):
    """The peel rule as first written, on the subtree spanned by ``component``.

    Over pairs of the component's pendants in label order, the first pair
    whose path has exactly one vertex of component degree >= 3; returns the
    pair and that vertex.
    """
    members = set(component)
    degree = {v: sum(y in members for y in tree.adjacency[v]) for v in component}
    pendants = [v for v in component if degree[v] == 1]
    for u, w in combinations(pendants, 2):
        majors_on = [x for x in path_between(tree, u, w) if degree[x] >= 3]
        if len(majors_on) == 1:
            return (u, w), majors_on[0]
    return None


def assert_triangular_at_peeled_pendants(tree, q, vectors, glue_steps):
    """Rows: each glue step's peeled pendant, then the bare path's smaller
    pendant; columns: the vectors in peel order.  Every entry above the
    diagonal is exactly 0.0 and every diagonal entry, cos(gamma pi/2), is
    at least sin(pi/(2q+1)) in size, so the p-1 vectors are independent."""
    peeled = [step.pendant_pair[0] for step in glue_steps]
    rows = [*peeled, min(set(tree.pendants) - set(peeled))]
    matrix = np.array(vectors[::-1])[:, np.array(rows) - 1].T
    assert matrix.shape == (len(tree.pendants) - 1,) * 2
    assert (np.triu(matrix, 1) == 0.0).all()
    assert (np.abs(np.diag(matrix)) >= math.sin(math.pi / (2 * q + 1))).all()


def test_eigenbasis_is_triangular_at_peeled_pendants_to_order_12():
    bases = 0
    for n in range(2, 13):
        for tree in free_trees(n):
            if not tree.majors:
                continue
            for q in admissible_q(tree).q_list:
                for b in range(q):
                    _, vectors, _, glue_steps = eigenbasis_extremal(tree, q, b)
                    assert_triangular_at_peeled_pendants(tree, q, vectors, glue_steps)
                    bases += 1
    assert bases == 47


@settings(SETTINGS, max_examples=40)
@given(extremal_trees(max_n=BASIS_MAX_N, max_q=5, max_majors=6, max_legs=5), st.data())
def test_eigenbasis_on_extremal_trees_past_order_12(case, data):
    q, tree = case
    # relabel by a drawn edge order, so pendant label order varies too
    tree = from_edge_list(data.draw(st.permutations(tree.edges)))
    p = len(tree.pendants)
    lap = np.array(laplacian(tree), dtype=float)
    for b in range(q):
        param, vectors, _, glue_steps = eigenbasis_extremal(tree, q, b)
        assert len(vectors) == p - 1
        assert numeric_rank(vectors) == p - 1
        for x in vectors:
            assert residual_norm(lap, param.value, x) <= 1e-10
        assert_triangular_at_peeled_pendants(tree, q, vectors, glue_steps)

    component = tuple(range(1, tree.n + 1))
    for step in glue_steps:
        assert (step.pendant_pair, step.anchor) == first_single_major_pair(tree, component)
        leg = path_between(tree, step.pendant_pair[0], step.anchor)[:-1]
        assert step.component == tuple(v for v in component if v not in leg)
        component = step.component
