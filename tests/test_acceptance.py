"""Acceptance suite: nine end-to-end criteria, one test each.

Every test prints a single PASS line on success (run with ``-s`` to see
them); a pytest failure is the corresponding FAIL line.  The sweeps go up
to order 12 where exhaustive, and each criterion states its tolerance
inline.
"""

import csv
import math
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from shapes import path

from treespectra import (
    IntPolynomial,
    admissible_q,
    build_catalog,
    canonical_levels,
    char_poly,
    classify_m1,
    eigen_symmetric,
    eigenbasis_extremal,
    extremal_lambda_set,
    free_trees,
    from_edge_list,
    in_gamma,
    laplacian,
    minimal_poly_lambda,
    numeric_rank,
    path_eigenpair,
    prufer_count_oracle,
    rational_nullity,
    residual_norm,
    root_multiplicity,
    single_vertex,
)
from treespectra.cli import main
from treespectra.exact import _bareiss_rank

ORDER = 12

# classic census of unlabeled trees, orders 1..12
CENSUS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trees_by_n():
    return {n: list(free_trees(n)) for n in range(2, ORDER + 1)}


@pytest.fixture(scope="module")
def unit_sweep(trees_by_n):
    # (tree, exact multiplicity of eigenvalue 1) per tree
    return [
        (t, rational_nullity(laplacian(t), Fraction(1)))
        for trees in trees_by_n.values()
        for t in trees
    ]


def test_criterion_1_exhaustive_cross_check():
    # every tree of order <= 12: the congruence verdict, the exact
    # multiplicities, and the numeric clusters must all agree; any mismatch
    # raises OracleDisagreement inside build_catalog.  Budget: 10 minutes.
    started = time.perf_counter()
    entries = build_catalog(ORDER)
    elapsed = time.perf_counter() - started
    assert len(entries) == sum(CENSUS)
    per_n = {n: sum(1 for e in entries if e.n == n) for n in range(1, ORDER + 1)}
    assert tuple(per_n[n] for n in range(1, ORDER + 1)) == CENSUS
    extremal = sum(1 for e in entries if e.extremal)
    assert extremal >= ORDER - 1  # paths alone guarantee this many
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 1: {len(entries)} trees of order <= {ORDER} "
        f"cross-checked on all routes, {extremal} extremal ({elapsed:.1f}s)"
    )


def test_criterion_2_unit_extremal_decider(unit_sweep):
    # m(T,1) = p-1 <=> 3 divides every d(u,w)+1, exhaustively for n <= 12:
    # the decider classify_m1 runs, and the modulus 3 among the admissible
    for tree, nullity in unit_sweep:
        p = len(tree.pendants)
        reaches = nullity == p - 1
        assert (classify_m1(tree).m1_class == "p-1") == reaches, tree.edges
        assert (3 in admissible_q(tree).admissible_moduli) == reaches, tree.edges
    print(
        f"\nPASS criterion 2: unit-eigenvalue decider matches the exact "
        f"nullity on all {len(unit_sweep)} trees of order 2..{ORDER}"
    )


def test_criterion_3_gamma_decider(unit_sweep):
    # in_gamma <=> m(T,1) = p-2, over non-paths with >= 3 pendants, n <= 12
    checked = 0
    hits = 0
    for tree, nullity in unit_sweep:
        p = len(tree.pendants)
        if not tree.majors or p < 3:
            continue
        verdict, witness = in_gamma(tree)
        assert verdict == (nullity == p - 2), tree.edges
        assert (witness is not None) == verdict
        checked += 1
        hits += verdict
    print(
        f"\nPASS criterion 3: second-largest-multiplicity family decided "
        f"correctly on {checked} candidate trees ({hits} members)"
    )


def test_criterion_4_eigenbasis_certificates(trees_by_n):
    # for every extremal non-path of order <= 12 and every admissible
    # (q, b): p-1 vectors, each residual <= 1e-10, numeric rank p-1, and
    # zeros at every major and at every vertex whose distance to some major
    # is divisible by 2q+1
    trees_checked = 0
    bases_checked = 0
    for trees in trees_by_n.values():
        for tree in trees:
            if not tree.majors:
                continue
            cert = admissible_q(tree)
            if not cert.q_list:
                continue
            p = len(tree.pendants)
            trees_checked += 1
            lap = laplacian(tree)
            major_rows = [tree.bfs(m)[0] for m in tree.majors]
            for q in cert.q_list:
                modulus = 2 * q + 1
                forced = [
                    v
                    for v in range(1, tree.n + 1)
                    if any(row[v] % modulus == 0 for row in major_rows)
                ]
                assert set(tree.majors) <= set(forced)
                for b in range(q):
                    param, vectors, _, _ = eigenbasis_extremal(tree, q, b)
                    assert len(vectors) == p - 1
                    for x in vectors:
                        assert residual_norm(lap, param.value, x) <= 1e-10
                        for v in forced:
                            assert abs(x[v - 1]) <= 1e-10
                    assert numeric_rank(vectors) == p - 1
                    bases_checked += 1
    assert trees_checked > 0 and bases_checked >= trees_checked
    print(
        f"\nPASS criterion 4: {bases_checked} constructed bases on "
        f"{trees_checked} extremal non-paths certified (residuals <= 1e-10, "
        f"full rank, zeros where forced)"
    )


def test_criterion_5_lambda_values(trees_by_n):
    # extremal eigenvalues are 2(1 - cos(r pi / s)) with r, s odd coprime,
    # inside [0, 4) within 1e-12, and each is a root of its integer minimal
    # polynomial to 1e-8
    seen_ratios = set()
    for trees in trees_by_n.values():
        for tree in trees:
            if not tree.majors:
                continue
            if not admissible_q(tree).q_list:
                continue
            for param in extremal_lambda_set(tree):
                r, s = param.ratio.numerator, param.ratio.denominator
                assert r % 2 == 1 and s % 2 == 1 and math.gcd(r, s) == 1
                value = param.value
                assert abs(value - 2.0 * (1.0 - math.cos(math.pi * r / s))) <= 1e-12
                assert -1e-12 < value < 4.0
                poly = minimal_poly_lambda(param)
                assert abs(poly(value)) < 1e-8
                seen_ratios.add(param.ratio)
    assert Fraction(1, 3) in seen_ratios
    print(
        f"\nPASS criterion 5: {len(seen_ratios)} distinct extremal values "
        f"verified against their minimal polynomials (|p(x)| < 1e-8)"
    )


def test_criterion_6_path_spectra():
    # closed-form path eigenpairs vs an independent dense solver, n <= 64:
    # eigenvalues to 1e-9, eigen-equation residual below 1e-12
    for n in range(2, 65):
        lap = np.array(laplacian(path(n)), dtype=float)
        oracle = np.linalg.eigvalsh(lap)
        for j in range(n):
            pair = path_eigenpair(n, j)
            assert abs(pair.value - oracle[j]) <= 1e-9
            assert residual_norm(lap, pair.value, pair.vector) < 1e-12
    print(
        "\nPASS criterion 6: closed-form path spectra match the dense "
        "solver for all orders 2..64 (1e-9) with residuals < 1e-12"
    )


def test_criterion_7_supporting_lemmas(trees_by_n):
    # (a) path eigenvector zeros sit exactly where the cosine argument is an
    # odd multiple of pi/2, so no two adjacent entries ever vanish
    for n in range(2, 61):
        for j in range(1, n):
            vec = path_eigenpair(n, j).vector
            for v in range(1, n + 1):
                should_vanish = (j * (2 * v - 1)) % (2 * n) == n
                assert (abs(vec[v - 1]) < 1e-10) == should_vanish
            for v in range(n - 1):
                assert abs(vec[v]) > 1e-10 or abs(vec[v + 1]) > 1e-10

    # (b) path Laplacian with one corner bumped: unit eigenvalue appears
    # exactly when the order is 1 (mod 3)
    for n in range(1, 51):
        rows = [list(r) for r in laplacian(path(n))]
        rows[n - 1][n - 1] += 1
        shifted = [
            [rows[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        nullity = n - _bareiss_rank([r[:] for r in shifted])
        assert (nullity == 1) == (n % 3 == 1)
        assert nullity <= 1

    # (c) deleting one pendant moves the unit multiplicity by at most 1
    for n in range(2, 11):
        for tree in free_trees(n):
            base = rational_nullity(laplacian(tree), Fraction(1))
            for u in tree.pendants:
                kept = [e for e in tree.edges if u not in e]
                sub = from_edge_list(kept) if kept else single_vertex()
                after = rational_nullity(laplacian(sub), Fraction(1))
                assert abs(base - after) <= 1

    # (d) trees are bipartite: both Laplacian signs share one spectrum
    for n in range(2, 11):
        for tree in free_trees(n):
            lap = np.array(laplacian(tree))
            plain = eigen_symmetric(lap).eigenvalues
            signless = eigen_symmetric(np.abs(lap)).eigenvalues  # D + A
            assert np.allclose(plain, signless, atol=1e-8)

    # (e) unit multiplicity is at least pendants minus quasi-pendants
    for trees in trees_by_n.values():
        for tree in trees:
            # quasi-pendants: the vertices adjacent to some pendant
            quasi = {tree.adjacency[u][0] for u in tree.pendants}
            nullity = rational_nullity(laplacian(tree), Fraction(1))
            assert nullity >= len(tree.pendants) - len(quasi)

    # (f) integer Laplacian eigenvalues >= 2 of a tree are simple and
    # divide the order
    for n in range(2, 11):
        for tree in free_trees(n):
            poly = char_poly(laplacian(tree))
            for k in range(2, n + 1):
                mult = root_multiplicity(poly, IntPolynomial((-k, 1)))
                if mult:
                    assert mult == 1
                    assert n % k == 0

    # (g) the pendant-pair congruence and the pendant-to-major congruence
    # are the same condition on trees with a major vertex
    for trees in trees_by_n.values():
        for tree in trees:
            if not tree.majors:
                continue
            rows = {u: tree.bfs(u)[0] for u in tree.pendants}
            for q in range(1, 6):
                m = 2 * q + 1
                pairwise = all(
                    rows[u][w] % m == 2 * q
                    for u, w in combinations(tree.pendants, 2)
                )
                to_major = all(
                    rows[u][v] % m == q
                    for u in tree.pendants
                    for v in tree.majors
                )
                assert pairwise == to_major, (tree.edges, q)

    print(
        "\nPASS criterion 7: supporting lemmas (a)-(g) hold on their "
        "stated ranges (paths to 60/50, trees to 10/12, moduli to 11)"
    )


def test_criterion_8_census_oracle(trees_by_n):
    started = time.perf_counter()
    counts = {1: sum(1 for _ in free_trees(1))}
    for n, trees in trees_by_n.items():
        counts[n] = len(trees)
        forms = {canonical_levels(t) for t in trees}
        assert len(forms) == len(trees)  # no two classes share a form
    assert tuple(counts[n] for n in range(1, ORDER + 1)) == CENSUS
    for n in range(2, 10):
        assert prufer_count_oracle(n) == counts[n]
    elapsed = time.perf_counter() - started
    print(
        f"\nPASS criterion 8: census matches the brute-force oracle for "
        f"orders 2..9 and canonical forms are collision-free to order "
        f"{ORDER} ({elapsed:.1f}s)"
    )


def test_criterion_9_published_extremal_catalog(tmp_path, capsys):
    # the CLI reproduces the committed order-8 extremal catalog byte for
    # byte, and that catalog lists every path and star in range
    out = tmp_path / "catalog.csv"
    assert main(["enumerate", "--max-n", "8", "--filter", "extremal",
                 "--out", str(out)]) == 0
    fresh = out.read_text()
    committed = (REPO / "docs" / "extremal_catalog_n8.csv").read_text()
    assert fresh == committed

    rows = list(csv.reader(fresh.splitlines()[1:]))
    names = {row[2].replace(";", ",") for row in rows}
    for n in range(2, 9):
        assert f"P_{n}" in names
    for k in range(3, 8):
        assert f"K_{{1,{k}}}" in names
    assert len(rows) == 16

    # consistent with the exhaustive criterion-1 machinery
    entries = build_catalog(8, "extremal")
    assert len(entries) == len(rows)
    assert {e.canonical for e in entries} == {row[1] for row in rows}
    print(
        f"\nPASS criterion 9: published order-8 extremal catalog verified "
        f"({len(rows)} entries, includes P_2..P_8 and K_{{1,3}}..K_{{1,7}})"
    )
