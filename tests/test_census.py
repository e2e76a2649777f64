import concurrent.futures
import dataclasses
import inspect
import math
import os
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shapes import caterpillar, gamma_trees, path, prufer_tree, spider, star
from test_float_route import SETTINGS, random_trees
from test_invariants import ORACLE

from treespectra import (
    ORDER_CAP,
    Tree,
    build_catalog,
    canonical_levels,
    canonical_relabel,
    census,
    certify,
    classify,
    classify_m1,
    construct,
    exact,
    free_trees,
    from_edge_list,
    gauntlet,
    in_gamma,
    numeric,
    prufer_count_oracle,
    single_vertex,
    tree_name,
)
from treespectra.cli import main
from treespectra.errors import CapExceeded, OracleDisagreement

# one isomorphism class per row; the classic census of free trees
KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def _child_blocks(levels, start, end):
    # (start, end) of each child block of the block levels[start:end]
    top = levels[start] + 1
    blocks = []
    i = start + 1
    while i < end:
        j = i + 1
        while j < end and levels[j] > top:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks


def _rooted_aut_order(levels, start, end):
    # identical child blocks can be permuted among themselves
    blocks = _child_blocks(levels, start, end)
    order = 1
    for mult in Counter(levels[a:b] for a, b in blocks).values():
        order *= math.factorial(mult)
    for a, b in blocks:
        order *= _rooted_aut_order(levels, a, b)
    return order


def aut_order(tree):
    """|Aut T|, read off the centroid-rooted canonical level sequence."""
    levels = census.canonical_levels(tree)
    n = len(levels)
    order = _rooted_aut_order(levels, 0, n)
    for a, b in _child_blocks(levels, 0, n):
        if 2 * (b - a) == n:
            # bicentral: the child block of size n/2 is the other centroid's
            # half; the two halves may also be swapped when identical
            half = tuple(level - 1 for level in levels[a:b])
            if half == levels[:a] + levels[b:]:
                order *= 2
    return order


def _sieve(bound):
    """The primes below ``bound``, by the sieve of Eratosthenes."""
    composite = bytearray(bound)
    primes = []
    for p in range(2, bound):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, bound, p))
    return primes


# PRIMES[m] is the m-th prime, PRIMES[1] = 2; index 0 is unused.
PRIMES = [0] + _sieve(1 << 16)


def matula(children, v):
    """Matula number of the tree below v: 1 for a leaf, else the product of
    prime(number of c) over v's children c."""
    number = 1
    for c in children[v]:
        number *= PRIMES[matula(children, c)]
    return number


def rooted_numbers(max_n):
    """Matula numbers of every rooted tree of order 1..max_n, by order.  A
    tree of order k + 1 is a root over a forest of order k, and a forest's
    product is prime(number) of one of its trees times the rest's."""
    numbers = {1: {1}}
    forests = {0: {1}}
    for k in range(1, max_n):
        forests[k] = {
            PRIMES[t] * rest
            for j in range(1, k + 1)
            for t in numbers[j]
            for rest in forests[k - j]
        }
        numbers[k + 1] = forests[k]
    return numbers


def child_numbers(number):
    """Numbers of the children of the root of the rooted tree ``number``:
    c once per factor prime(c), with multiplicity."""
    found = []
    for c, p in enumerate(PRIMES[1:], start=1):
        if number == 1:
            return found
        while number % p == 0:
            number //= p
            found.append(c)


def rooted_tree(number):
    """Children lists of the rooted tree with Matula number ``number``, on
    vertices 0..k-1 with the root at 0."""
    children = {0: []}
    stack = [(0, number)]
    while stack:
        v, below = stack.pop()
        for c in child_numbers(below):
            w = len(children)
            children[w] = []
            children[v].append(w)
            stack.append((w, c))
    return children


def least_rooting(tree):
    """The least Matula number of ``tree`` rooted at any of its vertices."""
    numbers = []
    for root in range(1, tree.n + 1):
        _, parent, order = tree.bfs(root)
        children = {v: [] for v in order}
        for v in order[1:]:
            children[parent[v]].append(v)
        numbers.append(matula(children, root))
    return min(numbers)


def rooted_aut_order(number):
    """|Aut R| of the rooted tree R with Matula number ``number``: equal
    child subtrees permute among themselves, so k children of number c
    contribute k! |Aut c|^k."""
    order = 1
    for c, k in Counter(child_numbers(number)).items():
        order *= math.factorial(k) * rooted_aut_order(c) ** k
    return order


def rooted_tree_counts(max_n):
    """Rooted unlabeled trees of order 0..max_n, from the Euler transform
    k r(k+1) = sum_{j=1..k} (sum_{d | j} d r(d)) r(k-j+1), r(1) = 1."""
    r = [0, 1]
    for k in range(1, max_n):
        total = sum(
            sum(d * r[d] for d in range(1, j + 1) if j % d == 0) * r[k - j + 1]
            for j in range(1, k + 1)
        )
        r.append(total // k)
    return r


def free_tree_counts(max_n):
    """Free trees of order 0..max_n by Otter's formula: t(n) = r(n) minus the
    unordered pairs of distinct rooted trees whose orders sum to n."""
    r = rooted_tree_counts(max_n)
    counts = [0]
    for n in range(1, max_n + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, n))
        if n % 2 == 0:
            pairs -= r[n // 2]
        counts.append(r[n] - pairs // 2)
    return counts


def textbook_decode(code, n):
    """The leaves of a Prufer code over 0..n-1 in removal order, one code
    at a time, and the Matula number of its tree rooted at n-1."""
    degree = [1 + code.count(v) for v in range(n)]
    removed = []
    for x in code:
        leaf = degree.index(1)
        removed.append(leaf)
        degree[leaf] = 0
        degree[x] -= 1
    removed.append(degree.index(1))
    children = {v: [] for v in range(n)}
    for leaf, parent in zip(removed, code + [n - 1]):
        children[parent].append(leaf)
    return removed, matula(children, n - 1)


def trees_kept_by_full_canonical_filter(n):
    """The free-tree filter written out in full: build the tree of every
    rooted level sequence and keep it when the sequence is its canonical
    form."""
    for seq in census._level_sequences(n):
        tree = census._tree_from_levels(seq)
        if census.canonical_levels(tree) == seq:
            yield tree


def shuffled_copy(tree, seed):
    rng = random.Random(seed)
    perm = list(range(1, tree.n + 1))
    rng.shuffle(perm)
    relabel = {v: perm[v - 1] for v in range(1, tree.n + 1)}
    edges = [(relabel[a], relabel[b]) for a, b in tree.edges]
    rng.shuffle(edges)
    return from_edge_list(edges)


def moved_pendant(tree, seed):
    """The tree with one pendant cut from its neighbour and hung elsewhere."""
    rng = random.Random(seed)
    leaf = rng.choice(tree.pendants)
    (old,) = tree.adjacency[leaf]
    new = rng.choice([v for v in range(1, tree.n + 1) if v not in (leaf, old)])
    edges = [e for e in tree.edges if leaf not in e] + [(leaf, new)]
    return from_edge_list(edges)


@st.composite
def bicentral_trees(draw, min_half=7, max_half=150):
    """Two Prufer trees of equal order joined by one edge, whose two ends
    are then the centroids."""
    k = draw(st.integers(min_half, max_half))
    halves = [
        draw(st.lists(st.integers(1, k), min_size=k - 2, max_size=k - 2)) for _ in range(2)
    ]
    left, right = (prufer_tree(seq).edges for seq in halves)
    edges = list(left) + [(u + k, v + k) for u, v in right] + [(1, 1 + k)]
    return from_edge_list(edges)


class TestFreeTrees:
    def test_counts(self):
        for n, expected in KNOWN_COUNTS.items():
            assert sum(1 for _ in free_trees(n)) == expected

    def test_n4_shapes(self):
        forms = {canonical_levels(t) for t in free_trees(4)}
        assert forms == {(1, 2, 3, 2), (1, 2, 2, 2)}

    def test_all_have_right_order(self):
        assert all(t.n == 7 for t in free_trees(7))

    def test_no_duplicate_forms(self):
        for n in range(1, 11):
            forms = [canonical_levels(t) for t in free_trees(n)]
            assert len(forms) == len(set(forms))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_same_trees_as_full_canonical_filter(self, n):
        # same trees, same labels, same order
        expected = list(trees_kept_by_full_canonical_filter(n))
        got = list(free_trees(n))
        assert got == expected

    @pytest.mark.parametrize("n", range(2, ORDER_CAP + 1, 2))
    def test_bicentral_rule_matches_canonical_levels(self, n):
        # the generator keeps a bicentral sequence by comparing its halves;
        # the full filter builds the tree and compares the sequence with its
        # canonical form.  The heavy block's first vertex is the second
        # centroid, so the halves are the two centroids' sides.
        kept = set(census._free_levels(n))
        decided = 0
        for seq in census._level_sequences(n):
            start, order = census._heaviest_root_block(seq)
            if 2 * order != n:
                continue
            tree = census._tree_from_levels(seq)
            assert census._centroids(tree) == (1, start + 1)
            assert (seq in kept) == (census.canonical_levels(tree) == seq)
            decided += 1
        assert decided > 0

    def test_same_classes_as_networkx(self):
        # networkx's nonisomorphic_trees is Wright, Richmond, Odlyzko and
        # McKay's generator, written independently of this one.  Imported
        # here so that a missing networkx fails the test, not skips it.
        import networkx as nx

        for n in range(2, 15):
            ours = [canonical_levels(t) for t in free_trees(n)]
            theirs = [
                canonical_levels(from_edge_list((u + 1, v + 1) for u, v in g.edges))
                for g in nx.nonisomorphic_trees(n)
            ]
            assert len(ours) == len(set(ours)), n
            assert len(theirs) == len(set(theirs)), n
            assert set(ours) == set(theirs), n

    def test_builds_only_the_trees_it_yields(self, monkeypatch):
        built = Counter()
        real_post_init = Tree.__post_init__

        def counting_post_init(self):
            built[self.n] += 1
            real_post_init(self)

        monkeypatch.setattr(Tree, "__post_init__", counting_post_init)
        for n in range(1, 13):
            assert sum(1 for _ in free_trees(n)) == built[n]
        assert sum(built.values()) == 987

    def test_order_validation(self):
        with pytest.raises(ValueError):
            list(free_trees(0))
        with pytest.raises(CapExceeded):
            list(free_trees(ORDER_CAP + 1))

    @pytest.mark.parametrize("order", [True, False, 4.0, 2.5, "4", None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError):
            list(free_trees(order))

    def test_numpy_integer_order(self):
        assert sum(1 for _ in free_trees(np.int64(7))) == 11
        assert sum(1 for _ in free_trees(np.uint8(6))) == 6

    def test_otter_counts(self):
        # Otter's formula from the Euler transform, with no table of counts
        expected = free_tree_counts(ORDER_CAP)
        for n in range(1, ORDER_CAP + 1):
            assert sum(1 for _ in free_trees(n)) == expected[n]


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        for n in range(1, 11):
            for i, tree in enumerate(free_trees(n)):
                form = canonical_levels(tree)
                for seed in (i, 1000 + i, 9000 + i):
                    copy = shuffled_copy(tree, seed) if n > 1 else tree
                    assert canonical_levels(copy) == form

    def test_relabel_is_canonical_fixed_point(self):
        t = shuffled_copy(star(4), 7)
        c = canonical_relabel(t)
        assert canonical_levels(c) == canonical_levels(t)
        assert canonical_relabel(c).edges == c.edges

    def test_known_forms(self):
        assert canonical_levels(path(4)) == (1, 2, 3, 2)
        assert canonical_levels(star(3)) == (1, 2, 2, 2)

    def test_long_path_without_recursion(self):
        tree = canonical_relabel(shuffled_copy(path(5000), 3))
        # rooted at a middle vertex: the 2500-vertex side first, then 2499
        levels = (1,) + tuple(range(2, 2502)) + tuple(range(2, 2501))
        assert census.canonical_levels(tree) == levels
        assert canonical_relabel(tree).edges == tree.edges

    def _check_past_order_12(self, tree, seed):
        # the relabeled copy keeps the form, the relabeling is a fixed
        # point, and forms agree exactly when networkx's tree isomorphism
        # finds a mapping.  Imported here so that a missing networkx fails
        # the test, not skips it.
        import networkx as nx
        from networkx.algorithms.isomorphism import tree_isomorphism

        copy = shuffled_copy(tree, seed)
        form = canonical_levels(tree)
        assert canonical_levels(copy) == form
        relabeled = canonical_relabel(copy)
        assert canonical_levels(relabeled) == form
        assert canonical_relabel(relabeled).edges == relabeled.edges
        trio = [tree, copy, moved_pendant(tree, seed)]
        forms = [canonical_levels(t) for t in trio]
        graphs = [nx.Graph(t.edges) for t in trio]
        for i, j in combinations(range(3), 2):
            assert (forms[i] == forms[j]) == bool(tree_isomorphism(graphs[i], graphs[j]))

    @settings(SETTINGS, max_examples=50)
    @given(random_trees(min_n=13, max_n=300), st.integers(0, 2**32 - 1))
    def test_prufer_trees_past_order_12(self, tree, seed):
        self._check_past_order_12(tree, seed)

    @settings(SETTINGS, max_examples=50)
    @given(bicentral_trees(), st.integers(0, 2**32 - 1))
    def test_bicentral_trees_past_order_12(self, tree, seed):
        assert len(census._centroids(tree)) == 2
        self._check_past_order_12(tree, seed)

    def test_long_caterpillar_without_recursion(self):
        tree = caterpillar(1500)
        relabeled = canonical_relabel(shuffled_copy(tree, 4))
        assert relabeled.n == 3000
        assert canonical_levels(relabeled) == canonical_levels(tree)
        assert canonical_relabel(relabeled).edges == relabeled.edges
        assert sorted(map(len, relabeled.adjacency[1:])) == sorted(
            map(len, tree.adjacency[1:])
        )


class TestPruferOracle:
    def test_agrees_with_generator(self):
        for n in range(2, 8):
            assert prufer_count_oracle(n) == KNOWN_COUNTS[n]

    def test_range_guard(self):
        with pytest.raises(CapExceeded):
            prufer_count_oracle(1)
        with pytest.raises(CapExceeded):
            prufer_count_oracle(10)

    @pytest.mark.parametrize("order", [9.0, 8.5, True, False, "8", None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(CapExceeded):
            prufer_count_oracle(order)

    def test_numpy_integer_order(self):
        assert prufer_count_oracle(np.int64(7)) == prufer_count_oracle(np.uint8(7)) == 11

    def test_otter_counts(self):
        # Otter's formula from the Euler transform, with no table of counts
        expected = free_tree_counts(9)
        for n in range(2, 10):
            assert prufer_count_oracle(n) == expected[n]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_decode_is_a_bijection(self, n, monkeypatch):
        # the textbook decode, one code at a time, over every code gives
        # each labeled tree once, and the kernel's tally counts exactly
        # their Matula numbers rooted at n-1: in its default blocks, and
        # with one low digit per block, so that most digits are high
        trees = set()
        numbers = Counter()
        for index in range(n ** (n - 2)):
            code = [index // n**j % n for j in range(n - 3, -1, -1)]
            removed, number = textbook_decode(code, n)
            edges = list(zip(removed, code + [n - 1]))
            from_edge_list((u + 1, w + 1) for u, w in edges)  # raises unless a tree
            trees.add(frozenset(map(frozenset, edges)))
            numbers[number] += 1
        assert len(trees) == n ** (n - 2)
        for rows in (census._PRUFER_ROWS, n):
            monkeypatch.setattr(census, "_PRUFER_ROWS", rows)
            tally = census._prufer_tally(n)
            assert tally.dtype == np.int64
            assert {v: tally[v] for v in np.flatnonzero(tally).tolist()} == numbers

    def test_rerootings_move_the_root_to_each_child(self):
        # every rooted tree of order <= 9, rebuilt from its number, rooted
        # instead at one child per distinct child number: the old root hangs
        # below that child with its other children
        primes = census._matula_primes().tolist()
        assert primes == PRIMES
        for numbers in rooted_numbers(9).values():
            for number in numbers:
                children = rooted_tree(number)
                assert matula(children, 0) == number
                moved = {}
                for c in children[0]:
                    rerooted = {v: list(below) for v, below in children.items()}
                    rerooted[0].remove(c)
                    rerooted[c].append(0)
                    moved[matula(children, c)] = matula(rerooted, c)
                assert sorted(census._rerootings(number, primes)) == sorted(moved.values())

    def test_free_key_matches_canonical_form(self):
        # the oracle's key of a labeled tree, the least number that
        # _rerootings reaches from its number rooted at vertex n, is equal
        # for two trees exactly when their canonical forms are, under
        # relabelings
        primes = census._matula_primes().tolist()
        keys = {}
        for n in range(1, 10):
            for i, tree in enumerate(free_trees(n)):
                form = canonical_levels(tree)
                for seed in (i, 5000 + i, 9000 + i):
                    copy = shuffled_copy(tree, seed) if n > 1 else tree
                    _, parent, order = copy.bfs(n)
                    children = {v: [] for v in order}
                    for v in order[1:]:
                        children[parent[v]].append(v)
                    reached = {matula(children, n)}
                    stack = list(reached)
                    while stack:
                        for moved in census._rerootings(stack.pop(), primes):
                            if moved not in reached:
                                reached.add(moved)
                                stack.append(moved)
                    assert keys.setdefault(min(reached), form) == form
        assert len(keys) == sum(KNOWN_COUNTS[n] for n in range(1, 10))

    def test_values_fit_in_uint16(self):
        # the kernel multiplies in uint16: by the recursion over rooted
        # trees, no number of order <= 9 exceeds 19 577, and each order has
        # as many numbers as it has rooted trees
        numbers = rooted_numbers(9)
        assert [len(numbers[k]) for k in range(1, 10)] == rooted_tree_counts(9)[1:]
        assert max(max(found) for found in numbers.values()) == 19577 < 1 << 16

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_rooted_tree_is_decoded(self, n):
        # the tally's support is exactly the numbers of the rooted trees of
        # order n, and each rooted tree R is counted once per labeling with
        # its root fixed at n-1: (n-1)!/|Aut R| times
        tally = census._prufer_tally(n)
        orbits = {
            number: math.factorial(n - 1) // rooted_aut_order(number)
            for number in rooted_numbers(n)[n]
        }
        assert {v: tally[v] for v in np.flatnonzero(tally).tolist()} == orbits

    @pytest.mark.parametrize("n", range(2, 10))
    def test_class_sizes_are_orbit_sizes(self, n):
        # each shape T is one class, keyed by the least Matula number of T
        # over its roots, and hit by exactly n!/|Aut T| labeled trees
        classes = census._prufer_classes(n)
        orbits = {
            least_rooting(tree): math.factorial(n) // aut_order(tree) for tree in free_trees(n)
        }
        assert len(orbits) == KNOWN_COUNTS[n]
        assert dict(classes) == orbits
        assert sum(classes.values()) == n ** (n - 2)

    def test_oracle_is_independent_of_the_generator(self, monkeypatch):
        # every module-level function of census outside the oracle refuses
        # to run, so adding or deleting a helper cannot leave the list stale
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not use the generator")

        generator = {
            name
            for name, fn in vars(census).items()
            if inspect.isfunction(fn) and fn.__module__ == census.__name__
        } - set(ORACLE)
        assert {"free_trees", "_free_levels", "canonical_levels", "_centroids"} <= generator
        for name in generator:
            monkeypatch.setattr(census, name, refuse)
        assert prufer_count_oracle(7) == 11

    def test_aut_order_known_shapes(self):
        assert aut_order(star(7)) == math.factorial(7)
        assert aut_order(path(8)) == 2
        assert aut_order(path(7)) == 2
        assert aut_order(spider(2, 2, 2)) == 6
        assert aut_order(spider(1, 1, 2)) == 2
        # double star: two leaves on each centroid, and the halves swap
        assert aut_order(from_edge_list([(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)])) == 8

    @pytest.mark.parametrize("n", range(1, ORDER_CAP + 1))
    def test_cayley_orbit_stabilizer(self, n):
        # sum over shapes of n!/|Aut T| counts the n^(n-2) labeled trees
        total = 0
        for tree in free_trees(n):
            orbit, rem = divmod(math.factorial(n), aut_order(tree))
            assert rem == 0
            total += orbit
        assert total * n * n == n**n


class TestTreeName:
    def test_names(self):
        assert tree_name(path(5)) == "P_5"
        assert tree_name(star(3)) == "K_{1,3}"
        spider = from_edge_list([(1, 2), (1, 3), (3, 4), (1, 5), (5, 6)])
        assert tree_name(spider) == "spider(1,2,2)"

    def test_two_major_tree_unnamed(self):
        t = from_edge_list([(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)])
        assert tree_name(t) == ""


class TestBuildCatalog:
    def test_small_catalog(self):
        entries = build_catalog(4)
        assert len(entries) == 5
        assert [e.n for e in entries] == [1, 2, 3, 4, 4]
        star_entry = next(e for e in entries if e.name == "K_{1,3}")
        assert star_entry.canonical == "1,2,2,2"
        assert star_entry.p == 3
        assert star_entry.extremal
        assert star_entry.lambda_ratios == ("1/3",)
        assert star_entry.m1_class == "p-1"
        assert star_entry.m1_exact == 2
        assert star_entry.edges == ((1, 2), (1, 3), (1, 4))

    def test_extremal_order_eight(self):
        names = Counter(e.name for e in build_catalog(8, "extremal"))
        expected = Counter(
            [f"P_{n}" for n in range(2, 9)]
            + [f"K_{{1,{k}}}" for k in range(3, 8)]
            + ["spider(2,2,2)", "spider(1,1,4)", "spider(1,1,1,4)", ""]
        )
        assert names == expected

    def test_single_vertex_row(self):
        # no route runs on one vertex; its row's m(T,1) is the nullity of (-1)
        (entry,) = build_catalog(1)
        nullity = exact.rational_nullity(exact.laplacian(single_vertex()), 1)
        assert entry.m1_exact == nullity == 0
        assert (entry.p, entry.extremal, entry.m1_class, entry.name) == (0, False, "other", "P_1")

    def test_unit_filters_partition(self):
        full = build_catalog(6)
        p1 = build_catalog(6, "unit_p1")
        p2 = build_catalog(6, "unit_p2")
        assert {e.canonical for e in p1} == {
            e.canonical for e in full if e.m1_class == "p-1"
        }
        assert {e.canonical for e in p2} == {
            e.canonical for e in full if e.m1_class == "p-2"
        }
        assert len(p1) + len(p2) < len(full)

    def test_catalog_canonicalizes_nothing(self, monkeypatch):
        # each entry keeps the level sequence the generator proved canonical
        calls = []
        real = census.canonical_levels
        monkeypatch.setattr(census, "canonical_levels", lambda t: calls.append(t) or real(t))
        entries = build_catalog(10)
        assert calls == []
        assert len(entries) == sum(KNOWN_COUNTS.values())
        for entry in entries:
            tree = from_edge_list(entry.edges) if entry.edges else single_vertex()
            assert entry.canonical == ",".join(map(str, canonical_levels(tree)))

    def test_parallel_matches_serial(self):
        assert build_catalog(6, jobs=2) == build_catalog(6)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tol_reaches_the_float_route(self, jobs):
        # tau = 1e3 * 1e-2 * ||L||_F exceeds every spectral gap, so every
        # cluster merges and the numeric route must disagree with the exact one
        with pytest.raises(OracleDisagreement):
            build_catalog(5, jobs=jobs, tol=1e-2)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # A recording stand-in: no process is started, whatever jobs asks for.
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        serial = build_catalog(4)
        assert build_catalog(4, jobs=10**6) == serial
        assert requested == [] or requested[0] <= (os.cpu_count() or 1)

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        requested.clear()
        for jobs in (10**6, 3, np.int64(2), 1, np.uint8(1)):
            assert build_catalog(4, jobs=jobs) == serial
        assert requested == [3, 3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_catalog(4, jobs=10**6) == serial
        assert requested == [3, 3, 2]

    def test_validation(self):
        with pytest.raises(CapExceeded):
            build_catalog(ORDER_CAP + 1)
        for order in (0, -3):  # rejected like free_trees(0), not an empty catalog
            with pytest.raises(ValueError, match=">= 1"):
                build_catalog(order)
        with pytest.raises(ValueError):
            build_catalog(4, "bogus")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol(self, tol):
        # refused before any tree is built: order 1 never reaches the float route
        for max_n, jobs in ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2)):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                build_catalog(max_n, jobs=jobs, tol=tol)

    @pytest.mark.parametrize("order", [True, False, 4.0, 2.5, "4", None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError):
            build_catalog(order)

    def test_numpy_integer_order(self):
        assert build_catalog(np.int64(4)) == build_catalog(4)

    @pytest.mark.parametrize("jobs", [True, False, 0, -2, 2.5, "2", None])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        # rejected, not run serially or failing on min() with a TypeError
        with pytest.raises(ValueError, match="jobs"):
            build_catalog(3, jobs=jobs)


class TestCertify:
    @pytest.fixture
    def char_poly_orders(self, monkeypatch):
        """Order of every matrix certify hands to char_poly."""
        orders = []
        real = exact.char_poly

        def counting(matrix):
            orders.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(exact, "char_poly", counting)
        return orders

    def test_char_poly_built_once_per_tree(self, char_poly_orders):
        # legs = 3 (mod 7): q = 3 gives three extremal eigenvalues
        cert = certify(spider(3, 3, 3))
        assert [str(row.param.ratio) for row in cert.lambda_rows] == ["1/7", "3/7", "5/7"]
        assert all(row.exact == row.numeric == 2 for row in cert.lambda_rows)
        assert char_poly_orders == [10]

    def test_no_char_poly_off_the_extremal_set(self, char_poly_orders):
        cert = certify(spider(1, 1, 2))
        assert not cert.report.extremal
        assert cert.lambda_rows == ()
        assert cert.m1_numeric == cert.m1_exact == 1
        assert char_poly_orders == []

    @pytest.mark.parametrize("tree", [star(199), spider(1, 1, 4)], ids=["star_200", "spider_114"])
    def test_unit_row_comes_from_the_elimination(self, monkeypatch, tree):
        # the only ratio over 3 is 1/3, lambda = 1, whose exact count is the
        # zero count of the tree elimination; no characteristic polynomial
        def no_char_poly(matrix):
            raise AssertionError("certify built a characteristic polynomial")

        monkeypatch.setattr(exact, "char_poly", no_char_poly)
        cert = certify(tree)
        assert cert.report.certificate.admissible_moduli == (3,)
        (row,) = cert.lambda_rows
        assert str(row.param.ratio) == "1/3"
        assert row.exact == row.numeric == cert.m1_exact == cert.m1_numeric == cert.report.p - 1

    def test_one_division_per_minimal_polynomial(self, monkeypatch, char_poly_orders):
        # moduli 3, 5 and 15 give seven rows over three denominators: 1/3
        # comes from the elimination, and the conjugates over 5 and over 15
        # share one count each
        calls = []
        real = exact.root_multiplicity

        def counting(phi, mu):
            calls.append(mu.coeffs)
            return real(phi, mu)

        monkeypatch.setattr(exact, "root_multiplicity", counting)
        cert = certify(spider(7, 7, 7))
        assert cert.report.certificate.admissible_moduli == (3, 5, 15)
        assert len(cert.lambda_rows) == 7
        assert all(row.exact == row.numeric == 2 for row in cert.lambda_rows)
        assert char_poly_orders == [22]
        assert sorted(map(len, calls)) == [3, 5]  # degrees phi(5)/2 and phi(15)/2

    def test_classify_m1_builds_the_certificate_once(self, monkeypatch):
        # spider(1,1,4) is in the mod-3 family: p and the congruence read the
        # tree's own pendants and majors, with no tree built along the way,
        # and the pendant gcd takes a single BFS row
        tree = spider(1, 1, 4)
        calls = Counter()
        real_post_init = Tree.__post_init__
        real_bfs = Tree.bfs

        def counting_post_init(self):
            calls["post_init"] += 1
            real_post_init(self)

        def counting_bfs(tree, u):
            calls["bfs"] += 1
            return real_bfs(tree, u)

        monkeypatch.setattr(Tree, "__post_init__", counting_post_init)
        monkeypatch.setattr(Tree, "bfs", counting_bfs)
        report = classify_m1(tree)
        assert report.m1_class == "p-1"
        assert calls["post_init"] == 0
        assert calls["bfs"] == 1

    def test_laplacian_built_once_per_certify(self, monkeypatch):
        # the float spectrum and the characteristic polynomial read one
        # matrix, and the exact m(T,1) reads the tree itself; every module
        # that could build another matrix is watched
        orders = []
        real = exact.laplacian

        def counting(tree):
            orders.append(tree.n)
            return real(tree)

        for module in (census, classify, construct, exact, numeric):
            if hasattr(module, "laplacian"):
                monkeypatch.setattr(module, "laplacian", counting)
        certify(spider(3, 3, 3))  # extremal, so char_poly runs too
        certify(spider(1, 1, 2))  # m(T,1) = p-2 through in_gamma
        assert orders == [10, 5]

    @pytest.mark.parametrize(
        "legs, nullity, message",
        [
            ((1, 1, 4), 0, "combinatorial class p-1 predicts m(T,1)=2 but exact nullity is 0"),
            ((1, 1, 2), 2, "combinatorial class p-2 predicts m(T,1)=1 but exact nullity is 2"),
            ((1, 2, 2), 1, "exact nullity 1 hits p-1 or p-2 but no family matched"),
        ],
    )
    def test_exact_m1_is_checked_first(self, monkeypatch, legs, nullity, message):
        # a wrong exact nullity is named before any float route runs
        def no_float_route(*args, **kwargs):
            raise AssertionError("float route ran before the exact check")

        monkeypatch.setattr(exact, "tree_inertia", lambda tree, lam: (0, nullity))
        monkeypatch.setattr(numeric, "eigen_symmetric", no_float_route)
        tree = spider(*legs)
        with pytest.raises(OracleDisagreement) as info:
            certify(tree)
        assert str(info.value) == message
        assert info.value.edges == tree.edges

    def test_faria_bound_is_checked_before_the_float_route(self, monkeypatch):
        # p = 4 pendants (3, 4, 6, 7) next to |S| = 3 vertices (2, 5, 1), and
        # m(T,1) = 1 = p - |S|; the class is 'other', so one zero short
        # (0, not p-1 or p-2) passes the class checks and only the bound
        # can name it before LAPACK runs
        tree = from_edge_list([(1, 2), (2, 3), (2, 4), (1, 5), (5, 6), (1, 7)])
        assert classify_m1(tree).m1_class == "other"
        real = exact.tree_inertia
        below, zero = real(tree, 1)
        assert zero == 1

        def no_float_route(*args, **kwargs):
            raise AssertionError("float route ran before the exact check")

        monkeypatch.setattr(exact, "tree_inertia", lambda t, lam: (below, zero - 1))
        monkeypatch.setattr(numeric, "eigen_symmetric", no_float_route)
        with pytest.raises(OracleDisagreement) as info:
            certify(tree)
        assert str(info.value) == (
            "exact nullity 0 is below Faria's bound p - |S| = 1 (3 quasi-pendant vertices)"
        )
        assert info.value.edges == tree.edges

    @pytest.mark.parametrize(
        "legs, spoil, message",
        [
            (
                # LAPACK loses the eigenvalue 0 and finds one at 4.5 instead
                (1, 1, 2),
                lambda s: dataclasses.replace(s, eigenvalues=s.eigenvalues[1:] + (4.5,)),
                "eigenvalues below 1 disagree: numeric 1, exact 2",
            ),
            (
                # the two largest, simple eigenvalues reported as one cluster
                (1, 1, 4),
                lambda s: dataclasses.replace(
                    s, clusters=s.clusters[:-2] + ((sum(s.eigenvalues[-2:]) / 2, 2),)
                ),
                "2 clusters of size p-1=2 (at 1.000000, 3.794369) "
                "but 1 extremal eigenvalues (ratios 1/3)",
            ),
        ],
        ids=["inertia_below_one", "extra_p_minus_1_cluster"],
    )
    def test_spoiled_spectrum_is_3(self, monkeypatch, tmp_path, capsys, legs, spoil, message):
        # each spoiled spectrum passes every check before the one it targets
        real = numeric.eigen_symmetric
        monkeypatch.setattr(
            numeric, "eigen_symmetric", lambda *args, **kwargs: spoil(real(*args, **kwargs))
        )
        tree = spider(*legs)
        with pytest.raises(OracleDisagreement) as info:
            certify(tree)
        assert str(info.value) == message
        assert info.value.edges == tree.edges
        f = tmp_path / "t.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in tree.edges))
        assert main(["check", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"oracle disagreement: {message}" in captured.err

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_bad_tol_is_a_value_error(self, tol):
        # +inf once made one cluster of the whole spectrum, which certify
        # reported as an OracleDisagreement; NaN and -1e-12 passed unseen
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            certify(spider(1, 1, 2), tol)

    def test_m1_without_bareiss(self, monkeypatch):
        # the dense elimination took 93 s on the 1 200-vertex path; certify
        # must reach m(T,1) without it
        def no_bareiss(rows):
            raise AssertionError("certify ran the dense fraction-free elimination")

        monkeypatch.setattr(exact, "_bareiss_rank", no_bareiss)
        cert = certify(path(1200))  # eigenvalue 1 is 2 - 2cos(400 pi / 1200)
        assert cert.m1_exact == cert.m1_numeric == 1
        # a 900-vertex spine with a pendant edge at 10, 100, ..., 820
        edges = [(i, i + 1) for i in range(1, 900)]
        edges += [(v, 900 + k) for k, v in enumerate(range(10, 900, 90), start=1)]
        cert = certify(from_edge_list(edges))
        assert cert.report.m1_class == "other"
        assert cert.m1_exact == cert.m1_numeric == 9


# spider(1, 1, 2) with, at the major 1, a Q group of a fork (6..10) and the
# pendant 11, and the P path 12 at vertex 4, one step from its leg's end 5
Q_GROUP_TREE = [
    (1, 2), (1, 3), (1, 4), (4, 5), (1, 6), (6, 7), (7, 8), (8, 9), (8, 10), (1, 11), (4, 12)
]


def _spoiled(witness, **changes):
    # one attachment replaced by a copy with the given fields changed
    index = changes.pop("index")
    attachments = list(witness.attachments)
    attachments[index] = dataclasses.replace(attachments[index], **changes)
    return dataclasses.replace(witness, attachments=tuple(attachments))


# Each spoil of the witness of Q_GROUP_TREE, which is major 1, endpoints
# (2, 3, 5), residues (1, 1, 2) of type A and the attachments (6..10) and
# (11,) at 1 (Q) and (12,) at 4 (P), breaks one rule of the check.  The
# entry gives extra edges for the tree it is checked on, the spoil and the
# rule's message.
SPOILS = {
    "repeated_endpoint": (
        [],
        lambda w: dataclasses.replace(w, endpoints=(2, 2, 5)),
        "the legs do not end at three distinct pendants off the major",
    ),
    "shared_first_edge": (
        [],
        lambda w: dataclasses.replace(w, endpoints=(2, 5, 12)),  # 5 and 12 both leave 1 by 4
        "two legs leave the major by the same edge",
    ),
    "misread_residues": (
        [],
        lambda w: dataclasses.replace(w, leg_residues=(1, 2, 1)),
        "leg residues are (1, 1, 2), not (1, 2, 1)",
    ),
    "wrong_omega_type": (
        [],
        lambda w: dataclasses.replace(w, omega="B"),
        "leg residues (1, 1, 2) are not of Omega type 'B'",
    ),
    "attachment_left_out": (
        [],
        lambda w: dataclasses.replace(w, attachments=w.attachments[:2]),
        "vertex 12 lies in no attachment",
    ),
    "swapped_endpoint": (
        [],
        lambda w: dataclasses.replace(w, endpoints=(2, 11, 5)),
        "vertex 11 is on the core or in two attachments",
    ),
    "moved_attachment": (
        [],
        lambda w: _spoiled(w, index=2, anchor=5),
        "attachment (12,) is not one component hung at 5",
    ),
    "anchor_off_residue": (
        # the third leg runs on through 5 to 15, and the pendant 16 hangs at
        # 5, which is 3 steps from 15: the anchor of a P path must be 1 (mod 3)
        [(5, 13), (13, 14), (14, 15), (5, 16)],
        lambda w: dataclasses.replace(
            w,
            endpoints=(2, 3, 15),
            attachments=(*w.attachments, classify.GammaAttachment(5, (16,), "P")),
        ),
        "anchor 5 is not 1 (mod 3) from its leg's end",
    ),
    "flipped_family": (
        [],
        lambda w: _spoiled(w, index=0, family="P"),
        "attachment (6, 7, 8, 9, 10) is no path on 2 (mod 3) vertices",
    ),
    "unknown_family": (
        [],
        lambda w: _spoiled(w, index=2, family="R"),
        "attachment (12,) has no family P or Q",
    ),
    "q_group_of_one": (
        [],
        lambda w: _spoiled(w, index=1, family="P"),
        "the Q group at 1 has one member",
    ),
}

# Extra edges that grow the Q group's fork (6..10) off the residues its
# pendants and branch points need, and the message each spoiled tree gives
# when the witness counts the new vertices into the fork's attachment.
Q_DEPTH_SPOILS = {
    "pendant_off_residue": (
        [(9, 13)],
        "pendant 13 is not 1 (mod 3) from its Q anchor 1",
    ),
    "meeting_off_residue": (
        [(7, 13), (13, 14)],
        "pendants of the Q group at 1 meet at 7, not 0 (mod 3) below it",
    ),
}


class TestVerifyGammaWitness:
    def test_every_witness_to_order_12(self):
        witnesses = 0
        for n in range(2, 13):
            for tree in free_trees(n):
                verdict, witness = in_gamma(tree)
                if verdict:
                    assert gauntlet.verify_gamma_witness(tree, witness) is None, tree.edges
                    witnesses += 1
        assert witnesses > 0

    @settings(SETTINGS, max_examples=40)
    @given(gamma_trees(max_n=60))
    def test_constructed_gamma_trees(self, tree):
        verdict, witness = in_gamma(tree)
        assert verdict
        assert gauntlet.verify_gamma_witness(tree, witness) is None

    @pytest.mark.parametrize("name", sorted(SPOILS))
    def test_spoiled_witness_rejected(self, name):
        extra, spoil, message = SPOILS[name]
        witness = spoil(in_gamma(from_edge_list(Q_GROUP_TREE))[1])
        tree = from_edge_list(Q_GROUP_TREE + extra)
        assert gauntlet.verify_gamma_witness(tree, witness) == message

    @pytest.mark.parametrize("name", sorted(Q_DEPTH_SPOILS))
    def test_q_group_depth_rules(self, name):
        extra, message = Q_DEPTH_SPOILS[name]
        witness = in_gamma(from_edge_list(Q_GROUP_TREE))[1]
        fork = witness.attachments[0].vertices
        assert fork == (6, 7, 8, 9, 10)
        grown = tuple(sorted({*fork, *(v for edge in extra for v in edge)}))
        spoiled = _spoiled(witness, index=0, vertices=grown)
        tree = from_edge_list(Q_GROUP_TREE + extra)
        assert gauntlet.verify_gamma_witness(tree, spoiled) == message

    def test_bool_label_rejected(self):
        # True equals 1 but is no vertex label; JSON true parses to it
        tree = from_edge_list([(1, 2), (2, 3), (3, 4), (3, 5)])
        witness = in_gamma(tree)[1]
        assert witness.major == 3 and witness.endpoints == (1, 4, 5)
        for spoiled in (
            dataclasses.replace(witness, endpoints=(True, 4, 5)),
            dataclasses.replace(witness, major=True),
        ):
            message = gauntlet.verify_gamma_witness(tree, spoiled)
            assert message == "a witness label is not a vertex of the tree"

    def test_certify_rejects_a_spoiled_witness(self, monkeypatch):
        tree = from_edge_list(Q_GROUP_TREE)
        _, spoil, message = SPOILS["flipped_family"]
        real = classify.in_gamma
        monkeypatch.setattr(classify, "in_gamma", lambda t: (True, spoil(real(t)[1])))
        with pytest.raises(OracleDisagreement) as info:
            certify(tree)
        assert str(info.value) == f"in_gamma witness fails its check: {message}"
        assert info.value.edges == tree.edges


class TestCertifyBasis:
    def test_spider_basis(self):
        # legs 1, 1, 4 are all = 1 (mod 3): q = 1, p - 1 = 2 vectors
        basis = gauntlet.certify_basis(spider(1, 1, 4), 1)
        assert basis.rank == len(basis.vectors) == len(basis.residuals) == 2
        assert all(r <= 1e-10 for r in basis.residuals)
        assert (basis.param.q, basis.param.b) == (1, 0)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda v: [v[0], v[0]], "eigenbasis rank is 1, not p-1=2"),
            (lambda v: [v[0][::-1], v[1]], "eigenbasis residual is 4, above 1e-10"),
        ],
        ids=["duplicated", "reversed"],
    )
    def test_failed_basis_raises(self, monkeypatch, spoil, message):
        real = construct._peel_basis

        def spoiled(*args):
            vectors, records, steps = real(*args)
            return spoil(vectors), records, steps

        monkeypatch.setattr(construct, "_peel_basis", spoiled)
        tree = spider(1, 1, 4)
        with pytest.raises(OracleDisagreement) as info:
            gauntlet.certify_basis(tree, 1)
        assert str(info.value) == message
        assert info.value.edges == tree.edges
