import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shapes import path, star
from test_classify import prufer_trees
from test_float_route import SETTINGS

from treespectra import (
    Tree,
    canonical_relabel,
    free_trees,
    from_edge_list,
    parse_edge_list_text,
    path_between,
    single_vertex,
)
from treespectra.errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EmptyInput,
    LabelOutOfRange,
    ParseError,
    SelfLoop,
)


class TestFromEdgeList:
    def test_relabels_by_first_appearance(self):
        t = from_edge_list([(10, 7), (7, 99)])
        assert t.n == 3
        assert t.edges == ((1, 2), (2, 3))

    def test_adjacency_sorted(self):
        t = from_edge_list([(1, 4), (1, 2), (1, 3)])
        assert t.adjacency[1] == (2, 3, 4)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            from_edge_list([(1, 2), (2, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list([(1, 2), (2, 3), (3, 2)])

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            from_edge_list([(1, 2), (2, 3), (3, 1)])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            from_edge_list([(1, 2), (3, 4)])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            from_edge_list([])

    def test_bad_label(self):
        with pytest.raises(LabelOutOfRange):
            from_edge_list([(0, 1)])
        # bool is an int subclass; True would pass as label 1
        with pytest.raises(LabelOutOfRange, match="True is not an integer"):
            from_edge_list([(True, 2), (2, 3)])
        assert from_edge_list([(np.int64(5), np.int32(7))]).n == 2

    def test_single_vertex(self):
        t = single_vertex()
        assert t.n == 1 and t.edges == ()
        assert t.pendants == () and t.majors == ()
        assert list(free_trees(1)) == [t]
        assert canonical_relabel(t) == t


def degree_scan(tree, keep):
    return tuple(v for v in range(1, tree.n + 1) if keep(len(tree.adjacency[v])))


class TestClassifyVertices:
    """The degree classes a Tree carries: pendants (degree 1), majors (>= 3)."""

    def test_star(self):
        t = star(3)
        assert t.pendants == (2, 3, 4)
        assert t.majors == (1,)

    def test_path_has_no_majors(self):
        t = path(5)
        assert t.majors == ()
        assert t.pendants == (1, 5)

    def test_spider_has_one_major(self):
        t = from_edge_list([(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
        assert t.majors == (1,)
        assert t.pendants == (3, 5, 7)

    def test_both_ends_of_an_edge_can_be_pendants(self):
        assert path(2).pendants == (1, 2)
        assert path(2).majors == ()

    def test_every_tree_to_order_12(self):
        for n in range(1, 13):
            for t in free_trees(n):
                assert t.pendants == degree_scan(t, lambda d: d == 1)
                assert t.majors == degree_scan(t, lambda d: d >= 3)

    @settings(SETTINGS)
    @given(prufer_trees())
    def test_random_trees_to_order_300(self, t):
        assert t.pendants == degree_scan(t, lambda d: d == 1)
        assert t.majors == degree_scan(t, lambda d: d >= 3)

    def test_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            Tree(n=1, edges=(), adjacency=((), ()), pendants=())


def assert_bfs_order(t, u):
    # the visit order of Tree.bfs: a permutation of 1..n that starts at u,
    # puts every vertex after its parent and never lowers the distance
    dist, parent, order = t.bfs(u)
    assert sorted(order) == list(range(1, t.n + 1))
    assert order[0] == u
    position = {v: i for i, v in enumerate(order)}
    assert all(position[parent[v]] < position[v] for v in order[1:])
    assert all(dist[a] <= dist[b] for a, b in zip(order, order[1:]))


class TestDistanceAndPaths:
    def test_distance(self):
        t = path(6)
        assert t.bfs(1)[0][6] == 5
        assert t.bfs(3)[0][3] == 0

    def test_distance_bad_label(self):
        with pytest.raises(LabelOutOfRange):
            path(3).bfs(9)
        with pytest.raises(LabelOutOfRange):
            path(3).bfs(True)

    def test_path_between(self):
        t = star(3)
        assert path_between(t, 2, 3) == (2, 1, 3)
        assert path_between(t, 2, 2) == (2,)

    @settings(SETTINGS)
    @given(prufer_trees())
    def test_bfs_parents_step_toward_the_root(self, t):
        dist, parent, _ = t.bfs(1)
        assert dist[1] == 0
        assert parent[1] == 1
        for v in range(2, t.n + 1):
            assert parent[v] in t.adjacency[v]
            assert dist[parent[v]] == dist[v] - 1

    @settings(SETTINGS)
    @given(prufer_trees(), st.data())
    def test_bfs_order(self, t, data):
        assert_bfs_order(t, data.draw(st.integers(1, t.n)))

    def test_bfs_order_on_a_long_path(self):
        t = path(5000)
        for u in (1, 2500, 5000):
            assert_bfs_order(t, u)

    def test_triangle_equality_through_tree(self):
        t = from_edge_list([(1, 2), (2, 3), (2, 4), (4, 5)])
        for u in range(1, 6):
            for v in range(1, 6):
                walk = path_between(t, u, v)
                assert len(walk) - 1 == t.bfs(u)[0][v]
                assert walk[0] == u and walk[-1] == v


class TestParseText:
    def test_comments_and_blanks(self):
        pairs = parse_edge_list_text("# a star\n\n1 2\n1 3\n\n1 4\n")
        assert pairs == ((1, 2), (1, 3), (1, 4))

    def test_bad_token_count(self):
        with pytest.raises(ParseError) as info:
            parse_edge_list_text("1 2\n1 2 3\n")
        assert info.value.line == 2

    def test_non_integer(self):
        with pytest.raises(ParseError) as info:
            parse_edge_list_text("1 x\n")
        assert info.value.line == 1

    def test_labels_are_ascii_digits(self):
        # int() alone reads 1_0 as 10, an Arabic-Indic one as 1, and +1 as 1
        for label in ("1_0", "\u0661", "+1", "-1", "1.0", "1" * 5000):
            with pytest.raises(ParseError) as info:
                parse_edge_list_text(f"1 2\n{label} 2\n")
            assert info.value.line == 2
        assert parse_edge_list_text("10 0002\n") == ((10, 2),)

    def test_only_newlines_end_lines_and_only_blanks_split_labels(self):
        # str.splitlines also ends a line at a form feed or U+2028, and
        # str.split also splits at a no-break space; each such character
        # belongs to its token, on the line an editor shows
        for text, line in (
            ("1 2\x0c2 3\nx y\n", 1),
            ("1 2 2 3\n", 1),
            ("1 2\n2\xa03\n", 2),
            ("1 2\n2\xa03 4\n", 2),
            ("1 2\n\x0c\n2 3\n", 2),
            ("1 2\x1c\n", 1),
        ):
            with pytest.raises(ParseError) as info:
                parse_edge_list_text(text)
            assert info.value.line == line, repr(text)
        for text in ("1 2\r\n2 3\r\n", "1 2\r2 3\r", "1\t2\n \t2 \t 3\t\n\t\n#\tx\n"):
            assert parse_edge_list_text(text) == ((1, 2), (2, 3)), repr(text)

    def test_non_positive(self):
        with pytest.raises(ParseError):
            parse_edge_list_text("0 2\n")
