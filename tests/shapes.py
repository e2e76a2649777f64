"""Tree builders shared by the test modules.

Each builder labels its vertices the same way on every call, so a test
can name vertices by label.
"""

import heapq

from hypothesis import strategies as st

from treespectra import from_edge_list, single_vertex


def path(n):
    """The path 1 - 2 - ... - n; the single vertex when n is 1."""
    if n == 1:
        return single_vertex()
    return from_edge_list([(i, i + 1) for i in range(1, n)])


def star(k):
    """K_{1,k}: center 1, leaves 2..k+1."""
    return from_edge_list([(1, i) for i in range(2, k + 2)])


def spider(*legs):
    """Center 1 with one leg per argument, each leg labeled outward in turn."""
    edges = []
    nxt = 2
    for length in legs:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(edges)


def caterpillar(spine):
    """The path 1..spine with one leaf hung off every spine vertex."""
    edges = [(i, i + 1) for i in range(1, spine)]
    edges += [(i, spine + i) for i in range(1, spine + 1)]
    return from_edge_list(edges)


def prufer_tree(seq):
    """Decode a Prufer sequence over labels 1..len(seq)+2 into a tree."""
    n = len(seq) + 2
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edge_list(edges)


def _branches(depth):
    # (length, forks) hung at a vertex x: a chain of `length` new vertices
    # that ends in a pendant when `forks` is empty, else in a major carrying
    # those branches.  Pendants end up 1 (mod 3) below x and majors 0, so a
    # branch hung at a Gamma anchor is a mod-3 piece.
    pendant = st.tuples(st.sampled_from([1, 4]), st.just(()))
    if depth == 0:
        return pendant
    return st.one_of(pendant, _forks(depth))


def _forks(depth):
    return st.tuples(st.just(3), st.lists(_branches(depth - 1), min_size=2, max_size=2))


def _size(branch):
    length, forks = branch
    return length + sum(map(_size, forks))


def _hang(edges, x, branch, nxt):
    # add the branch below x with labels from nxt on; return the next label
    length, forks = branch
    for _ in range(length):
        edges.append((x, nxt))
        x, nxt = nxt, nxt + 1
    for fork in forks:
        nxt = _hang(edges, x, fork, nxt)
    return nxt


def _gamma_edges(draw, max_n):
    # The edges of a Gamma tree on at most max_n vertices, and the pendants
    # that end its three legs and its path attachments.
    residues = draw(st.sampled_from([(1, 1, 0), (1, 1, 2), (2, 0, 0)]))
    edges = []
    ends = []
    nxt = 2
    anchors = [1] if 1 in residues else []
    for r in residues:
        length = r + 3 * draw(st.integers(1 if r == 0 else 0, 2))
        x = 1
        for t in range(1, length + 1):
            edges.append((x, nxt))
            if (length - t) % 3 == 1:
                anchors.append(nxt)
            x, nxt = nxt, nxt + 1
        ends.append(x)
    pendant = st.tuples(st.sampled_from([1, 4, 7]), st.just(()))
    groups = st.one_of(
        st.just([]),
        st.lists(pendant, min_size=1, max_size=2),
        st.tuples(_forks(2), st.lists(_branches(1), min_size=1, max_size=2)).map(
            lambda group: [group[0], *group[1]]
        ),
    )
    for anchor in anchors:
        group = draw(groups)
        if nxt - 1 + sum(map(_size, group)) <= max_n:
            paths = all(not forks for _, forks in group)
            for branch in group:
                nxt = _hang(edges, anchor, branch, nxt)
                if paths:
                    ends.append(nxt - 1)
    return edges, ends


@st.composite
def gamma_trees(draw, max_n=45):
    """A tree of the family Gamma, where eigenvalue 1 has multiplicity p-2.

    A major m with three legs whose lengths mod 3 are {1, 1, x != 1} or
    {2, 0, 0}.  At core vertices 1 (mod 3) before their leg's end, and at
    m when a leg is 1 (mod 3), hang either paths on 1 (mod 3) vertices or
    a group of at least two mod-3 pieces, one of them branched.  Groups
    that would pass ``max_n`` vertices are left out; edges come shuffled.
    """
    edges, _ = _gamma_edges(draw, max_n)
    return from_edge_list(draw(st.permutations(edges)))


@st.composite
def gamma_near_misses(draw, max_n=45):
    """A :func:`gamma_trees` tree with one leg or one path attachment
    lengthened by a vertex, on at most ``max_n`` vertices.

    The lengthened piece breaks the residue rule it was built to, so the
    tree is usually outside Gamma, though another triple may still
    witness it; edges come shuffled.
    """
    edges, ends = _gamma_edges(draw, max_n - 1)
    end = draw(st.sampled_from(ends))
    edges.append((end, len(edges) + 2))
    return from_edge_list(draw(st.permutations(edges)))
