"""Tree builders shared by the test modules.

Each builder labels its vertices the same way on every call, so a test
can name vertices by label.
"""

import heapq

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
