"""Labeled trees and the combinatorial helpers everything else builds on.

A :class:`Tree` lives on the contiguous label set ``1..n``.  Input from
outside goes through :func:`from_edge_list`, which relabels arbitrary
positive integer labels by first appearance and rejects anything that is
not a tree; the package's own generators, whose edges are a tree on
``1..n`` by construction, use the internal ``_build`` (the catalog's level
sequences give sorted neighbours and edges as they are read, so
``census`` constructs its trees directly).  Nothing here
mutates a tree.  Every integer argument of the package, a label, an order
or an eigenvalue's ``q`` and ``b``, is read by one rule, ``_integer``.

Matrix- and vector-valued modules index arrays by ``label - 1``; everything
in this module speaks labels directly.  There is one breadth-first search,
:meth:`Tree.bfs`, which returns distances, parents and the visit order:
every distance is read off the first, paths are read off the parents, and
the canonical forms and ``classify`` walk the order backwards, children
before parents.
One walk stays separate on purpose: ``exact.tree_inertia`` keeps its own
preorder, so the exact route shares no code with the combinatorial
deciders it checks.  The census oracle walks no tree at all: it works on
Matula numbers, so it shares nothing with the generator it checks,
:class:`Tree` included.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

from .errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EmptyInput,
    LabelOutOfRange,
    ParseError,
    SelfLoop,
)

__all__ = [
    "Tree",
    "from_edge_list",
    "single_vertex",
    "parse_edge_list_text",
    "path_between",
]


@dataclass(frozen=True)
class Tree:
    """Immutable tree on labels ``1..n``.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v`` (index 0 is a
    placeholder).  ``pendants`` (degree 1) and ``majors`` (degree >= 3) are
    the sorted label tuples of those degree classes, derived from
    ``adjacency`` once at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    pendants: tuple[int, ...] = field(init=False, compare=False, repr=False)
    majors: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adj = self.adjacency
        labels = range(1, self.n + 1)
        object.__setattr__(self, "pendants", tuple(v for v in labels if len(adj[v]) == 1))
        object.__setattr__(self, "majors", tuple(v for v in labels if len(adj[v]) >= 3))

    def bfs(self, u: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Distances, parents and visit order of one breadth-first search out of ``u``.

        ``dist`` and ``parent`` are indexed by label (slot 0 unused).
        ``parent[v]`` is the neighbor of ``v`` one step closer to ``u``, and
        ``parent[u]`` is ``u``, so walking the parents from any ``v`` spells
        the path to ``u``.  ``order`` lists the labels as the search reached
        them: ``u`` first, each vertex after its parent, distances never
        decreasing.  Nothing is cached.
        """
        u = _check_label(self, u)
        dist = [-1] * (self.n + 1)
        parent = [0] * (self.n + 1)
        dist[u] = 0
        parent[u] = u
        order = [u]
        for x in order:
            step = dist[x] + 1
            for y in self.adjacency[x]:
                if dist[y] < 0:
                    dist[y] = step
                    parent[y] = x
                    order.append(y)
        return tuple(dist), tuple(parent), tuple(order)


def _integer(x) -> int | None:
    # The package's one integer rule: ``x`` as an int if operator.index takes
    # it (numpy integers and 0-d integer arrays too) and it is no bool, which
    # operator.index would take as 0 or 1; else None.
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def _check_label(tree: Tree, v) -> int:
    # ``v`` as an int label of ``tree``; an out-of-range one is named as an int.
    label = _integer(v)
    if label is None or not 1 <= label <= tree.n:
        raise LabelOutOfRange(f"label {v if label is None else label!r} not in 1..{tree.n}")
    return label


def _as_label(x) -> int:
    label = _integer(x)
    if label is None:
        raise LabelOutOfRange(f"vertex label {x!r} is not an integer")
    if label < 1:
        raise LabelOutOfRange(f"vertex label {label} is not positive")
    return label


def _build(n: int, edges) -> Tree:
    # Internal constructor: callers guarantee edges already form a tree on 1..n.
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Tree(
        n=n,
        edges=tuple((min(u, v), max(u, v)) for u, v in edges),
        adjacency=tuple(tuple(sorted(a)) for a in adj),
    )


def single_vertex() -> Tree:
    """The one-vertex tree (no edges, no pendants)."""
    return _build(1, ())


def from_edge_list(pairs) -> Tree:
    """Validate an iterable of label pairs and return the relabeled tree.

    Labels may be any positive integers; they are mapped to ``1..n`` in
    order of first appearance.  Raises SelfLoop, DuplicateEdge,
    CycleDetected or Disconnected as appropriate, EmptyInput for an empty
    iterable (a single vertex has no edge-list form; use
    :func:`single_vertex`).
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("empty edge list; use single_vertex() for the one-vertex tree")
    relabel: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a, b in pairs:
        a = _as_label(a)
        b = _as_label(b)
        if a == b:
            raise SelfLoop(f"edge ({a}, {b}) is a self-loop")
        for x in (a, b):
            if x not in relabel:
                relabel[x] = len(relabel) + 1
        u, v = relabel[a], relabel[b]
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge ({a}, {b}) appears more than once")
        seen.add(key)
        edges.append(key)

    n = len(relabel)
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
    # An acyclic graph on n vertices has n - len(edges) components.
    if len(edges) < n - 1:
        raise Disconnected("edge list spans more than one component")

    return _build(n, edges)


_LINE_END = re.compile(r"\r\n|\r|\n")  # the line ends text-mode open() reads
_BLANKS = re.compile(r"[ \t]+")


def _ascii_digits(text: str) -> bool:
    # ``[0-9]+``: int() alone also reads 1_0, +1, spaces and other scripts' digits.
    return text.isascii() and text.isdigit()


def parse_edge_list_text(text: str) -> tuple[tuple[int, int], ...]:
    """Parse the plain edge-list format: one ``u v`` pair per line.

    A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``, and labels are
    separated only by runs of ASCII spaces and tabs.  Lines of spaces and
    tabs alone are skipped, and lines whose first other character is ``#``
    are comments.  A label is ASCII decimal digits only (``[0-9]+``).  Any
    other character, a form feed or a no-break space say, stays inside its
    token, so the error names the line an editor shows.  Raises
    :class:`ParseError` carrying the 1-based line number on anything else.
    """
    pairs = []
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = _BLANKS.split(line)
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected two labels, got {len(tokens)} tokens",
                line=lineno,
            )
        if not all(map(_ascii_digits, tokens)):
            raise ParseError(f"line {lineno}: labels must be digits 0-9", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"line {lineno}: label too long", line=lineno) from None
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: labels must be positive", line=lineno)
        pairs.append((u, v))
    return tuple(pairs)


def path_between(tree: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique path from ``u`` to ``v`` as a vertex tuple, ``u`` first.

    Walks the parents of one :meth:`Tree.bfs` from ``u``, up from ``v``;
    the search checks ``u``.
    """
    parent = tree.bfs(u)[1]
    return _root_path(parent, _check_label(tree, v))


def _root_path(parent, v: int) -> tuple[int, ...]:
    # The path from the root of a Tree.bfs to v, root first, walked up the
    # parents from v; the root is its own parent.
    walk = [v]
    while parent[walk[-1]] != walk[-1]:
        walk.append(parent[walk[-1]])
    walk.reverse()
    return tuple(walk)
