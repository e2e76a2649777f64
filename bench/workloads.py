"""Seeded inputs, requests and output checks for the four workloads.

The input generators use only the standard library: they never call
``treespectra``, so the program under test receives nothing but the
generated edge-list files.  The checks run after the timed phase and rely
on facts fixed outside the package (known tree counts, the committed
order-8 catalog, the generator's own q) and on an independent
``numpy.linalg.eigvalsh`` spectrum.

A workload is a list of requests, run in order as one pass.  A request
certifies ``items`` things and returns its raw outputs; its ``check``
turns those outputs into a count of failed items.
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Free trees of order 1..12 (OEIS A000055).
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)

# Sizes per workload.  "tiny" exists for the smoke test.
SIZES = {
    "full": {
        "catalog_max_n": 12,
        "census_max_n": 8,
        "random_trees": 40,
        "random_n": (40, 48),
        "extremal_trees": 35,
        "extremal_n": (36, 44),
    },
    "tiny": {
        "catalog_max_n": 7,
        "census_max_n": 5,
        "random_trees": 3,
        "random_n": (12, 16),
        "extremal_trees": 3,
        "extremal_n": (12, 20),
    },
}

EIG_TOL = 1e-8
RESIDUAL_MAX = 1e-10


# -- input generators (no treespectra) -------------------------------------


def prufer_decode(code, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 1..n with the given Prufer code."""
    degree = [1] * (n + 1)
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def typical_degrees(n: int) -> list[int]:
    """The degree sequence of a typical random labeled tree on n vertices.

    In a uniform random labeled tree, degree - 1 is close to Poisson(1), so
    about n/(e (d-1)!) vertices have degree d.  Degrees >= 3 take those
    counts, rounded; the leaf count then follows from sum(deg) = 2n - 2,
    and the remaining vertices have degree 2.
    """
    counts = {d: round(n / (math.e * math.factorial(d - 1))) for d in range(3, 9)}
    leaves = 2 + sum((d - 2) * c for d, c in counts.items())
    middle = n - leaves - sum(counts.values())
    if middle < 0:
        raise ValueError(f"no typical degree sequence for n={n}")
    degrees = [1] * leaves + [2] * middle
    for d, c in counts.items():
        degrees += [d] * c
    return degrees


def random_prufer_tree(rng: random.Random, degrees: list[int]) -> list[tuple[int, int]]:
    """A uniformly random labeled tree with the given degree sequence.

    A labeled tree's Prufer code lists each vertex deg - 1 times, so a
    shuffled code over randomly assigned labels is uniform among the trees
    with those degrees.
    """
    n = len(degrees)
    labels = rng.sample(range(1, n + 1), n)
    code = [v for v, d in zip(labels, degrees) for _ in range(d - 1)]
    rng.shuffle(code)
    return prufer_decode(code, n)


def extremal_tree(rng: random.Random, q: int, target_n: int) -> list[tuple[int, int]]:
    """A random tree of about target_n vertices whose pendant gcd is 2q+1.

    Legs have length = q (mod 2q+1) and majors are joined by paths of
    length = 0 (mod 2q+1), so every pendant pair has d(u,w)+1 = 0 mod 2q+1.
    Two legs of length exactly q at the first major pin the gcd to 2q+1.
    """
    m = 2 * q + 1
    edges: list[tuple[int, int]] = []
    n = 1

    def hang(at: int, length: int) -> int:
        nonlocal n
        prev = at
        for _ in range(length):
            n += 1
            edges.append((prev, n))
            prev = n
        return prev

    majors = [1]
    hang(1, q)
    hang(1, q)
    hang(1, q + m * rng.randrange(2))
    while target_n - n >= q:
        room = target_n - n
        if room >= m + 2 * q and rng.random() < 0.4:
            a = 2 if room >= 2 * m + 2 * q and rng.random() < 0.3 else 1
            major = hang(rng.choice(majors), a * m)
            majors.append(major)
            hang(major, q)
            room = target_n - n
            hang(major, q + (m if room >= q + m and rng.random() < 0.5 else 0))
        else:
            c = 1 if room >= q + m and rng.random() < 0.4 else 0
            hang(rng.choice(majors), q + c * m)
    return edges


def band_orders(lo: int, hi: int, count: int) -> list[int]:
    """count orders cycling through lo..hi.

    A narrow band keeps the trees alike, so a latency percentile is a
    statistic over many similar requests rather than the latency of the
    one tree whose size happens to sit at that rank.
    """
    return [lo + i % (hi - lo + 1) for i in range(count)]


# -- independent facts about an edge list -----------------------------------


@dataclass
class TreeFacts:
    """What the benchmark knows about an input without asking the package."""

    p: int
    is_extremal: bool
    m1: int
    admissible_q: tuple[int, ...]


def tree_facts(edges) -> TreeFacts:
    n = len(edges) + 1
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    leaves = [v for v in range(1, n + 1) if len(adj[v]) == 1]

    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u - 1, v - 1] = lap[v - 1, u - 1] = -1.0
    for v in range(1, n + 1):
        lap[v - 1, v - 1] = len(adj[v])
    values = np.linalg.eigvalsh(lap)
    biggest, run = 1, 1
    for a, b in zip(values, values[1:]):
        run = run + 1 if b - a <= EIG_TOL else 1
        biggest = max(biggest, run)
    m1 = int(np.sum(np.abs(values - 1.0) <= EIG_TOL))

    g = 0
    for i, u in enumerate(leaves):
        dist = _bfs(adj, u, n)
        for w in leaves[i + 1 :]:
            g = math.gcd(g, dist[w] + 1)
    qs = tuple((mod - 1) // 2 for mod in range(3, g + 1, 2) if g % mod == 0)
    return TreeFacts(
        p=len(leaves),
        is_extremal=biggest == len(leaves) - 1,
        m1=m1,
        admissible_q=qs,
    )


def _bfs(adj, source: int, n: int) -> list[int]:
    dist = [-1] * (n + 1)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


# -- running the program ----------------------------------------------------


class Runner:
    """Calls into the package, capturing output and tagging trace requests."""

    def __init__(self, cli, census):
        self.cli = cli
        self.census = census
        self.tracer = None  # set for the traced phase
        self.commands: list[str] = []  # CLI command of each request id

    def _next_request(self, command: str) -> None:
        if self.tracer is not None:
            self.tracer.request_id = len(self.commands)
        self.commands.append(command)

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        self._next_request(argv[0])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def prufer_count(self, n: int) -> int:
        self._next_request("census")
        return self.census.prufer_count_oracle(n)


def _report(code: int, text: str):
    """Parsed JSON report of a successful CLI call, else None."""
    if code != 0:
        return None
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def check_report_ok(report, facts: TreeFacts) -> bool:
    """Parsed check report whose oracles agree and whose verdicts match eigvalsh."""
    try:
        payload = report["payload"]
        return (
            payload["oracles"]["agree"] is True
            and payload["is_extremal"] == facts.is_extremal
            and payload["m1"]["exact"] == facts.m1
        )
    except (KeyError, TypeError):
        return False


def _lambda_rows(text: str) -> int:
    report = _report(0, text)
    try:
        return len(report["payload"]["lambda_set"])
    except (KeyError, TypeError):
        return 0


@dataclass
class CheckRandom:
    """One random tree: a single ``check`` request."""

    path: str
    facts: TreeFacts
    items = 1

    def run(self, runner: Runner):
        return [runner.run_cli(["check", self.path])]

    def check(self, outputs) -> int:
        (code, text), = outputs
        return 0 if check_report_ok(_report(code, text), self.facts) else 1

    def lambda_rows(self, outputs) -> int:
        return _lambda_rows(outputs[0][1])


@dataclass
class CheckExtremal:
    """One constructed tree: ``check`` plus ``eigenbasis --q`` per admissible q."""

    path: str
    q: int
    facts: TreeFacts
    items = 1

    def run(self, runner: Runner):
        outputs = [runner.run_cli(["check", self.path])]
        for q in self.facts.admissible_q:
            outputs.append(runner.run_cli(["eigenbasis", self.path, "--q", str(q)]))
        return outputs

    def check(self, outputs) -> int:
        if len(outputs) != 1 + len(self.facts.admissible_q):
            return 1
        report = _report(*outputs[0])
        if not check_report_ok(report, self.facts):
            return 1
        p = self.facts.p
        try:
            payload = report["payload"]
            if self.q not in payload["congruence"]["q_list"]:
                return 1
            if tuple(payload["congruence"]["q_list"]) != self.facts.admissible_q:
                return 1
            for row in payload["lambda_set"]:
                if row["multiplicity_exact"] != p - 1 or row["multiplicity_numeric"] != p - 1:
                    return 1
            for code, text in outputs[1:]:
                basis = _report(code, text)
                if basis is None:
                    return 1
                bp = basis["payload"]
                if bp["rank"] != p - 1:
                    return 1
                if any(float(r) > RESIDUAL_MAX for r in bp["residuals"]):
                    return 1
        except (KeyError, TypeError, ValueError):
            return 1
        return 0

    def lambda_rows(self, outputs) -> int:
        return _lambda_rows(outputs[0][1])


@dataclass
class Catalog:
    """``enumerate --max-n N --format csv`` through ``cli.main``."""

    max_n: int
    published: str  # committed order-8 extremal catalog
    items: int = field(init=False)

    def __post_init__(self):
        self.items = sum(FREE_TREE_COUNTS[: self.max_n])

    def run(self, runner: Runner):
        argv = ["enumerate", "--max-n", str(self.max_n), "--format", "csv"]
        return [runner.run_cli(argv)]

    def check(self, outputs) -> int:
        (code, text), = outputs
        if code != 0:
            return self.items
        lines = text.splitlines()
        if not lines:
            return self.items
        header, rows = lines[0], lines[1:]
        counts = [0] * self.max_n
        extremal_small = []
        try:
            for line, row in zip(rows, csv.reader(rows)):
                n = int(row[0])
                counts[n - 1] += 1
                if n <= 8 and row[4] == "true":
                    extremal_small.append(line)
        except (ValueError, IndexError):
            return self.items
        if tuple(counts) != FREE_TREE_COUNTS[: self.max_n]:
            return self.items
        published = [
            line
            for line in self.published.splitlines()[1:]
            if int(line.split(",", 1)[0]) <= self.max_n
        ]
        expected = "\n".join([self.published.splitlines()[0]] + published)
        if "\n".join([header] + extremal_small) != expected:
            return self.items
        return 0

    def lambda_rows(self, outputs) -> int:
        (_, text), = outputs
        return sum(1 for row in csv.reader(text.splitlines()[1:]) for r in row[5].split("|") if r)


@dataclass
class Census:
    """``prufer_count_oracle(n)`` for n = 2..max_n; items are labeled trees."""

    max_n: int
    free_counts: dict = field(default_factory=dict)
    items: int = field(init=False)

    def __post_init__(self):
        self.items = sum(n ** (n - 2) for n in range(2, self.max_n + 1))

    def run(self, runner: Runner):
        return [runner.prufer_count(n) for n in range(2, self.max_n + 1)]

    def check(self, outputs) -> int:
        failed = 0
        for n, count in zip(range(2, self.max_n + 1), outputs):
            if count != self.free_counts[n] or count != FREE_TREE_COUNTS[n - 1]:
                failed += n ** (n - 2)
        return failed

    def lambda_rows(self, outputs) -> int:
        return 0


# -- workload construction --------------------------------------------------


def _write_tree(workdir: Path, index: int, edges) -> str:
    path = workdir / f"tree_{index:03d}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def build(name: str, size: str, seed: int, workdir: Path, root: Path, census_module):
    """The requests of one pass of a workload, in the order they run."""
    sizes = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    if name == "catalog":
        published = (root / "docs" / "extremal_catalog_n8.csv").read_text()
        return [Catalog(sizes["catalog_max_n"], published)]
    if name == "census":
        work = Census(sizes["census_max_n"])
        # Expected counts come from the level-sequence generator, outside
        # the timed region; the oracle is checked against it and OEIS.
        for n in range(2, work.max_n + 1):
            work.free_counts[n] = sum(1 for _ in census_module.free_trees(n))
        return [work]
    if name == "check_random":
        lo, hi = sizes["random_n"]
        requests = []
        for i, n in enumerate(band_orders(lo, hi, sizes["random_trees"])):
            edges = random_prufer_tree(rng, typical_degrees(n))
            requests.append(CheckRandom(_write_tree(workdir, i, edges), tree_facts(edges)))
        rng.shuffle(requests)
        return requests
    if name == "check_extremal":
        lo, hi = sizes["extremal_n"]
        requests = []
        for i, n in enumerate(band_orders(lo, hi, sizes["extremal_trees"])):
            q = 1 + i % 5
            edges = extremal_tree(rng, q, n)
            requests.append(
                CheckExtremal(_write_tree(workdir, i, edges), q, tree_facts(edges))
            )
        rng.shuffle(requests)
        return requests
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("catalog", "check_extremal", "check_random", "census")
