#!/usr/bin/env python3
"""Compare the CLI's outputs at a git revision with the working tree's.

    python tests/same_outputs.py REV

REV is extracted with ``git archive`` into a temporary directory.  One
process runs ``cli.main`` from REV's ``src/``, another from the working
tree's, on the same inputs:

- ``tests/data/reports/*.edges``, the 75 seed-11 trees of the
  ``check_random`` and ``check_extremal`` workloads (``bench/workloads.py``,
  imported read-only; it writes the edge lists to a temporary directory),
  the 435 free trees of order 2 to 11 from networkx's
  ``nonisomorphic_trees``, 88 of them with a Gamma witness, and three
  larger extremal trees written out below: K_{1,300}, a caterpillar of 40
  majors (n = 160) and spider(7,7,7,7,7,7); and two larger non-extremal
  ones, the path of order 1 024 and a uniform Prufer tree of order 100
  (seed 100);
- per tree: ``check`` JSON (``timing_seconds`` masked) and ``check --text``,
  and for every admissible (q, b) ``eigenbasis`` JSON (timing masked),
  ``eigenbasis --text``, ``eigenbasis --out`` (JSON, timing masked) and
  ``eigenbasis --text --out`` with the CSV each ``--out`` writes; plus one
  ``eigenbasis`` that fails, at one past the largest admissible q (q = 1
  when there is none);
- ``enumerate --max-n 12`` (CSV on stdout), and ``enumerate --max-n 9``
  as ``--format json`` (timing masked), as ``--format dot`` and with
  ``--filter unit_p2``.

Every output is compared with its exit code and stderr: 2 737 outputs, in
13 to 16 s on 2 shared CPUs.  Prints the first difference, or the count
of identical outputs; exits 0 when all agree, 1 otherwise and 2 when REV
cannot be read.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TIMING = re.compile(r'"timing_seconds": "[^"]*"')
SEED = 11


def _inputs(workdir: Path) -> list[tuple[str, str]]:
    """(label, edge-list path) for every tree the comparison runs."""
    inputs = [
        (f"reports/{path.stem}", str(path))
        for path in sorted((REPO / "tests" / "data" / "reports").glob("*.edges"))
    ]
    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    for name in ("check_random", "check_extremal"):
        out = workdir / name
        out.mkdir()
        requests = workloads.build(name, "full", SEED, out, REPO, None)
        paths = sorted(r.path for r in requests)
        inputs += [(f"{name}/{Path(path).stem}", path) for path in paths]

    # networkx lists the free trees, so these inputs take nothing from the
    # code being compared.
    import networkx as nx

    out = workdir / "free"
    out.mkdir()
    for n in range(2, 12):
        for i, graph in enumerate(nx.nonisomorphic_trees(n), 1):
            path = out / f"n{n}_{i:03d}.edges"
            path.write_text("".join(f"{u + 1} {v + 1}\n" for u, v in graph.edges))
            inputs.append((f"free/{path.stem}", str(path)))

    # Three larger extremal trees, written out here: K_{1,300}; a caterpillar
    # of 40 majors 3 apart on the spine 1..118, with one pendant at each
    # inner major and two at each end (q = 1), so most peels run a leg on
    # through an anchor; and spider(7,7,7,7,7,7), whose moduli are 3, 5, 15.
    star = [(1, v) for v in range(2, 302)]
    ends = [m for m in range(1, 119, 3) for _ in range(2 if m in (1, 118) else 1)]
    caterpillar = [(v, v + 1) for v in range(1, 118)]
    caterpillar += [(m, 119 + i) for i, m in enumerate(ends)]
    spider = []
    for leg in range(6):
        labels = [1, *range(2 + 7 * leg, 9 + 7 * leg)]
        spider += zip(labels, labels[1:])
    out = workdir / "extremal"
    out.mkdir()
    for name, edges in (("star_300", star), ("caterpillar_40", caterpillar), ("spider_7x6", spider)):
        path = out / f"{name}.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        inputs.append((f"extremal/{name}", str(path)))

    # Two larger non-extremal trees: the path of order 1 024, which has no
    # admissible q, and a uniform Prufer tree of order 100 (seed 100),
    # decoded here, whose elimination at 1 does not cycle as a path's does.
    rng = random.Random(100)
    code = [rng.randint(1, 100) for _ in range(98)]
    degree = Counter(code)
    leaves = [v for v in range(1, 101) if v not in degree]
    heapq.heapify(leaves)
    prufer = []
    for v in code:
        prufer.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if not degree[v]:
            heapq.heappush(leaves, v)
    prufer.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    out = workdir / "large"
    out.mkdir()
    for name, edges in (("path_1024", [(v, v + 1) for v in range(1, 1024)]), ("prufer_100", prufer)):
        path = out / f"{name}.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        inputs.append((f"large/{name}", str(path)))
    return inputs


def _worker(src: str, inputs_file: str, result_file: str) -> None:
    # Runs in its own process, with cwd a fresh directory, so the --out
    # path printed in the reports is the same on both sides.
    sys.path.insert(0, src)
    from treespectra import cli

    loaded = Path(cli.__file__).resolve()
    if Path(src).resolve() not in loaded.parents:
        raise SystemExit(f"imported {loaded}, not from {src}")

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return [code, TIMING.sub('"timing_seconds": "*"', out.getvalue()), err.getvalue()]

    results = {}
    for label, path in json.loads(Path(inputs_file).read_text()):
        check = run(["check", path])
        results[f"{label} check"] = check
        results[f"{label} check --text"] = run(["check", path, "--text"])
        q_list = json.loads(check[1])["payload"]["congruence"]["q_list"] if check[0] == 0 else []
        for q in q_list:
            for b in range(q):
                key = f"{label} eigenbasis --q {q} --b {b}"
                argv = ["eigenbasis", path, "--q", str(q), "--b", str(b)]
                results[key] = run(argv)
                results[f"{key} --text"] = run([*argv, "--text"])
                for mode in ("--out", "--text --out"):
                    results[f"{key} {mode}"] = run([*argv, *mode.split(), "basis.csv"])
                    csv = Path("basis.csv")
                    results[f"{key} {mode} basis.csv"] = csv.read_text() if csv.exists() else None
                    csv.unlink(missing_ok=True)
        # One past the largest admissible q is never admissible: its
        # modulus exceeds the largest odd divisor of the pendant gcd.
        q = max(q_list, default=0) + 1
        results[f"{label} eigenbasis --q {q} (inadmissible)"] = run(
            ["eigenbasis", path, "--q", str(q)]
        )
    results["enumerate --max-n 12"] = run(["enumerate", "--max-n", "12"])
    for extra in (["--format", "json"], ["--format", "dot"], ["--filter", "unit_p2"]):
        argv = ["enumerate", "--max-n", "9", *extra]
        results[" ".join(argv)] = run(argv)
    Path(result_file).write_text(json.dumps(results))


def _first_difference(key: str, old, new) -> str:
    if old is None or new is None:
        return f"{key}: present only at {'REV' if new is None else 'the working tree'}"
    if not isinstance(old, list):
        old, new = [None, old, ""], [None, new, ""]
    for part, a, b in zip(("exit code", "output", "stderr"), old, new):
        if a == b:
            continue
        if part == "exit code":
            return f"{key}: exit code {a} at REV, {b} in the working tree"
        for i, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
            if line_a != line_b:
                return (
                    f"{key}: {part} line {i}\n"
                    f"  REV:          {line_a}\n  working tree: {line_b}"
                )
        counts = len(a.splitlines()), len(b.splitlines())
        return f"{key}: {part} has {counts[0]} lines at REV, {counts[1]} in the working tree"
    return f"{key}: differs"


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--worker":
        _worker(*argv[1:])
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (rev,) = argv
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", rev], capture_output=True
        )
        if archive.returncode:
            print(archive.stderr.decode(), end="", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        inputs_file = tmp / "inputs.json"
        inputs_file.write_text(json.dumps(_inputs(tmp)))

        results = {}
        for side, src in (("rev", tmp / "rev" / "src"), ("work", REPO / "src")):
            cwd = tmp / f"cwd-{side}"
            cwd.mkdir()
            result_file = tmp / f"{side}.json"
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--worker",
                 str(src), str(inputs_file), str(result_file)],
                cwd=cwd, env=env, check=True,
            )
            results[side] = json.loads(result_file.read_text())

    old, new = results["rev"], results["work"]
    for key in [*old, *(k for k in new if k not in old)]:
        if old.get(key) != new.get(key):
            print(_first_difference(key, old.get(key), new.get(key)))
            return 1
    print(f"{len(old)} outputs identical at {rev} and in the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
