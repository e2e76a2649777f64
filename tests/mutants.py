#!/usr/bin/env python3
"""Mutation gauntlet: each listed mutant must make its named tests fail.

    python tests/mutants.py

Each mutant in ``MUTANTS`` is a file under ``src/treespectra``, an exact
old text that occurs once in it, the new text that replaces it, and the
test ids that must fail on the result.  The runner copies ``src/`` to a
temporary directory, first runs every named test on the unmutated copy
(they must pass, or a failure would prove nothing), then for each mutant
writes the mutated file, runs only that mutant's tests in one pytest
process against the copy and restores the file.  A mutant is killed when
pytest reports failed tests (exit code 1); it survives when they all pass.
Prints one line per mutant and a summary; exits 0 when every mutant is
killed, 1 when one survives and 2 when a mutant does not apply, the
unmutated tests fail or pytest cannot run them.  Not collected by pytest
(no ``test_`` prefix); ``tests/test_invariants.py`` checks that each old
text still occurs once and each named test still exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/treespectra
    old: str
    new: str
    tests: tuple[str, ...]


CERTIFY_MANY = "tests/test_census.py::TestCertifyMany::"
STACK = "tests/test_numeric.py::TestEigenSymmetricStack::"

MUTANTS = (
    Mutant(
        "halves interleaved per tree",
        "gauntlet.py",
        """    halves = [_exact_half(tree) for tree in trees]
    spectra = numeric.eigen_symmetric(_float_laplacians(trees), tol=tol)
    return [
        _float_half(tree, *half, spectrum) for tree, half, spectrum in zip(trees, halves, spectra)
    ]
""",
        """    return [
        _float_half(
            tree,
            *_exact_half(tree),
            numeric.eigen_symmetric(_float_laplacians([tree]), tol=tol)[0],
        )
        for tree in trees
    ]
""",
        (CERTIFY_MANY + "test_exact_checks_of_the_chunk_run_before_lapack",),
    ),
    Mutant(
        "spectra zipped in reverse",
        "gauntlet.py",
        "zip(trees, halves, spectra)",
        "zip(trees, halves, spectra[::-1])",
        (CERTIFY_MANY + "test_equals_certify_one_at_a_time",),
    ),
    Mutant(
        "the stack's symmetry check dropped",
        "numeric.py",
        '        ("is not symmetric", (stack != stack.transpose(0, 2, 1)).any(axis=(1, 2))),\n',
        "",
        (STACK + "test_rejects_bad_stacks", STACK + "test_one_matrix_messages"),
    ),
    Mutant(
        "tau taken from the whole stack's norm",
        "numeric.py",
        "float(np.linalg.norm(member))",
        "float(np.linalg.norm(stack))",
        (STACK + "test_random_stacks_match_one_matrix_calls",),
    ),
    Mutant(
        "children prepended to the adjacency",
        "census.py",
        "        adjacency[u].append(v)\n",
        "        adjacency[u].insert(0, v)\n",
        ("tests/test_census.py::TestFreeTrees::test_trees_from_levels_equal_the_generic_build",),
    ),
    Mutant(
        "char_poly fed the float Laplacian cast to int",
        "gauntlet.py",
        "exact.char_poly(exact.laplacian(tree))",
        "exact.char_poly(_float_laplacians([tree])[0].astype(int).tolist())",
        ("tests/test_census.py::TestCertify::test_laplacian_built_once_per_certify",),
    ),
    Mutant(
        "Faria's check dropped",
        "gauntlet.py",
        "    if m1_exact < p - quasi:\n",
        "    if False:\n",
        ("tests/test_census.py::TestCertify::test_faria_bound_is_checked_before_the_float_route",),
    ),
)


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    # PYTHONPATH is the copy alone, and no bytecode is written, so a
    # mutated file can never be read from a cache of the unmutated one.
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", "addopts=",
         *tests],
        cwd=REPO, env=env, capture_output=True, text=True,
    )


def _tail(run: subprocess.CompletedProcess) -> str:
    return "\n".join((run.stdout + run.stderr).strip().splitlines()[-15:])


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        baseline = _pytest(src, sorted({test for mutant in MUTANTS for test in mutant.tests}))
        if baseline.returncode != 0:
            print(f"the named tests do not pass unmutated:\n{_tail(baseline)}")
            return 2
        survivors = []
        for mutant in MUTANTS:
            path = src / "treespectra" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: its old text is not once in {mutant.file}")
                return 2
            path.write_text(text.replace(mutant.old, mutant.new))
            began = time.perf_counter()
            try:
                run = _pytest(src, mutant.tests)
            finally:
                path.write_text(text)
            if run.returncode not in (0, 1):
                print(f"{mutant.name}: pytest exited {run.returncode}:\n{_tail(run)}")
                return 2
            verdict = "killed" if run.returncode == 1 else "SURVIVED"
            print(f"{verdict:8}  {mutant.name}  ({time.perf_counter() - began:.1f} s)")
            if run.returncode == 0:
                survivors.append(mutant.name)
    took = time.perf_counter() - start
    print(
        f"{len(MUTANTS)} mutants, {len(MUTANTS) - len(survivors)} killed, "
        f"{len(survivors)} survived, in {took:.1f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
