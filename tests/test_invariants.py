"""Mathematical invariants in the package raise instead of asserting.

An ``assert`` vanishes under ``python -O``; every invariant check raises
``InvariantViolated``, an ``OracleDisagreement``, so the CLI exits 3.
The package sources also carry no unused imports; no linter is installed,
so an AST walk checks it.  Each module's ``__all__`` lists only names it
defines, and the package root exports each of them once, as the same
object, and no module is named like one of them.  ``LAYERS`` names the
package modules each source may import, and the sources import nothing
else but the standard library and numpy.  Other AST walks check
that only ``gauntlet`` compares routes, and reaches them through their
modules, where the benchmark's tracer wraps them; that the brute-force
census and the Gamma witness check name nothing of what they check; and
that every public function is named somewhere in the package outside its
own ``def``, or is listed in ``KEPT`` with the reason it stays public,
and that no command-line flag reads its number with bare ``int`` or
``float``.  Only ``trees._integer``, and the census oracle's copy of it,
decide whether an argument is an integer, and every entry point with an
integer argument reads numpy integers as ints and refuses non-integers.
Every function the benchmark's tracer wraps must exist, and
``census.free_trees``, which it times per item, must stay a generator
function; the demos and the README quickstart must run.  Each mutant of
``tests/mutants.py`` must still apply: its old text once in its file, its
tests still defined.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from mutants import MUTANTS
from shapes import spider

import treespectra
from treespectra import (
    LambdaParam,
    census,
    eigenbasis_extremal,
    exact,
    from_edge_list,
    gauntlet,
    in_gamma,
    minimal_poly_lambda,
    path_between,
    path_eigenpair,
    trees,
)
from treespectra.errors import (
    CapExceeded,
    CongruenceViolated,
    IndexOutOfRange,
    InvariantViolated,
    LabelOutOfRange,
)

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "treespectra"

# Trees whose check breaks on a bogus half-path polynomial x * D_k + 1 in
# place of D_k, keyed by k, with the invariant each one breaks.  The star
# K_{1,3} has modulus 3 (k = 1), where the bogus polynomial has degree 2,
# not phi(3)/2 = 1.  spider(4, 4, 4) has modulus 9 (k = 4), where it
# leaves remainder 1 on division by mu_3 = x - 1.
BOGUS_HALF_PATH = {
    1: ("1 2\n1 3\n1 4\n", LambdaParam(1, 0), "degree 2, not phi"),
    4: (
        "1 2\n2 3\n3 4\n4 5\n1 6\n6 7\n7 8\n8 9\n1 10\n10 11\n11 12\n12 13\n",
        LambdaParam(4, 0),
        "modulus 3 must divide",
    ),
}


def test_no_assert_in_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _all_bindings(path):
    """The module-level statements of a source that bind ``__all__``."""
    return [
        node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in getattr(node, "targets", None) or [node.target]
        )
    ]


def _literal_all(path):
    """The names of a module's ``__all__`` when its one binding is a literal
    list of strings, else None."""
    bindings = _all_bindings(path)
    if len(bindings) != 1 or not isinstance(bindings[0], ast.Assign):
        return None
    value = bindings[0].value
    if isinstance(value, ast.List) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts
    ):
        return [e.value for e in value.elts]
    return None


def _unused_imports(tree, filename):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
                    continue
                # A star import re-exports only in the package root, and only
                # a package module's literal __all__; anywhere else it is
                # reported.
                module = "." * node.level + (node.module or "")
                source = PACKAGE / f"{node.module}.py"
                if not (
                    filename == "__init__.py"
                    and node.level == 1
                    and node.module
                    and source.is_file()
                    and _literal_all(source) is not None
                ):
                    imported[f"* from {module}"] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names __all__ spells out are re-exports, hence used; the rest of a
        # computed __all__ is read off names, which count as used already
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                n.value
                for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _unused_imports(
            ast.parse(path.read_text(), filename=str(path)), path.name
        )
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "filename, source, reported",
    [
        ("__init__.py", "from .census import *\n", []),
        ("cli.py", "from .census import *\n", [(1, "* from .census")]),
        ("__init__.py", "from .nowhere import *\n", [(1, "* from .nowhere")]),
        ("__init__.py", "from numpy import *\n", [(1, "* from numpy")]),
        ("__init__.py", "from . import *\n", [(1, "* from .")]),
        ("__init__.py", "from .census import *\nfrom .census import FILTERS\n", [(2, "FILTERS")]),
        (
            "__init__.py",
            "from . import census, errors, trees\n"
            '__all__ = ["errors"] + [name for name in census.__all__]\n',
            [(1, "trees")],
        ),
    ],
)
def test_unused_imports_reports_star_imports_outside_the_root(filename, source, reported):
    # The package root's star imports of package modules are its re-exports;
    # every other star import, and every unused named one, is reported.  A
    # computed __all__ uses the names it reads and the names it spells out.
    assert _unused_imports(ast.parse(source), filename) == reported


def _public_modules():
    """The names in ``__all__`` of every package module but the root that
    binds it, by module; None where it is not a literal list."""
    return {
        path.stem: _literal_all(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and _all_bindings(path)
    }


def _defined_and_imported(path):
    """Names bound at module level by def, class or assignment, and names
    bound by an import anywhere in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return defined, imported


def test_each_module_all_is_the_root_api():
    # A module's __all__ is the one list of its public names: each name is
    # defined there, and the package root exports it, once, as the same
    # object.  The root exports nothing else but __version__ and errors.
    modules = _public_modules()
    assert {"trees", "exact", "numeric", "construct", "classify", "census"} <= set(modules)
    offenders = []
    for stem, names in modules.items():
        assert names, f"{stem}.py: __all__ is not a literal list of names"
        module = importlib.import_module(f"treespectra.{stem}")
        defined, imported = _defined_and_imported(PACKAGE / f"{stem}.py")
        offenders += [f"{stem}.{name}: not defined there" for name in names if name not in defined]
        offenders += [f"{stem}.{name}: imported there" for name in names if name in imported]
        offenders += [
            f"{stem}.{name}: not the root's"
            for name in names
            if getattr(treespectra, name, None) is not getattr(module, name)
        ]
    assert offenders == []
    exported = ["__version__", "errors", *(name for names in modules.values() for name in names)]
    assert [name for name, count in Counter(exported).items() if count > 1] == []
    assert sorted(treespectra.__all__) == sorted(exported)


def test_root_exports_the_route_comparisons():
    from treespectra import certify_basis, verify_gamma_witness

    assert certify_basis is gauntlet.certify_basis
    assert verify_gamma_witness is gauntlet.verify_gamma_witness


def test_no_module_is_named_like_a_root_export():
    # The root star-imports every module's __all__, so a module named like
    # one of those names would be shadowed by it: with a certify.py beside
    # the certify function, ``import treespectra.certify as m`` binds the
    # function.  Only errors, exported as the module itself, shares a name.
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert sorted(modules & set(treespectra.__all__)) == ["errors"]
    assert treespectra.errors is importlib.import_module("treespectra.errors")


def _imports(path):
    """(module, names) of every import in a package source, relative ones as '.x'."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out.append((module, [alias.name for alias in node.names]))
    return out


# The package modules each source may import from.  None lets it take any
# name; a set names the only names it may take, so ``from . import x``, which
# takes module x whole, breaks that rule.  classify decides from the tree
# alone and takes only LambdaParam from exact; numeric reads matrices, never
# trees, and stays independent of the exact route; census only generates and
# catalogs, and the CLI only parses and serializes, so neither imports a
# route or a decider.
LAYERS = {
    "__init__": dict.fromkeys(
        ["trees", "exact", "numeric", "construct", "classify", "gauntlet", "census", "errors"]
    ),
    "__main__": {"cli": None},
    "errors": {},
    "trees": {"errors": None},
    "exact": {"errors": None, "trees": None},
    "numeric": {"errors": None},
    "classify": {"errors": None, "exact": {"LambdaParam"}, "trees": None},
    "construct": {"classify": None, "errors": None, "exact": None, "trees": None},
    "gauntlet": dict.fromkeys(["classify", "construct", "errors", "exact", "numeric", "trees"]),
    "census": {"errors": None, "gauntlet": None, "trees": None},
    "cli": {
        "__init__": {"__version__"},
        "census": None,
        "errors": None,
        "gauntlet": None,
        "trees": None,
    },
}


def _layering_offenders(path, allowed):
    """The package imports of a source that its row ``allowed`` of LAYERS
    does not permit.  ``from . import x`` imports module x whole when x is a
    package module, and the name x of the package root otherwise."""
    taken = []
    for module, names in _imports(path):
        if module == ".":
            taken += [
                (name, None) if (PACKAGE / f"{name}.py").is_file() else ("__init__", name)
                for name in names
            ]
        elif module.startswith("."):
            taken += [(module[1:], name) for name in names]
    return [
        f"{path.name}: {name or 'all'} from {module}"
        for module, name in taken
        if module not in allowed or allowed[module] is not None and name not in allowed[module]
    ]


def test_each_module_imports_only_its_layers():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sorted(LAYERS) == sorted(path.stem for path in sources)
    assert [line for path in sources for line in _layering_offenders(path, LAYERS[path.stem])] == []


def test_layering_reports_a_forbidden_import(tmp_path):
    # numeric once took the Laplacian from exact; classify may take
    # LambdaParam from exact, but neither another name nor the whole module
    source = tmp_path / "numeric.py"
    source.write_text("from .exact import laplacian\nfrom . import errors, exact\n")
    assert _layering_offenders(source, LAYERS["numeric"]) == [
        "numeric.py: laplacian from exact",
        "numeric.py: all from exact",
    ]
    source = tmp_path / "classify.py"
    source.write_text("from .exact import LambdaParam, laplacian\nfrom . import exact\n")
    assert _layering_offenders(source, LAYERS["classify"]) == [
        "classify.py: laplacian from exact",
        "classify.py: all from exact",
    ]


def test_runtime_imports_are_the_standard_library_and_numpy():
    # pyproject.toml depends on numpy alone, and the package never imports
    # its tests; the CLI, which only parses and serializes, imports no numpy
    offenders = [
        f"{path.name}: {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, _ in _imports(path)
        if not module.startswith(".")
        and module.split(".")[0] not in sys.stdlib_module_names
        and (module.split(".")[0] != "numpy" or path.stem == "cli")
    ]
    assert offenders == []


def test_route_comparisons_live_in_gauntlet():
    # every OracleDisagreement (not its InvariantViolated subclass) is built
    # once, where the routes are compared
    raisers = [
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "OracleDisagreement" in (getattr(node.func, f, None) for f in ("id", "attr"))
    ]
    assert raisers == ["gauntlet.py"]


ORACLE = (
    "_matula_primes",
    "_prufer_tally",
    "_rerootings",
    "_prufer_classes",
    "prufer_count_oracle",
)


def test_census_oracle_names_nothing_of_the_generator():
    # the brute-force census checks the level-sequence generator, so its
    # functions must not call, or even name, any other function or class of
    # census or trees
    generator = {
        node.name
        for module in ("census.py", "trees.py")
        for node in ast.parse((PACKAGE / module).read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } - set(ORACLE)
    assert {"free_trees", "_free_levels", "canonical_levels", "Tree", "_build"} <= generator
    source = (PACKAGE / "census.py").read_text()
    defs = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE
    }
    assert sorted(defs) == sorted(ORACLE)
    named = {
        f"{name}: {getattr(node, 'id', None) or node.attr}"
        for name, fn in defs.items()
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in generator)
        or (isinstance(node, ast.Attribute) and node.attr in generator)
    }
    assert named == set()


def test_cli_flags_read_no_number_with_bare_int_or_float():
    # int and float also read "1_0", "+1", surrounding spaces and other
    # scripts' digits, so every numeric flag has a checked argparse type
    types = [
        keyword.value
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for keyword in node.keywords
        if keyword.arg == "type"
    ]
    assert len(types) >= 5  # --tol twice, --q, --b, --max-n, --jobs
    assert [node.id for node in types if getattr(node, "id", None) in ("int", "float")] == []


# The functions of the package that decide for themselves whether an
# argument is an integer, each with its reason; every other integer argument
# goes through trees._integer.
INTEGER_RULE = {
    "trees._integer": "it is the rule: operator.index, and no bool",
    "census.prufer_count_oracle": "the census oracle names nothing of trees, so it restates the rule",
}


def _integer_test(node):
    """The source of ``node`` if it decides integer-ness: isinstance with int
    or Integral, or operator.index, called or imported; else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        classes = node.args[1:]
        if classes and isinstance(classes[0], ast.Tuple):
            classes = classes[0].elts
        names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes}
        if names & {"int", "Integral"}:
            return ast.unparse(node)
    if isinstance(node, ast.Attribute) and node.attr == "index":
        if getattr(node.value, "id", None) == "operator":
            return ast.unparse(node)
    if isinstance(node, ast.ImportFrom) and node.module == "operator":
        if any(alias.name == "index" for alias in node.names):
            return ast.unparse(node)
    return None


def _integer_tests(path):
    """``module.function: source`` for every integer test in a source, by the
    innermost function or class that holds it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            what = _integer_test(child)
            if what is not None:
                found.append(f"{inner}: {what}")
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_one_integer_rule():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _integer_tests(path)]
    assert sorted({line.split(":")[0] for line in found}) == sorted(INTEGER_RULE), found


def test_integer_rule_reports_a_planted_check(tmp_path):
    source = tmp_path / "exact.py"
    source.write_text(
        "import operator\n"
        "from numbers import Integral\n"
        "from operator import index\n"
        "class LambdaParam:\n"
        "    def __post_init__(self):\n"
        "        if isinstance(q, int) or isinstance(b, (bool, Integral)):\n"
        "            return operator.index(q)\n"
    )
    assert _integer_tests(source) == [
        "exact: from operator import index",
        "exact.LambdaParam.__post_init__: isinstance(q, int)",
        "exact.LambdaParam.__post_init__: isinstance(b, (bool, Integral))",
        "exact.LambdaParam.__post_init__: operator.index",
    ]


# spider(2, 2, 2) has 7 vertices and its pendant pairs lie 4 apart, so q = 2
# is admissible; GAMMA is in Gamma, with the attachment (6,) at 4.
SPIDER = spider(2, 2, 2)
GAMMA = from_edge_list([(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)])


def _witness_as(convert):
    # GAMMA's witness with every label converted and its attachment's family
    # spoiled, so that the message names labels
    witness = in_gamma(GAMMA)[1]
    (att,) = witness.attachments
    att = dataclasses.replace(
        att, anchor=convert(att.anchor), vertices=tuple(map(convert, att.vertices)), family="R"
    )
    return dataclasses.replace(
        witness,
        major=convert(witness.major),
        endpoints=tuple(map(convert, witness.endpoints)),
        attachments=(att,),
    )


# Each public entry point with an integer argument: a call passing each
# such argument through ``convert``, and how it refuses a non-integer (an
# exception type, or the message it returns).
INTEGER_ARGUMENTS = {
    "Tree.bfs": (lambda convert: SPIDER.bfs(convert(1)), LabelOutOfRange),
    "path_between": (
        lambda convert: (path_between(SPIDER, convert(2), 7), path_between(SPIDER, 7, convert(2))),
        LabelOutOfRange,
    ),
    "from_edge_list": (
        lambda convert: from_edge_list([(convert(5), 9), (9, convert(3))]),
        LabelOutOfRange,
    ),
    "LambdaParam": (
        lambda convert: (LambdaParam(convert(2), 1), LambdaParam(3, convert(2))),
        CongruenceViolated,
    ),
    "path_eigenpair": (
        lambda convert: (path_eigenpair(convert(4), 1), path_eigenpair(4, convert(1))),
        IndexOutOfRange,
    ),
    "eigenbasis_extremal": (
        lambda convert: (
            eigenbasis_extremal(SPIDER, convert(2), 1),
            eigenbasis_extremal(SPIDER, 2, convert(1)),
        ),
        CongruenceViolated,
    ),
    "certify_basis": (
        lambda convert: gauntlet.certify_basis(SPIDER, convert(2), convert(1)),
        CongruenceViolated,
    ),
    "verify_gamma_witness": (
        lambda convert: gauntlet.verify_gamma_witness(GAMMA, _witness_as(convert)),
        "a witness label is not a vertex of the tree",
    ),
    "free_trees": (lambda convert: list(census.free_trees(convert(5))), ValueError),
    "build_catalog": (
        lambda convert: (census.build_catalog(convert(4)), census.build_catalog(4, jobs=convert(1))),
        ValueError,
    ),
    "prufer_count_oracle": (lambda convert: census.prufer_count_oracle(convert(6)), CapExceeded),
}

INTEGER_FORMS = {"int64": np.int64, "uint8": np.uint8, "0-d array": np.array}
NON_INTEGERS = {"True": True, "2.5": 2.5, "'3'": "3", "None": None, "float64": np.float64(1.0)}


def _typed(obj):
    """``obj`` with every leaf paired with its type, so == compares types too."""
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return type(obj), tuple(_typed(getattr(obj, f.name)) for f in fields)
    if isinstance(obj, (tuple, list)):
        return type(obj), tuple(map(_typed, obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype, obj.tolist()
    return type(obj), obj


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("form", [*INTEGER_FORMS, *NON_INTEGERS])
def test_integer_arguments(name, form):
    # numpy integers are read as the same int, and non-integers refused as
    # before, at every entry point
    call, refusal = INTEGER_ARGUMENTS[name]
    if form in INTEGER_FORMS:
        assert _typed(call(INTEGER_FORMS[form])) == _typed(call(int))
    elif isinstance(refusal, str):
        assert call(lambda _: NON_INTEGERS[form]) == refusal
    else:
        with pytest.raises(refusal):
            call(lambda _: NON_INTEGERS[form])


def test_labels_checked_once_and_named_as_ints(monkeypatch):
    with pytest.raises(LabelOutOfRange, match=r"^label 9 not in 1\.\.7$"):
        SPIDER.bfs(np.int64(9))
    checked = []
    real = trees._check_label

    def counting(tree, v):
        checked.append(v)
        return real(tree, v)

    monkeypatch.setattr(trees, "_check_label", counting)
    assert path_between(SPIDER, 2, 7) == (2, 1, 6, 7)
    assert checked == [2, 7]  # u by Tree.bfs, v by path_between


def test_witness_check_names_nothing_of_the_decider():
    # verify_gamma_witness checks in_gamma's witness from the definition, so
    # it must not call, or even name, the decider or any helper of classify
    decider = {
        node.name
        for node in ast.parse((PACKAGE / "classify.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    helpers = {"_hung_at", "_judge_leg", "_attachments", "_hung_pieces", "_omega_type"}
    assert {"in_gamma", *helpers} <= decider
    source = (PACKAGE / "gauntlet.py").read_text()
    (fn,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_gamma_witness"
    ]
    named = {
        getattr(node, "id", None) or node.attr
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in decider)
        or (isinstance(node, ast.Attribute) and node.attr in decider)
    }
    assert named == set()


def _traced_table():
    # The benchmark tracer's table of wrapped functions, by module; read
    # without importing the benchmark.
    source = (REPO / "bench" / "tracing.py").read_text()
    (wrapped,) = [
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    return ast.literal_eval(wrapped)


def test_traced_functions_exist():
    # The benchmark's tracer patches these names with getattr, so a
    # renamed or deleted function fails here rather than in a traced run.
    table = _traced_table()
    assert table
    missing = [
        f"treespectra.{module}.{name}"
        for module, names in table.items()
        for name in names
        if not inspect.isfunction(
            getattr(importlib.import_module(f"treespectra.{module}"), name, None)
        )
    ]
    assert missing == []
    # The tracer times a generator function once per item it yields; a
    # free_trees that returned an iterator would stop timing enumeration.
    assert inspect.isgeneratorfunction(census.free_trees)


def test_gauntlet_reaches_traced_functions_through_their_modules():
    # The tracer rebinds a wrapped function only in its layers' namespaces,
    # and gauntlet is none of them: a name bound there by ``from .exact
    # import char_poly`` would escape it, and that function's counters would
    # drop with no other test failing.  So gauntlet imports no traced name
    # and names each one as an attribute of its own module.
    owner = {name: module for module, names in _traced_table().items() for name in names}
    path = PACKAGE / "gauntlet.py"
    bound = [name for _, names in _imports(path) for name in names if name in owner]
    assert bound == []
    named = [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id in owner)
        or (
            isinstance(node, ast.Attribute)
            and node.attr in owner
            and getattr(node.value, "id", None) != owner[node.attr]
        )
    ]
    assert named == []


def _named_outside(name, home):
    # Every place a package module other than ``home`` names ``name``; the
    # package root re-exports it without naming it.
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != home
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ]


def test_path_between_has_no_production_caller():
    # Every path the package walks comes off the parents of one Tree.bfs.
    # path_between stays public: the package root re-exports it, and the
    # benchmark tracer still wraps it.
    assert _named_outside("path_between", "trees.py") == []
    assert "path_between" in treespectra.__all__
    assert "path_between" in _traced_table()["trees"]


def test_rational_nullity_has_no_production_caller():
    # certify and the catalog take m(T,1) from tree_inertia; the dense
    # fraction-free elimination is the reference the tests compare it with.
    # It stays public: the package root re-exports it, and the benchmark
    # tracer still wraps it.
    assert _named_outside("rational_nullity", "exact.py") == []
    assert _named_outside("_bareiss_rank", "exact.py") == []
    assert "rational_nullity" in treespectra.__all__
    assert "rational_nullity" in _traced_table()["exact"]


TRACED = "the benchmark's tracer wraps it"

# The public functions that no package module names, each with the reason
# it stays public.  A row goes once its reason does; the guard below fails
# on a row whose name gained a caller or left the package.
KEPT = {
    "path_between": TRACED,
    "rational_nullity": TRACED,
    "multiplicity_exact": TRACED,
    "free_trees": TRACED,
    "prufer_count_oracle": TRACED,
    "extremal_lambda_set": "it gives the lambda set without running in_gamma",
    "single_vertex": "it is the only constructor of the order-1 tree",
}


def _named_in_package(sources):
    """Every name some source mentions outside the top-level def or class
    of that name: Name and Attribute nodes and import aliases."""
    named = set()
    for path in sources:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            found = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.name)
            named |= found - {getattr(stmt, "name", None)}
    return named


def _uncalled(public, sources):
    """The functions among ``public`` (name -> object) that no source names."""
    named = _named_in_package(sources)
    return sorted(
        name for name, obj in public.items() if inspect.isfunction(obj) and name not in named
    )


def test_every_public_function_has_a_caller_or_a_reason():
    public = {name: getattr(treespectra, name) for name in treespectra.__all__}
    uncalled = _uncalled(public, sorted(PACKAGE.glob("*.py")))
    assert [name for name in uncalled if name not in KEPT] == []
    assert [name for name in KEPT if name not in uncalled] == []  # stale rows
    traced = {name for names in _traced_table().values() for name in names}
    assert [name for name, why in KEPT.items() if (why == TRACED) != (name in traced)] == []
    # certify and the catalog take m(T,1) from tree_inertia; the dense
    # fraction-free elimination is only the reference the tests compare with
    assert _named_outside("_bareiss_rank", "exact.py") == []


def test_uncalled_public_function_is_reported(tmp_path):
    # a module that defines a public function and one that calls itself
    # only: both are reported, and a call from another module clears one
    (tmp_path / "a.py").write_text(
        "def lonely():\n    return 1\n\n\ndef recursive(k):\n    return recursive(k - 1)\n"
    )
    public = {"lonely": lambda: 1, "recursive": lambda k: k, "CAP": 16}
    assert _uncalled(public, [tmp_path / "a.py"]) == ["lonely", "recursive"]
    (tmp_path / "b.py").write_text("from .a import lonely\n")
    assert _uncalled(public, sorted(tmp_path.glob("*.py"))) == ["recursive"]


def test_each_mutant_still_applies():
    # tests/mutants.py replaces each old text in a copy of src/ and runs the
    # named tests; a text that is no longer there exactly once, or a test
    # that is gone, would retire its mutant unnoticed
    for mutant in MUTANTS:
        assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        for test in mutant.tests:
            path, *names = test.split("::")
            source = (REPO / path).read_text()
            for name in names:
                assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), test


def _readme_python_block():
    (block,) = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.DOTALL)
    return block


DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "argv",
    [[str(path)] for path in DEMOS] + [["-c", _readme_python_block()]],
    ids=[path.name for path in DEMOS] + ["README"],
)
def test_examples_run(argv, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_minimal_poly_raises_on_a_broken_invariant(monkeypatch):
    half_path = exact._half_path
    for bad_k, (_, param, message) in BOGUS_HALF_PATH.items():
        def bogus(k, bad_k=bad_k):
            return exact.IntPolynomial(((1,) if k == bad_k else ()) + half_path(k).coeffs)

        monkeypatch.setattr(exact, "_half_path", bogus)
        # minimal polynomials are cached per modulus; compute them afresh
        exact._minimal_poly.cache_clear()
        try:
            with pytest.raises(InvariantViolated, match=message):
                minimal_poly_lambda(param)
        finally:
            exact._minimal_poly.cache_clear()


def test_check_exits_3_under_optimize(tmp_path):
    for bad_k, (edges, _, message) in BOGUS_HALF_PATH.items():
        tree = tmp_path / f"tree{bad_k}.txt"
        tree.write_text(edges)
        script = (
            "import sys\n"
            "from treespectra import exact\n"
            "from treespectra.cli import main\n"
            "half_path = exact._half_path\n"
            "exact._half_path = lambda k: exact.IntPolynomial(\n"
            f"    ((1,) if k == {bad_k} else ()) + half_path(k).coeffs\n"
            ")\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "check", str(tree)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
