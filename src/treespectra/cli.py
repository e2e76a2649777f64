"""Command-line front end.

Three subcommands: ``check`` (full verdict for one tree), ``eigenbasis``
(construct and certify the p-1 eigenvectors), ``enumerate`` (cross-checked
catalog of all small trees).  Input trees arrive as edge-list text files;
every report first relabels the tree canonically so isomorphic inputs
produce identical output.  This module only parses and serializes: every
verdict and cross-check comes from :mod:`treespectra.gauntlet`.

JSON output is byte-stable: floating values are rendered as 15-significant-
digit strings, rationals as "num/den" strings, polynomials as integer
coefficient arrays (low degree first), and keys are emitted sorted.  Exit
codes: 0 success, 2 bad input or parameters, 3 oracle disagreement
(including an eigenbasis whose rank or residuals fail its certificate).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, gauntlet
from .census import FILTERS, ORDER_CAP, build_catalog, canonical_relabel
from .errors import OracleDisagreement, ParseError, TreeSpectraError
from .trees import _ascii_digits, from_edge_list, parse_edge_list_text

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Canonical 15-significant-digit rendering used in all reports."""
    return "%.15g" % float(x)


def dumps_report(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_tree(path: str):
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not text ({exc.reason} at byte {exc.start})") from None
    return from_edge_list(parse_edge_list_text(text))


def _envelope(command: str, parameters: dict, tree, payload: dict, started: float) -> dict:
    if tree is not None:
        echo = {
            "n": tree.n,
            "p": len(tree.pendants),
            "edges": [[u, v] for u, v in tree.edges],
        }
    else:
        echo = None
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "treespectra",
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "input": echo,
        "payload": payload,
        "timing_seconds": fmt_float(time.perf_counter() - started),
    }


def _check_payload(tree, tol: float) -> dict:
    cert = gauntlet.certify(tree, tol)
    report = cert.report
    spectrum = cert.spectrum
    lambda_rows = [
        {
            "q": row.param.q,
            "b": row.param.b,
            "ratio": str(row.param.ratio),
            "value": fmt_float(row.param.value),
            "minimal_poly": list(row.minimal_poly.coeffs),
            "multiplicity_exact": row.exact,
            "multiplicity_numeric": row.numeric,
        }
        for row in cert.lambda_rows
    ]
    congruence = report.certificate
    witness = report.gamma_witness
    return {
        "congruence": {
            "g": congruence.g,
            "admissible_moduli": list(congruence.admissible_moduli),
            "q_list": list(congruence.q_list),
            "is_path": congruence.is_path,
        },
        "is_extremal": report.extremal,
        "lambda_set": lambda_rows,
        "m1": {
            "exact": cert.m1_exact,
            "class": report.m1_class,
            "gamma_witness": asdict(witness) if witness else None,
        },
        "oracles": {
            "numeric_cluster_reaches_p_minus_1": cert.reaches_p_minus_1,
            "m1_numeric": cert.m1_numeric,
            "agree": True,
        },
        "spectrum": {
            "eigenvalues": [fmt_float(x) for x in spectrum.eigenvalues],
            "clusters": [[fmt_float(rep), mult] for rep, mult in spectrum.clusters],
            "tau": fmt_float(spectrum.tau),
        },
    }


def _check_text(payload: dict, tree) -> str:
    lines = []
    cong = payload["congruence"]
    lines.append(f"tree: n={tree.n} (canonical labels)")
    lines.append(
        "congruence: g={g} moduli={m} q={q} path={p}".format(
            g=cong["g"],
            m=cong["admissible_moduli"],
            q=cong["q_list"],
            p="yes" if cong["is_path"] else "no",
        )
    )
    lines.append("extremal: " + ("yes" if payload["is_extremal"] else "no"))
    for row in payload["lambda_set"]:
        lines.append(
            "lambda {ratio} = {value} (q={q}, b={b}): exact mult {em}, "
            "numeric mult {nm}, minimal poly {mp}".format(
                ratio=row["ratio"],
                value=row["value"],
                q=row["q"],
                b=row["b"],
                em=row["multiplicity_exact"],
                nm=row["multiplicity_numeric"],
                mp=row["minimal_poly"],
            )
        )
    m1 = payload["m1"]
    lines.append(f"m(T,1): class {m1['class']}, exact {m1['exact']}")
    if m1["gamma_witness"]:
        w = m1["gamma_witness"]
        lines.append(
            f"core witness: major {w['major']}, endpoints {list(w['endpoints'])}, "
            f"type {w['omega']}, {len(w['attachments'])} attachment(s)"
        )
    lines.append("oracles: all routes agree")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    started = time.perf_counter()
    tree = canonical_relabel(_load_tree(args.input))
    payload = _check_payload(tree, args.tol)
    if args.text:
        sys.stdout.write(_check_text(payload, tree))
    else:
        envelope = _envelope("check", {"tol": fmt_float(args.tol)}, tree, payload, started)
        sys.stdout.write(dumps_report(envelope))
    return 0


def cmd_eigenbasis(args) -> int:
    started = time.perf_counter()
    tree = canonical_relabel(_load_tree(args.input))
    basis = gauntlet.certify_basis(tree, args.q, args.b)
    ratio, value = str(basis.param.ratio), fmt_float(basis.param.value)
    # Each entry is formatted once, shared by the JSON payload and the CSV.
    vectors = basis.vectors if args.out or not args.text else ()
    rows = [[fmt_float(x) for x in vector] for vector in vectors]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(",".join(["vector", *(f"v{i}" for i in range(1, tree.n + 1))]) + "\n")
            fh.writelines(f"{idx},{','.join(row)}\n" for idx, row in enumerate(rows, 1))

    if args.text:
        lines = [
            f"lambda = {value} (ratio {ratio})",
            f"vectors: {len(basis.vectors)}, rank {basis.rank}",
            f"max residual: {fmt_float(max(basis.residuals))}",
        ]
        if args.out:
            lines.append(f"written to {args.out}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    payload = {
        "q": args.q,
        "b": args.b,
        "ratio": ratio,
        "lambda": value,
        "count": len(basis.vectors),
        "rank": basis.rank,
        "residuals": [fmt_float(r) for r in basis.residuals],
        "vectors": rows,
        "trace": {
            "gamma": ratio,
            "path_records": [vars(r) for r in basis.path_records],
            "glue_steps": [vars(s) for s in basis.glue_steps],
        },
    }
    if args.out:
        payload["out"] = args.out
    envelope = _envelope("eigenbasis", {"q": args.q, "b": args.b}, tree, payload, started)
    sys.stdout.write(dumps_report(envelope))
    return 0


CSV_HEADER = "n,canonical,name,p,extremal,lambda_ratios,m1_class,m1_exact,edges"


def entry_csv_row(entry) -> str:
    edges = ";".join(f"{u}-{v}" for u, v in entry.edges)
    ratios = "|".join(entry.lambda_ratios)
    name = entry.name.replace(",", ";")
    return (
        f"{entry.n},\"{entry.canonical}\",\"{name}\",{entry.p},"
        f"{'true' if entry.extremal else 'false'},{ratios},"
        f"{entry.m1_class},{entry.m1_exact},{edges}"
    )


def _entry_dot(entry, index: int) -> str:
    label = f"{entry.name or 'tree'} | n={entry.n} p={entry.p}"
    if entry.extremal:
        label += " | extremal"
    label += f" | m1={entry.m1_class}"
    lines = [f"graph t{entry.n}_{index:04d} {{", f'  label="{label}";']
    if entry.n == 1:
        lines.append("  1;")
    for u, v in entry.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


def cmd_enumerate(args) -> int:
    started = time.perf_counter()
    entries = build_catalog(args.max_n, args.filter, jobs=args.jobs, tol=args.tol)

    if args.format == "csv":
        body = CSV_HEADER + "\n" + "".join(entry_csv_row(e) + "\n" for e in entries)
    elif args.format == "dot":
        blocks = [_entry_dot(e, i) for i, e in enumerate(entries, 1)]
        body = "\n\n".join(blocks) + "\n"
    else:
        parameters = {
            "max_n": args.max_n,
            "filter": args.filter,
            "format": args.format,
            "jobs": args.jobs,
            "tol": fmt_float(args.tol),
        }
        payload = {"count": len(entries), "entries": [vars(e) for e in entries]}
        body = dumps_report(_envelope("enumerate", parameters, None, payload, started))

    if args.out:
        out = Path(args.out)
        if args.format == "dot" and out.is_dir():
            for i, (entry, block) in enumerate(zip(entries, blocks), 1):
                (out / f"tree_n{entry.n}_{i:04d}.dot").write_text(block + "\n")
        else:
            out.write_text(body)
        sys.stderr.write(f"{len(entries)} entries written to {args.out}\n")
    else:
        sys.stdout.write(body)
        sys.stderr.write(f"{len(entries)} entries\n")
    return 0


_TOL_HELP = (
    "clustering tolerance: eigenvalues closer than tau = max(1e-8, 1e3*tol*||L||_F) "
    "form one cluster (finite, >= 0)"
)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float >= 0, in ASCII without ``_`` or spaces."""
    try:
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _digits(text: str) -> int:
    """argparse type for --q and --b: ASCII digits 0-9, as edge-list labels."""
    if not _ascii_digits(text):
        raise argparse.ArgumentTypeError(f"must be digits 0-9, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"value too long ({len(text)} digits)") from None


def _positive_int(text: str) -> int:
    """argparse type for --max-n and --jobs: ASCII digits 0-9, at least 1."""
    value = _digits(text) if _ascii_digits(text) else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared.

    Parsing reads the parser and never changes it, so every call to
    :func:`main` can reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="treespectra",
        description="Certificates for trees whose Laplacian reaches the "
        "maximal eigenvalue multiplicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode_flags(p):
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", action="store_true", help="JSON report (default)")
        mode.add_argument("--text", action="store_true", help="human-readable report")

    p_check = sub.add_parser("check", help="classify one tree from an edge-list file")
    p_check.add_argument("input", help="edge-list file: one 'u v' pair per line")
    p_check.add_argument("--tol", type=_tolerance, default=1e-12, help=_TOL_HELP)
    add_mode_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_basis = sub.add_parser(
        "eigenbasis", help="construct the p-1 eigenvectors for one extremal eigenvalue"
    )
    p_basis.add_argument("input", help="edge-list file: one 'u v' pair per line")
    p_basis.add_argument("--q", type=_digits, required=True, help="modulus parameter, 2q+1 >= 3")
    p_basis.add_argument("--b", type=_digits, default=0, help="branch index in [0, q)")
    p_basis.add_argument("--out", help="write vectors as CSV to this file")
    add_mode_flags(p_basis)
    p_basis.set_defaults(func=cmd_eigenbasis)

    p_enum = sub.add_parser("enumerate", help="catalog all trees up to an order")
    p_enum.add_argument(
        "--max-n", type=_positive_int, required=True, help=f"largest order, 1..{ORDER_CAP}"
    )
    p_enum.add_argument("--filter", choices=FILTERS, default="all")
    p_enum.add_argument("--format", choices=("csv", "json", "dot"), default="csv")
    p_enum.add_argument("--out", help="output file (or directory for dot)")
    p_enum.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (>= 1), capped at the CPU count",
    )
    p_enum.add_argument("--tol", type=_tolerance, default=1e-12, help=_TOL_HELP)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except OracleDisagreement as exc:
        sys.stderr.write(f"oracle disagreement: {exc}\n")
        if exc.edges:
            sys.stderr.write(f"offending edges: {list(exc.edges)}\n")
        return 3
    except (TreeSpectraError, OSError) as exc:  # bad input, parameters or files
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
