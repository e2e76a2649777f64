import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treespectra import cli, construct
from treespectra.census import build_catalog
from treespectra.cli import CSV_HEADER, dumps_report, fmt_float, main

K13 = "# a star\n1 2\n1 3\n1 4\n"
SPIDER112_A = "1 2\n1 3\n1 4\n4 5\n"
SPIDER112_B = "3 1\n3 5\n3 2\n2 4\n"
SPIDER114 = "1 2\n1 3\n1 4\n4 5\n5 6\n6 7\n"


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def spy(monkeypatch, name):
    """The argument tuples of every call to ``cli.<name>``, which still runs."""
    calls = []
    real = getattr(cli, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, recording)
    return calls


class TestFormatting:
    def test_fmt_float(self):
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(2.0) == "2"
        assert fmt_float(1e-16) == "1e-16"

    def test_dumps_sorted_with_newline(self):
        s = dumps_report({"b": 1, "a": 2})
        assert s.startswith('{\n  "a": 2')
        assert s.endswith("\n")


class TestCheck:
    def test_star_json(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "t.txt", K13)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["tool"] == "treespectra"
        assert report["command"] == "check"
        assert report["input"]["n"] == 4
        assert report["input"]["p"] == 3
        payload = report["payload"]
        assert payload["is_extremal"] is True
        assert payload["congruence"]["admissible_moduli"] == [3]
        row, = payload["lambda_set"]
        assert row["ratio"] == "1/3"
        assert float(row["value"]) == pytest.approx(1.0, abs=1e-12)
        assert row["minimal_poly"] == [-1, 1]
        assert row["multiplicity_exact"] == 2
        assert row["multiplicity_numeric"] == 2
        assert payload["m1"]["class"] == "p-1"
        assert payload["oracles"]["agree"] is True

    def test_output_is_byte_stable(self, tmp_path, capsys):
        main(["check", write(tmp_path, "t.txt", K13)])
        out = capsys.readouterr().out
        assert dumps_report(json.loads(out)) == out

    def test_isomorphic_inputs_identical_reports(self, tmp_path, capsys):
        main(["check", write(tmp_path, "a.txt", SPIDER112_A)])
        rep_a = json.loads(capsys.readouterr().out)
        main(["check", write(tmp_path, "b.txt", SPIDER112_B)])
        rep_b = json.loads(capsys.readouterr().out)
        rep_a.pop("timing_seconds")
        rep_b.pop("timing_seconds")
        assert rep_a == rep_b

    def test_text_mode(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "t.txt", K13), "--text"]) == 0
        out = capsys.readouterr().out
        assert "extremal: yes" in out
        assert "m(T,1): class p-1, exact 2" in out

    def test_text_mode_builds_no_envelope(self, tmp_path, capsys, monkeypatch):
        built = spy(monkeypatch, "_envelope")
        f = write(tmp_path, "t.txt", K13)
        assert main(["check", f, "--text"]) == 0
        assert built == []
        assert main(["check", f]) == 0
        assert len(built) == 1

    def test_gamma_witness_in_report(self, tmp_path, capsys):
        main(["check", write(tmp_path, "t.txt", SPIDER112_A)])
        report = json.loads(capsys.readouterr().out)
        witness = report["payload"]["m1"]["gamma_witness"]
        assert witness["omega"] in ("A", "B")
        assert len(witness["endpoints"]) == 3


REPORTS = Path(__file__).parent / "data" / "reports"


@pytest.mark.parametrize("name", sorted(path.stem for path in REPORTS.glob("*.edges")))
def test_check_reports_match_committed_outputs(name, capsys):
    # tests/data/reports holds `check --text` and the `check` JSON of six
    # small trees, one per verdict class, of spider(7,7,7), whose
    # composite modulus 15 gives seven lambda rows over three minimal
    # polynomials, and of the two-major double broom.  The JSON leaves out `spectrum`,
    # whose digits come from LAPACK and can differ across platforms, and
    # `timing_seconds`; every other field is promised byte-stable.
    edges = str(REPORTS / f"{name}.edges")
    assert main(["check", edges, "--text"]) == 0
    assert capsys.readouterr().out == (REPORTS / f"{name}.check.txt").read_text()
    assert main(["check", edges]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing_seconds"], report["payload"]["spectrum"]
    assert dumps_report(report) == (REPORTS / f"{name}.check.json").read_text()


@pytest.mark.parametrize(
    "name, q, b",
    [
        ("spider114", 1, 0),
        ("spider222", 2, 0),
        ("spider222", 2, 1),
        ("spider777", 1, 0),
        ("spider777", 2, 0),
        ("spider777", 7, 0),
        ("star4", 1, 0),
        ("doublebroom22", 1, 0),
    ],
)
def test_eigenbasis_reports_match_committed_outputs(name, q, b, capsys):
    # The `eigenbasis` JSON of committed trees, its trace block included.
    # In doublebroom22 the second glue step runs a leg on through a major.
    # The JSON leaves out `vectors` and `residuals`, whose digits come from
    # libm and BLAS, and `timing_seconds`.
    edges = str(REPORTS / f"{name}.edges")
    assert main(["eigenbasis", edges, "--q", str(q), "--b", str(b)]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing_seconds"], report["payload"]["vectors"], report["payload"]["residuals"]
    expected = (REPORTS / f"{name}.eigenbasis-q{q}-b{b}.json").read_text()
    assert dumps_report(report) == expected


def test_oracles_block_repeats_the_agreed_values():
    # any disagreement withholds the report with exit 3, so a written
    # report's oracles block says what the other fields already say
    reports = sorted(REPORTS.glob("*.check.json"))
    assert reports
    for path in reports:
        payload = json.loads(path.read_text())["payload"]
        oracles = payload["oracles"]
        assert oracles["numeric_cluster_reaches_p_minus_1"] == payload["is_extremal"], path.name
        assert oracles["m1_numeric"] == payload["m1"]["exact"], path.name
        assert oracles["agree"] is True, path.name


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/tree.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "t.txt", "1 2 3\n")]) == 2

    def test_cycle(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "t.txt", "1 2\n2 3\n3 1\n")]) == 2

    def test_empty_file(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "t.txt", "# nothing\n")]) == 2

    def test_eigenbasis_on_path(self, tmp_path, capsys):
        f = write(tmp_path, "p.txt", "1 2\n2 3\n3 4\n4 5\n5 6\n")
        assert main(["eigenbasis", f, "--q", "1"]) == 2

    def test_eigenbasis_wrong_residue(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", SPIDER114)
        assert main(["eigenbasis", f, "--q", "2"]) == 2

    def test_argparse_errors(self, capsys):
        assert main([]) == 2
        assert main(["check"]) == 2
        assert main(["--help"]) == 0

    def test_parser_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        # repeated calls reuse one parser, with the same exit codes and stderr
        constructed = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        f = write(tmp_path, "t.txt", K13)
        calls = (
            ["check", f],
            ["check"],
            ["eigenbasis", f, "--q", "x"],
            ["enumerate", "--max-n", "3", "--jobs", "0"],
            ["check", "/nonexistent/tree.txt"],
        )
        rounds = []
        for _ in range(3):
            outcomes = []
            for argv in calls:
                code = main(argv)
                outcomes.append((code, capsys.readouterr().err))
            rounds.append(outcomes)
        # one top-level parser and one per subcommand, all in the first round
        assert constructed == [
            "treespectra",
            "treespectra check",
            "treespectra eigenbasis",
            "treespectra enumerate",
        ]
        assert [code for code, _ in rounds[0]] == [0, 2, 2, 2, 2]
        assert rounds[0] == rounds[1] == rounds[2]

    def test_bad_tol_is_2(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", SPIDER114)
        for command in (["check", f], ["enumerate", "--max-n", "4"]):
            for value in (
                *("nan", "inf", "-inf", "-1"),
                *("1_0", "\u0661e-12", " 1e-12", "1e-12\u00a0"),  # float() alone reads these
            ):
                assert main([*command, f"--tol={value}"]) == 2
                err = capsys.readouterr().err
                assert "--tol" in err
                assert "Traceback" not in err
            assert main([*command, "--tol", "0"]) == 0
        # eigenbasis clusters no eigenvalues, so it takes no --tol at all
        for value in ("nan", "inf", "-inf", "-1", "0"):
            assert main(["eigenbasis", f, "--q", "1", f"--tol={value}"]) == 2
            err = capsys.readouterr().err
            assert "--tol" in err
            assert "Traceback" not in err

    def test_bad_jobs_is_2(self, capsys):
        for value in ("0", "-3", "two", "1.5", "1_0", "\u0662", "+1", " 1"):
            assert main(["enumerate", "--max-n", "4", f"--jobs={value}"]) == 2
            err = capsys.readouterr().err
            assert "--jobs" in err
            assert "Traceback" not in err

    def test_bad_max_n_is_2(self, capsys):
        # below order 1 there is nothing to catalog: rejected like --jobs 0,
        # and so is any form but ASCII digits, which int() alone would read
        for value in ("0", "-3", "0_4", "\u0664", "+4", " 4"):
            assert main(["enumerate", f"--max-n={value}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--max-n: must be an integer >= 1" in captured.err
            assert "Traceback" not in captured.err

    def test_too_long_integer_flags_are_2(self, tmp_path, capsys):
        # more digits than int() converts: the message names the flag and
        # says why, not argparse's "invalid <type function> value"
        f = write(tmp_path, "t.txt", SPIDER114)
        long = "9" * 5000
        for flag, argv in (
            ("--q", ["eigenbasis", f, "--q", long]),
            ("--b", ["eigenbasis", f, "--q", "1", "--b", long]),
            ("--max-n", ["enumerate", "--max-n", long]),
            ("--jobs", ["enumerate", "--max-n", "4", "--jobs", long]),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {flag}: value too long (5000 digits)" in captured.err
            assert "invalid _" not in captured.err
            assert "Traceback" not in captured.err

    def test_bad_q_and_b_are_2(self, tmp_path, capsys):
        # ASCII digits only, as in edge lists: int() alone would read the rest
        f = write(tmp_path, "t.txt", SPIDER114)
        for value in ("1_0", "\u0663", "+1", " 1", "-1", "1.0", ""):
            for flag, argv in (("--q", ["--q", value]), ("--b", ["--q", "1", "--b", value])):
                assert main(["eigenbasis", f, *argv]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"argument {flag}: must be digits 0-9" in captured.err
                assert "Traceback" not in captured.err

    def test_oracle_disagreement_is_3(self, tmp_path, capsys, monkeypatch):
        # A numeric route that finds no eigenvalue anywhere disagrees with
        # the exact routes inside certify, which check and enumerate share.
        monkeypatch.setattr("treespectra.numeric.cluster_multiplicity", lambda spectrum, value: -1)
        f = write(tmp_path, "t.txt", K13)
        for command in (["check", f], ["enumerate", "--max-n", "4"]):
            assert main(command) == 3
            err = capsys.readouterr().err
            assert "oracle disagreement" in err
            assert "offending edges" in err
            assert "numeric -1" in err


class TestEigenbasis:
    def test_json_with_csv_out(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", SPIDER114)
        out = tmp_path / "basis.csv"
        assert main(["eigenbasis", f, "--q", "1", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        payload = report["payload"]
        assert payload["count"] == 2
        assert payload["rank"] == 2
        assert all(float(r) < 1e-10 for r in payload["residuals"])
        assert len(payload["vectors"]) == 2
        assert len(payload["vectors"][0]) == 7
        assert payload["trace"]["gamma"] == "1/3"
        lines = out.read_text().splitlines()
        assert lines[0] == "vector," + ",".join(f"v{i}" for i in range(1, 8))
        assert len(lines) == 3
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_text_mode(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", K13)
        assert main(["eigenbasis", f, "--q", "1", "--text"]) == 0
        out = capsys.readouterr().out
        assert "vectors: 2, rank 2" in out

    def test_text_mode_with_csv_out(self, tmp_path, capsys):
        f = write(tmp_path, "t.txt", SPIDER114)
        out = tmp_path / "basis.csv"
        assert main(["eigenbasis", f, "--q", "1", "--text", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["vectors: 2, rank 2", lines[2], f"written to {out}"]
        assert len(out.read_text().splitlines()) == 3

    def test_text_mode_formats_two_values_and_builds_no_report(
        self, tmp_path, capsys, monkeypatch
    ):
        # lambda and the largest residual; no vector entry and no JSON report
        formatted = spy(monkeypatch, "fmt_float")
        built = [spy(monkeypatch, name) for name in ("_envelope", "dumps_report", "asdict")]
        assert main(["eigenbasis", write(tmp_path, "t.txt", SPIDER114), "--q", "1", "--text"]) == 0
        assert len(formatted) == 2
        assert built == [[], [], []]

    def test_csv_rows_are_the_payload_vectors(self, tmp_path, capsys, monkeypatch):
        # --out formats no entry beyond those of the JSON payload
        f = write(tmp_path, "t.txt", SPIDER114)
        formatted = spy(monkeypatch, "fmt_float")
        assert main(["eigenbasis", f, "--q", "1"]) == 0
        without_out = len(formatted)
        capsys.readouterr()
        formatted.clear()
        out = tmp_path / "basis.csv"
        assert main(["eigenbasis", f, "--q", "1", "--out", str(out)]) == 0
        assert len(formatted) == without_out
        vectors = json.loads(capsys.readouterr().out)["payload"]["vectors"]
        rows = out.read_text().splitlines()[1:]
        assert rows == [f"{i}," + ",".join(v) for i, v in enumerate(vectors, start=1)]

    def test_json_copies_no_record(self, tmp_path, capsys, monkeypatch):
        # path records and glue steps are written as their fields
        copied = spy(monkeypatch, "asdict")
        assert main(["eigenbasis", write(tmp_path, "t.txt", SPIDER114), "--q", "1"]) == 0
        assert copied == []
        trace = json.loads(capsys.readouterr().out)["payload"]["trace"]
        assert trace["glue_steps"] == [
            {"pendant_pair": [4, 6], "anchor": 5, "component": [5, 6, 7]}
        ]

    @pytest.mark.parametrize(
        "spoil, quantity",
        [
            (lambda vectors: [vectors[0][::-1], *vectors[1:]], "residual is 2,"),
            (lambda vectors: [vectors[0], vectors[0], *vectors[2:]], "rank is 1,"),
        ],
        ids=["reversed", "duplicated"],
    )
    def test_failed_certificate_is_3(self, tmp_path, capsys, monkeypatch, spoil, quantity):
        real = construct._peel_basis

        def spoiled(*args):
            vectors, records, steps = real(*args)
            return spoil(vectors), records, steps

        monkeypatch.setattr(construct, "_peel_basis", spoiled)
        assert main(["eigenbasis", write(tmp_path, "t.txt", SPIDER114), "--q", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"oracle disagreement: eigenbasis {quantity}" in captured.err
        assert "offending edges" in captured.err

    def test_star_of_1200_leaves(self, tmp_path, capsys):
        # one peel step per leaf, far past the interpreter's recursion limit
        f = write(tmp_path, "star.txt", "".join(f"1 {v}\n" for v in range(2, 1202)))
        assert main(["eigenbasis", f, "--q", "1", "--text"]) == 0
        assert "vectors: 1199, rank 1199" in capsys.readouterr().out


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI run, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_input_handled(path, codes=(2,)):
    """``check`` and ``eigenbasis`` end in one of ``codes``, never a traceback."""
    for argv in (["check", path], ["eigenbasis", path, "--q", "1"]):
        code, err = run_cli(argv)
        assert code in codes, (argv, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ")


MALFORMED = {
    "bad_bytes.txt": b"1 2\n\xff\xfe 3\n",
    "latin1.txt": "1 2\n2 3 # caf\xe9\n".encode("latin-1"),
    "empty.txt": b"",
    "blank.txt": b"\n  \n\t\n",
    "self_loop.txt": b"1 2\n2 2\n",
    "duplicate.txt": b"1 2\n2 3\n3 2\n",
    "cycle.txt": b"1 2\n2 3\n3 1\n",
    "disconnected.txt": b"1 2\n3 4\n",
    "non_integer.txt": b"1 2\n2 x\n",
    "float_label.txt": b"1 2\n2 3.5\n",
    "zero_label.txt": b"0 1\n",
    "negative_label.txt": b"1 2\n-2 3\n",
    "one_token.txt": b"1\n",
    "huge_label.txt": b"1 " + b"9" * 5000 + b"\n",
}


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_2_without_traceback(self, tmp_path, name):
        f = tmp_path / name
        f.write_bytes(MALFORMED[name])
        assert_input_handled(str(f))

    def test_directory_and_missing_file(self, tmp_path):
        assert_input_handled(str(tmp_path))
        assert_input_handled(str(tmp_path / "missing.txt"))

    def test_undecodable_file_as_a_process(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_bytes(MALFORMED["bad_bytes.txt"])
        proc = subprocess.run(
            [sys.executable, "-m", "treespectra", "check", str(f)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @settings(
        derandomize=True,
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.one_of(
            st.binary(max_size=80),
            st.text(max_size=80),
            # mostly well-formed lines over few labels, so trees, cycles,
            # duplicates and forests all come up
            st.lists(
                st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=12
            ).map(lambda pairs: "".join(f"{u} {v}\n" for u, v in pairs)),
        )
    )
    def test_generated_inputs(self, data):
        raw = data if isinstance(data, bytes) else data.encode("utf-8")
        with tempfile.TemporaryDirectory() as d:
            f = Path(d) / "t.txt"
            f.write_bytes(raw)
            assert_input_handled(str(f), codes=(0, 2))


class TestEnumerate:
    def test_csv_stdout(self, capsys):
        assert main(["enumerate", "--max-n", "4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert "5 entries" in captured.err

    def test_json_catalog(self, capsys):
        assert main(["enumerate", "--max-n", "4", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "enumerate"
        assert report["input"] is None
        assert report["payload"]["count"] == 5
        names = [e["name"] for e in report["payload"]["entries"]]
        assert "K_{1,3}" in names

    def test_filter_extremal(self, capsys):
        assert main(["enumerate", "--max-n", "5", "--filter", "extremal",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(e["extremal"] for e in report["payload"]["entries"])

    def test_dot_directory(self, tmp_path, capsys):
        assert main(["enumerate", "--max-n", "3", "--format", "dot",
                     "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("tree_n*.dot"))
        assert len(files) == 3
        assert files[0].read_text().startswith("graph t")

    def test_dot_directory_renders_each_entry_once(self, tmp_path, capsys, monkeypatch):
        # the files hold the blocks printed on stdout, one render per entry
        assert main(["enumerate", "--max-n", "5", "--format", "dot"]) == 0
        blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
        calls = []
        real = cli._entry_dot

        def counting(entry, index):
            calls.append(index)
            return real(entry, index)

        monkeypatch.setattr(cli, "_entry_dot", counting)
        assert main(["enumerate", "--max-n", "5", "--format", "dot",
                     "--out", str(tmp_path)]) == 0
        assert calls == list(range(1, len(blocks) + 1))
        files = sorted(tmp_path.glob("tree_n*.dot"), key=lambda f: f.stem[-4:])
        assert [f.read_text() for f in files] == [b + "\n" for b in blocks]

    def test_json_copies_no_entry(self, capsys, monkeypatch):
        # entries are written as their fields, the same JSON as asdict gives
        copied = spy(monkeypatch, "asdict")
        assert main(["enumerate", "--max-n", "6", "--format", "json"]) == 0
        assert copied == []
        entries = json.loads(capsys.readouterr().out)["payload"]["entries"]
        expected = [dataclasses.asdict(e) for e in build_catalog(6)]
        assert entries == json.loads(json.dumps(expected))

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "catalog.csv"
        assert main(["enumerate", "--max-n", "4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_cap(self, capsys):
        assert main(["enumerate", "--max-n", "17"]) == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "treespectra", "enumerate", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER
    assert len(proc.stdout.splitlines()) == 4
