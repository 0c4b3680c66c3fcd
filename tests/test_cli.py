import codecs
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import invsub
from invsub import analyzer, cli
from invsub.cli import (
    QUOTE_CHARS,
    SPECTRUM_MAX_N,
    TABLE_MAX_N,
    MatrixInputError,
    cmd_spectrum,
    cmd_table,
    main,
    parse_matrix_document,
)
from invsub.combinatorics import partition_count
from invsub.exactalg import RationalMatrix
from invsub.spectrum import (
    BlockConfig,
    SpectrumSet,
    attainable_counts,
    attainable_counts_bruteforce,
)

from _oracles import OFF_GRAMMAR_TOKENS, read_token, table_rows

ROW = re.compile(r"^  \((?P<parts>[0-9, ]+)\) -> (?P<count>\d+)$")


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSpectrumCommand:
    def test_text_line_for_n4(self, capsys):
        status, out, _ = run(capsys, "spectrum", "4")
        assert status == 0
        assert out == "M_4 = {3, 4, 5, 6, 8, 9, 12, 16}\n"

    def test_text_line_for_n1(self, capsys):
        status, out, _ = run(capsys, "spectrum", "1")
        assert status == 0
        assert out == "M_1 = {2}\n"

    def test_text_joins_every_count_up_to_40(self):
        # the text form prints the counts in one piece; n = 1 has one value
        for n in range(1, 41):
            expected = f"M_{n} = {{{', '.join(map(str, attainable_counts(n)))}}}"
            assert cmd_spectrum(n, "text") == expected

    def test_json_round_trips_for_small_n(self, capsys):
        for n in range(1, 13):
            status, out, _ = run(capsys, "spectrum", str(n), "--format", "json")
            assert status == 0
            document = json.loads(out)
            assert document["command"] == "spectrum"
            assert document["input"] == {"n": n}
            parsed = [int(v) for v in document["result"]["values"]]
            assert parsed == list(attainable_counts(n))

    def test_rejects_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "0"])
        assert excinfo.value.code == 2

    def test_rejects_above_maximum(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "65"])
        assert excinfo.value.code == 2

    def test_maximum_can_be_lowered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "10", "--max-n", "5"])
        assert excinfo.value.code == 2

    def test_large_values_render_exactly(self, capsys):
        status, out, _ = run(capsys, "spectrum", "30", "--format", "json")
        assert status == 0
        values = json.loads(out)["result"]["values"]
        assert values[-1] == str(2**30)

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.txt"
        status, out, _ = run(capsys, "spectrum", "4", "--output", str(target))
        assert status == 0
        assert out == ""
        assert target.read_text() == "M_4 = {3, 4, 5, 6, 8, 9, 12, 16}\n"


def _rows(n: int) -> int:
    # one table row per configuration: a partition of r for the conjugate
    # pairs and one of n - 2r for the real roots
    return sum(
        partition_count(r) * partition_count(n - 2 * r) for r in range(n // 2 + 1)
    )


class TestTableCommand:
    def test_n4_rows_match_reference(self, capsys):
        status, out, _ = run(capsys, "table", "4")
        assert status == 0
        rows = [ROW.match(line) for line in out.splitlines() if ROW.match(line)]
        parsed = [
            (tuple(int(p) for p in m["parts"].split(", ")), int(m["count"]))
            for m in rows
        ]
        assert parsed == [
            ((0, 4), 5),
            ((0, 3, 1), 8),
            ((0, 2, 2), 9),
            ((0, 2, 1, 1), 12),
            ((0, 1, 1, 1, 1), 16),
            ((1, 2), 6),
            ((1, 1, 1), 8),
            ((2, 0), 3),
            ((1, 1, 0), 4),
        ]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_oracle_rows(self, n):
        groups = table_rows(n)
        lines = [f"n = {n}"]
        for r, s, rows in groups:
            lines.append(f"r = {r}, s = {s}:")
            for shown, count in rows:
                lines.append(f"  ({', '.join(map(str, shown))}) -> {count}")
        assert cmd_table(n, "text") == "\n".join(lines)
        document = json.loads(cmd_table(n, "json"))
        assert document["result"]["groups"] == [
            {
                "r": r,
                "s": s,
                "rows": [
                    {"composition": list(shown), "count": str(count)}
                    for shown, count in rows
                ],
            }
            for r, s, rows in groups
        ]

    def test_group_headers(self, capsys):
        _, out, _ = run(capsys, "table", "4")
        assert "r = 0, s = 4:" in out
        assert "r = 1, s = 2:" in out
        assert "r = 2, s = 0:" in out

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_products_recover_spectrum(self, capsys, n):
        status, out, _ = run(capsys, "table", str(n), "--format", "json")
        assert status == 0
        document = json.loads(out)
        products = {
            int(row["count"])
            for group in document["result"]["groups"]
            for row in group["rows"]
        }
        assert sorted(products) == list(attainable_counts(n))

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_prints_one_row_per_configuration(self, capsys, n):
        _, out, _ = run(capsys, "table", str(n))
        assert sum(1 for line in out.splitlines() if ROW.match(line)) == _rows(n)

    def test_default_limit_bounds_the_row_count(self):
        assert TABLE_MAX_N < SPECTRUM_MAX_N
        assert _rows(TABLE_MAX_N) == 468_342
        assert _rows(SPECTRUM_MAX_N) == 51_491_111

    def test_rejects_above_its_own_default(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", str(TABLE_MAX_N + 1)])
        assert excinfo.value.code == 2
        status, out, _ = run(capsys, "spectrum", str(TABLE_MAX_N + 1))
        assert status == 0
        assert out.startswith(f"M_{TABLE_MAX_N + 1} = {{")

    def test_json_compositions_sum_correctly(self, capsys):
        _, out, _ = run(capsys, "table", "6", "--format", "json")
        document = json.loads(out)
        for group in document["result"]["groups"]:
            r, s = group["r"], group["s"]
            for row in group["rows"]:
                assert sum(row["composition"]) == r + s


class TestAnalyzeCommand:
    def write(self, tmp_path, text, name="matrix.txt"):
        target = tmp_path / name
        target.write_text(text)
        return str(target)

    def test_diagonal_matrix(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 0 0\n0 2 0\n0 0 3\n")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0
        assert "invariant subspaces: 8" in out
        assert "real root multiplicities: [1, 1, 1]" in out
        assert "dimension profile: [1, 3, 3, 1]" in out

    def test_identity_is_infinite(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 0\n0 1\n")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0
        assert "infinite" in out

    def test_rotation(self, capsys, tmp_path):
        path = self.write(tmp_path, "0 -1\n1 0\n")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0
        assert "invariant subspaces: 2" in out
        assert "complex pair multiplicities: [1]" in out

    def test_shear(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 1\n0 1\n")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0
        assert "invariant subspaces: 3" in out
        assert "real root multiplicities: [2]" in out

    def test_fraction_tokens_and_crlf(self, capsys, tmp_path):
        path = self.write(tmp_path, "1/2 0\r\n0 3/4\r\n")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0
        assert "invariant subspaces: 4" in out

    def test_blank_lines_ignored(self, capsys, tmp_path):
        path = self.write(tmp_path, "\n1 0\n\n0 2\n\n")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0

    # vertical tab, form feed, FS, GS, RS, NEL, LS and PS end a line for
    # str.splitlines, but in a matrix document they only separate entries
    @pytest.mark.parametrize("separator", list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_other_separators_do_not_end_rows(self, capsys, tmp_path, separator):
        target = tmp_path / "matrix.txt"
        target.write_text(f"1 2{separator}3 4\n", encoding="utf-8")
        status, out, err = run(capsys, "analyze", str(target))
        assert (status, out) == (1, "")
        assert err == "error: matrix is not square: row 1 has 4 entries, expected 1\n"

    def test_json_document_input(self, capsys, tmp_path):
        path = self.write(tmp_path, '[[0, "-1"], [1, 0]]', "matrix.json")
        status, out, _ = run(capsys, "analyze", path)
        assert status == 0
        assert "invariant subspaces: 2" in out

    def test_json_report_digest_is_file_hash(self, capsys, tmp_path):
        text = "1 0\n0 2\n"
        path = self.write(tmp_path, text)
        status, out, _ = run(capsys, "analyze", path, "--format", "json")
        assert status == 0
        document = json.loads(out)
        expected = hashlib.sha256(text.encode()).hexdigest()
        assert document["input_sha256"] == expected
        assert document["result"]["finite"] is True
        assert document["result"]["count"] == "4"

    @pytest.mark.parametrize(
        "text, name",
        [("0 -1 0\n1 0 0\n0 0 2\n", "matrix.txt"), ('[["1/2", 1], [0, "1/2"]]', "matrix.json")],
    )
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, text, name):
        plain = self.write(tmp_path, text, name)
        marked = tmp_path / ("bom-" + name)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        _, out, _ = run(capsys, "analyze", plain, "--format", "json")
        status, marked_out, err = run(capsys, "analyze", str(marked), "--format", "json")
        assert (status, err) == (0, "")
        document = json.loads(marked_out)
        assert document["result"] == json.loads(out)["result"]
        # the digest is still taken over the raw bytes, mark included
        assert document["input_sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()

    def test_json_report_for_infinite(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 0\n0 1\n")
        status, out, _ = run(capsys, "analyze", path, "--format", "json")
        assert status == 0
        assert json.loads(out)["result"] == {"n": 2, "finite": False}

    def test_bad_token_names_row_and_column(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 0\n0 x\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "row 2, column 2" in err

    def test_float_token_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "1.5 0\n0 1\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "row 1, column 1" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1 0\n0 \u0663\n", "row 2, column 2"),  # Arabic-Indic three
            ("\uff11 0\n0 1\n", "row 1, column 1"),  # fullwidth one
            ("1 0\n0 1/\u0662\n", "row 2, column 2"),  # Arabic-Indic denominator
        ],
    )
    def test_non_ascii_digits_rejected(self, capsys, tmp_path, text, where):
        target = tmp_path / "matrix.txt"
        target.write_text(text, encoding="utf-8")
        status, _, err = run(capsys, "analyze", str(target))
        assert status == 1
        assert where in err

    def test_non_ascii_digits_rejected_in_json(self, capsys, tmp_path):
        target = tmp_path / "matrix.json"
        target.write_text('[[1, "\uff12"], [0, 1]]', encoding="utf-8")
        status, _, err = run(capsys, "analyze", str(target))
        assert status == 1
        assert "row 1, column 2" in err

    def test_zero_denominator_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "1/0 0\n0 1\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "zero denominator" in err

    def test_oversized_integer_names_row_and_column(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 0\n0 " + "7" * 5000 + "\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "row 2, column 2" in err
        assert "digits" in err
        assert len(err.splitlines()) == 1

    def test_oversized_integer_rejected_in_json(self, capsys, tmp_path):
        text = "[[1, 0], [0, " + "7" * 5000 + "]]"
        path = self.write(tmp_path, text, "matrix.json")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "digits" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text, name, where, reason",
        [
            ("1 0\n0 " + "7" * 5000 + "x\n", "matrix.txt", "row 2, column 2", "invalid"),
            ("1 0\n0 " + "7" * 3000 + "/0\n", "matrix.txt", "row 2, column 2", "zero denominator"),
            ('[[1, "' + "7" * 5000 + 'x"], [0, 1]]', "matrix.json", "row 1, column 2", "invalid"),
            ('[[1, 0], ["' + "7" * 3000 + '/0", 1]]', "matrix.json", "row 2, column 1", "zero denominator"),
        ],
    )
    def test_long_bad_token_quoted_briefly(self, capsys, tmp_path, text, name, where, reason):
        path = self.write(tmp_path, text, name)
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert len(err.encode()) < 200
        assert where in err and reason in err
        assert "'" + "7" * QUOTE_CHARS + "'... (" in err and " characters)" in err

    @pytest.mark.parametrize(
        "cell, shown",
        [
            ([7] * 3000, "'[7, 7, 7, 7, "),
            ({"a": 1}, "'{\"a\": 1}'"),
            (True, "'true'"),
        ],
    )
    def test_non_rational_json_entry_quoted_briefly(self, capsys, tmp_path, cell, shown):
        path = self.write(tmp_path, json.dumps([[1, cell], [0, 1]]), "matrix.json")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert len(err.encode()) < 200
        assert "row 1, column 2" in err and "not an exact rational" in err
        assert shown in err

    def test_deeply_nested_json_is_one_line_error(self, capsys, tmp_path):
        path = self.write(tmp_path, "[" * 100_000, "matrix.json")
        status, out, err = run(capsys, "analyze", path)
        assert status == 1
        assert out == ""
        assert err == "error: JSON matrix document nests too deeply\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("token", ["x", "1/0", "\uff11", "7" * 5000])
    def test_bad_token_same_error_in_either_format(self, capsys, tmp_path, token):
        text = self.write(tmp_path, f"1 0\n0 {token}\n")
        cells = self.write(tmp_path, json.dumps([["1", "0"], ["0", token]]), "matrix.json")
        status, out, err = run(capsys, "analyze", text)
        assert (status, out) == (1, "")
        assert err.startswith("error: row 2, column 2: ")
        assert run(capsys, "analyze", cells) == (1, "", err)

    def test_short_bad_token_quoted_whole(self, capsys, tmp_path):
        token = "7" * (QUOTE_CHARS - 1) + "x"
        path = self.write(tmp_path, f"1 0\n0 {token}\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert repr(token) + " (expected" in err

    def test_nonsquare_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "1 0 0\n0 1 0\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "not square" in err

    def test_empty_document_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "\n\n")
        status, _, err = run(capsys, "analyze", path)
        assert status == 1
        assert "no rows" in err

    def test_missing_file(self, capsys, tmp_path):
        status, _, err = run(capsys, "analyze", str(tmp_path / "absent.txt"))
        assert status == 1
        assert "cannot read" in err


class TestSelfcheckCommand:
    def test_passes_at_small_bound(self, capsys):
        status, out, _ = run(capsys, "selfcheck", "--max-n", "5")
        assert status == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10
        assert "spectrum n=4 matches the reference value" in out

    def test_json_format(self, capsys):
        status, out, _ = run(capsys, "selfcheck", "--max-n", "3", "--format", "json")
        assert status == 0
        document = json.loads(out)
        assert document["result"]["all_passed"] is True
        assert all(c["passed"] for c in document["result"]["checks"])

    FAILURES = [
        "spectrum n=3 matches brute force (3 values)",
        "analyzer round-trip n=2 (3 configurations)",
    ]

    def break_two_checks(self, monkeypatch):
        # a reference spectrum that drops a value at n = 3, and an
        # analyzer that reads one 2-block as two 1-blocks
        def wrong_reference(n):
            if n == 3:
                return SpectrumSet(3, (4, 6))
            return attainable_counts_bruteforce(n)

        def miscount(matrix):
            outcome = analyzer.count_invariant_subspaces(matrix)
            if outcome.signature == BlockConfig((), (2,)):
                return analyzer.SubspaceCount(BlockConfig((), (1, 1)))
            return outcome

        monkeypatch.setattr(cli, "attainable_counts_bruteforce", wrong_reference)
        monkeypatch.setattr(cli, "count_invariant_subspaces", miscount)

    def test_text_reports_each_failed_check(self, capsys, monkeypatch):
        self.break_two_checks(monkeypatch)
        status, out, _ = run(capsys, "selfcheck", "--max-n", "4")
        assert status == 1
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            f"FAIL  {name}" for name in self.FAILURES
        ]
        assert lines[-1] == "2 of 9 checks FAILED"

    def test_json_reports_each_failed_check(self, capsys, monkeypatch):
        self.break_two_checks(monkeypatch)
        status, out, _ = run(capsys, "selfcheck", "--max-n", "4", "--format", "json")
        assert status == 1
        result = json.loads(out)["result"]
        assert result["all_passed"] is False
        assert len(result["checks"]) == 9
        failed = [c["name"] for c in result["checks"] if not c["passed"]]
        assert failed == self.FAILURES

    def test_rejects_bound_above_cap(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selfcheck", "--max-n", "17"])
        assert excinfo.value.code == 2


def test_closed_pipe_ends_silently():
    # like `invsub table 30 | head -n 1`: far more output than a pipe holds
    src = Path(invsub.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(
        [sys.executable, "-m", "invsub.cli", "table", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        assert child.stdout.readline() == b"n = 30\n"
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=60)
    assert err == b""
    assert status == 1


# invsub.cli loads argparse, json and a SHA-256 module inside the
# functions that use them, and this module has argparse, json and hashlib
# loaded already; so these run the tool in a fresh interpreter, where a
# missing local import fails.  -S keeps site hooks from loading any of
# them first.
GOLDEN = Path(__file__).parent / "golden"


def run_fresh(*argv, cwd=GOLDEN / "inputs"):
    src = Path(invsub.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-S", "-m", "invsub.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


DIGESTED = {
    "integer": (GOLDEN / "inputs" / "integer.txt").read_bytes(),
    "byte order mark": codecs.BOM_UTF8 + b"2 0\n0 3\n",
    # blank lines past the last row, 100 KB in all
    "100 KB": b"2 0\n0 3\n".ljust(100 * 1024, b"\n"),
}


@pytest.mark.parametrize("name", DIGESTED)
def test_fresh_process_report_digests_the_input_file(tmp_path, name):
    raw = DIGESTED[name]
    (tmp_path / "matrix.txt").write_bytes(raw)
    done = run_fresh("analyze", "matrix.txt", "--format", "json", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["input_sha256"] == hashlib.sha256(raw).hexdigest()


def test_fresh_process_report_digests_empty_input():
    # analyze refuses an empty document before any report, so the report
    # is made directly, over no bytes
    code = "from invsub.cli import _report; print(_report('analyze', {}, {}, b''))"
    src = Path(invsub.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["input_sha256"] == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", "pairs.json"], "analyze-pairs.text"),
        (["spectrum", "4", "--format", "json"], "spectrum-4.json"),
    ],
    ids=["json-document", "json-report"],
)
def test_fresh_process_output_is_golden(argv, expected):
    done = run_fresh(*argv)
    golden = (GOLDEN / "expected" / expected).read_text(encoding="utf-8")
    assert (done.returncode, done.stdout, done.stderr) == (0, golden, "")


def test_fresh_process_non_rational_json_entry(tmp_path):
    (tmp_path / "matrix.json").write_text("[[1.5]]")
    done = run_fresh("analyze", "matrix.json", cwd=tmp_path)
    message = "error: row 1, column 1: entry '1.5' is not an exact rational\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)


def test_fresh_process_usage_error():
    done = run_fresh("spectrum", "0")
    golden = (GOLDEN / "expected" / "spectrum-0.stderr").read_text(encoding="utf-8")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", golden)


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_non_integer_n(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "four"])
        assert excinfo.value.code == 2


# The benchmark tracer (benchmarks/tracing.py) times these functions by
# replacing them in invsub.cli, and skips a name that is gone there; so
# each command must look them up in its own module when it runs.
CLI_BINDINGS = {
    "parse_matrix_document": ["analyze", "matrix.txt"],
    "count_invariant_subspaces": ["analyze", "matrix.txt"],
    "attainable_counts": ["spectrum", "4"],
    "count_for_config": ["table", "4"],
    "enumerate_configs": ["table", "4", "--format", "json"],
}


@pytest.mark.parametrize("name", CLI_BINDINGS)
def test_commands_call_through_module_bindings(capsys, monkeypatch, tmp_path, name):
    calls = []
    original = getattr(cli, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, recording)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "matrix.txt").write_text("0 -1\n1 0\n")
    assert main(CLI_BINDINGS[name]) == 0
    assert calls
    assert capsys.readouterr().err == ""


class TestParseMatrixDocument:
    def test_text_form(self):
        matrix = parse_matrix_document("1 2\n3 4\n")
        assert matrix == RationalMatrix([[1, 2], [3, 4]])

    def test_json_object_form(self):
        matrix = parse_matrix_document('{"rows": [[1, 0], [0, 1]]}')
        assert matrix == RationalMatrix.identity(2)

    def test_json_rejects_float_entries(self):
        with pytest.raises(ValueError):
            parse_matrix_document("[[1.5, 0], [0, 1]]")

    def test_json_rejects_bool_entries(self):
        with pytest.raises(ValueError):
            parse_matrix_document("[[true, 0], [0, 1]]")

    def test_json_integer_past_the_int_string_limit(self):
        # a bare JSON number fails in json.loads, before any cell is read
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")
        with pytest.raises(MatrixInputError) as info:
            parse_matrix_document(f"[[{'7' * (limit + 1)}]]")
        message = f"JSON matrix document has an integer with more than {limit} digits"
        assert str(info.value) == message

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_matrix_document("[[1, 0], [0, 1]")


# tokens of the matrix grammar: optional sign, ASCII digits (leading
# zeros allowed), optional nonzero denominator
digit_strings = st.text("0123456789", min_size=1, max_size=12)
tokens = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "+", "-"]),
    digit_strings,
    st.none() | digit_strings.filter(lambda q: int(q) != 0),
)


@st.composite
def token_matrices(draw):
    n = draw(st.integers(1, 4))
    return [draw(st.lists(tokens, min_size=n, max_size=n)) for _ in range(n)]


class TestParserEquivalence:
    """parse_matrix_document against Fraction(token) entry by entry."""

    @staticmethod
    def expected(token_rows):
        return RationalMatrix([[Fraction(t) for t in row] for row in token_rows])

    @staticmethod
    def assert_same(matrix, expected):
        assert matrix == expected
        assert all(type(x) is Fraction for row in matrix.entries for x in row)

    @given(token_matrices(), st.sampled_from([" ", "\t", "  "]), st.sampled_from(["\n", "\r\n", "\r"]))
    @example([["-0/5", "007"], ["+3", "-6/4"]], " ", "\n")
    @example([["1/2", "0"], ["0", "3/4"]], " ", "\r")
    def test_text_documents(self, token_rows, gap, newline):
        text = newline.join(gap.join(row) for row in token_rows) + newline
        self.assert_same(parse_matrix_document(text), self.expected(token_rows))

    @given(token_matrices(), st.randoms(use_true_random=False))
    @example([["-0/5", "-0"], ["12", "0/7"]], random.Random(0))
    def test_json_documents(self, token_rows, rng):
        # integer tokens go in as JSON ints or strings, p/q tokens as strings
        cells = [[t if "/" in t or rng.random() < 0.5 else int(t) for t in row] for row in token_rows]
        self.assert_same(parse_matrix_document(json.dumps(cells)), self.expected(token_rows))


def first_cell_error(token_rows):
    """The message for the first cell, in reading order, that the
    grammar's oracle ``read_token`` refuses, or None.  The tokens here
    are too short to be cut when quoted."""
    for i, row in enumerate(token_rows, start=1):
        for j, token in enumerate(row, start=1):
            assert len(token) <= QUOTE_CHARS
            reason = read_token(token)
            if isinstance(reason, str):
                return f"row {i}, column {j}: {reason}"
    return None


# the grammar's alphabet and a few characters around it, to be joined
# into tokens that are often nearly right
near_tokens = st.text("0123456789+-/_x\u0661\uff11", min_size=1, max_size=6)


@st.composite
def near_token_matrices(draw):
    n = draw(st.integers(1, 3))
    return [draw(st.lists(tokens | near_tokens, min_size=n, max_size=n)) for _ in range(n)]


class TestIntegerRows:
    """Rows of integer tokens, JSON ints among them, convert in one pass;
    the reader must accept and refuse exactly what the grammar does, with
    the same message for the first cell refused."""

    @pytest.mark.parametrize("token", OFF_GRAMMAR_TOKENS)
    def test_off_grammar_token_in_an_integer_row(self, token):
        message = f"row 2, column 2: invalid rational token {token!r} (expected an integer or p/q)"
        documents = [
            f"1 0 0\n0 {token} 0\n0 0 1\n",
            json.dumps([[1, 0, 0], [0, token, 0], [0, 0, 1]]),
            json.dumps([["1", "0", "0"], ["0", token, "0"], ["0", "0", "1"]]),
        ]
        for text in documents:
            with pytest.raises(MatrixInputError) as info:
                parse_matrix_document(text)
            assert str(info.value) == message

    @pytest.mark.parametrize("json_document", [False, True])
    def test_int_string_digit_limit(self, json_document):
        limit = sys.get_int_max_str_digits()  # 4300 unless configured otherwise
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")

        def document(token):
            if json_document:
                return json.dumps([["1", "0"], ["0", token]])
            return f"1 0\n0 {token}\n"

        accepted = "7" * limit
        matrix = parse_matrix_document(document(accepted))
        assert matrix.integer_rows == ((1, 0), (0, int(accepted)))
        with pytest.raises(MatrixInputError) as info:
            parse_matrix_document(document(accepted + "7"))
        assert str(info.value) == f"row 2, column 2: integer with more than {limit} digits"

    def test_rows_mixing_integer_and_fraction_tokens(self):
        text = "1 1/2 -3\n4 5 6\n-7/7 0 +8\n"
        expected = [[Fraction(t) for t in line.split()] for line in text.splitlines()]
        assert parse_matrix_document(text) == RationalMatrix(expected)

    def test_json_rows_mixing_ints_strings_and_true(self):
        matrix = parse_matrix_document('[[1, "2", "-3/3"], ["4", 5, 6], [7, 8, "+9"]]')
        assert matrix == RationalMatrix([[1, 2, -1], [4, 5, 6], [7, 8, 9]])
        # true is a bool, not an int, beside ints alone or strings too
        for text in ('[[1, 0], [0, true]]', '[[1, "2"], ["3", true]]'):
            with pytest.raises(MatrixInputError) as info:
                parse_matrix_document(text)
            assert str(info.value) == "row 2, column 2: entry 'true' is not an exact rational"

    @pytest.mark.parametrize("row", [["1 2"], ["1", " 2"], ["1 ", "2"], ["-1 -2"]])
    def test_json_strings_holding_spaces(self, row):
        # joined by spaces, these rows look like integer tokens
        n = len(row)
        cells = [row] + [[0] * n for _ in range(n - 1)]
        with pytest.raises(MatrixInputError) as info:
            parse_matrix_document(json.dumps(cells))
        assert str(info.value) == first_cell_error(cells)

    @given(near_token_matrices())
    @example([["1_0", "2"], ["3", "4"]])
    @example([["1", "\u0661"], ["2/4", "x"]])
    @example([["-1", "+2"], ["3/6", "1/0"]])
    def test_accepts_exactly_what_the_grammar_accepts(self, token_rows):
        error = first_cell_error(token_rows)
        text = "\n".join(" ".join(row) for row in token_rows) + "\n"
        for document in (text, json.dumps(token_rows)):
            if error is None:
                expected = RationalMatrix([[Fraction(t) for t in row] for row in token_rows])
                assert parse_matrix_document(document) == expected
            else:
                with pytest.raises(MatrixInputError) as info:
                    parse_matrix_document(document)
                assert str(info.value) == error


class TestDimensionArguments:
    """``n`` and ``--max-n`` take the integer tokens of the matrix
    grammar only, and their errors quote at most QUOTE_CHARS characters."""

    # "command argument" -> the argv that hands a token to that argument;
    # "--" and "=" keep argparse from taking "-1" or "--1" for an option
    PLACES = {
        "spectrum n": lambda token: ["spectrum", "--", token],
        "table n": lambda token: ["table", "--", token],
        "spectrum --max-n": lambda token: ["spectrum", "4", f"--max-n={token}"],
        "table --max-n": lambda token: ["table", "4", f"--max-n={token}"],
        "selfcheck --max-n": lambda token: ["selfcheck", f"--max-n={token}"],
    }

    def refuse(self, capsys, place, token):
        """The message after "argument ...: " and the whole stderr."""
        with pytest.raises(SystemExit) as excinfo:
            main(self.PLACES[place](token))
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        command, argument = place.split()
        prefix = f"invsub {command}: error: argument {argument}: "
        *_, last = err.splitlines()
        assert last.startswith(prefix)
        return last[len(prefix):], err

    # int() takes the first three of OFF_GRAMMAR_TOKENS and these
    INT_ONLY_TOKENS = [" 4", "4 ", "\t4\n", "1_000", "٤٠", "8/2"]

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("token", OFF_GRAMMAR_TOKENS + INT_ONLY_TOKENS)
    def test_off_grammar_token(self, capsys, place, token):
        message, _ = self.refuse(capsys, place, token)
        assert message == f"not an integer: {token!r}"

    @pytest.mark.parametrize("place", PLACES)
    def test_past_the_int_string_limit_is_one_short_line(self, capsys, place):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int-string digit limit")
        message, err = self.refuse(capsys, place, "9" * 5000)
        assert message == f"integer with more than {limit} digits"
        assert len(err) < 300

    @pytest.mark.parametrize("place", PLACES)
    def test_long_nonpositive_value_is_quoted_briefly(self, capsys, place):
        token = "-" + "9" * 400
        message, _ = self.refuse(capsys, place, token)
        assert message == f"must be a positive integer: {token[:QUOTE_CHARS]}... (401 characters)"

    def test_long_value_above_the_maximum_is_quoted_briefly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "9" * 400])
        *_, last = capsys.readouterr().err.splitlines()
        assert excinfo.value.code == 2
        shown = "9" * QUOTE_CHARS + "... (400 characters)"
        assert last == (
            f"invsub spectrum: error: n = {shown} exceeds the maximum {SPECTRUM_MAX_N}; "
            "raise --max-n if you really mean it"
        )

    @pytest.mark.parametrize("token, n", [("+4", 4), ("004", 4), ("4", 4)])
    def test_signs_and_leading_zeros_stay_accepted(self, capsys, token, n):
        for argv in (["spectrum", token], ["spectrum", str(n), "--max-n", token]):
            status, out, _ = run(capsys, *argv)
            assert (status, out) == (0, f"M_{n} = {{3, 4, 5, 6, 8, 9, 12, 16}}\n")
