import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from invsub.cli import (
    QUOTE_CHARS,
    SPECTRUM_MAX_N,
    TABLE_MAX_N,
    cmd_table,
    main,
    parse_matrix_document,
)
from invsub.combinatorics import partition_count
from invsub.exactalg import RationalMatrix
from invsub.spectrum import attainable_counts

from _oracles import table_rows

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

    def test_rejects_bound_above_cap(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["selfcheck", "--max-n", "17"])
        assert excinfo.value.code == 2


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

    @given(token_matrices(), st.sampled_from([" ", "\t", "  "]), st.sampled_from(["\n", "\r\n"]))
    @example([["-0/5", "007"], ["+3", "-6/4"]], " ", "\n")
    def test_text_documents(self, token_rows, gap, newline):
        text = newline.join(gap.join(row) for row in token_rows) + newline
        self.assert_same(parse_matrix_document(text), self.expected(token_rows))

    @given(token_matrices(), st.randoms(use_true_random=False))
    @example([["-0/5", "-0"], ["12", "0/7"]], random.Random(0))
    def test_json_documents(self, token_rows, rng):
        # integer tokens go in as JSON ints or strings, p/q tokens as strings
        cells = [[t if "/" in t or rng.random() < 0.5 else int(t) for t in row] for row in token_rows]
        self.assert_same(parse_matrix_document(json.dumps(cells)), self.expected(token_rows))
