"""Golden output of the command-line tool.

Each file in ``golden/expected`` is the exact stdout of one command,
named ``<command>-<argument>.<format>``, so a change of representation
that alters any byte of the output fails here.  The ``analyze``
documents in ``golden/inputs`` are:

* ``integer.txt``: dense integers, simple real roots -1, 2, 3 and the
  conjugate pair 1 +- 2i;
* ``rational.txt``: rational entries, not all in lowest terms;
* ``derogatory.txt``: the root 2 owns two Jordan blocks;
* ``pairs.json``: Jordan blocks of size 2 for the pair +-i and the root
  5, and the simple pair 1 +- 3i;
* ``blocks16.txt``: 16 x 16, with Jordan blocks of sizes 3, 2, 2 and 1
  for the roots 6, 4, 8 and 11, of size 2 for the pair -2 +- 2i, and
  simple pairs +-i and 2 +- i: a document of the benchmark's seed-1
  ``analyze-finite`` pool on which (1, 2, ..., 16) is not a cyclic
  vector, so that a walk starting there needs later start vectors.

The non-diagonal documents are P^-1 J P for unimodular integer P.

``selfcheck-4.<format>`` is the stdout of ``selfcheck --max-n 4``.  A
``.stderr`` file is the exact standard error of a usage error (exit 2);
argparse wraps the usage line at the terminal width, so these run with
``COLUMNS=80``.
"""

from pathlib import Path

import pytest

from invsub.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = (
    [("spectrum", n) for n in ("1", "4", "8")]
    + [("table", n) for n in ("1", "4", "6")]
    + [("analyze", p.name) for p in sorted((GOLDEN / "inputs").iterdir())]
)
# expected stderr file -> arguments of a usage error
USAGE_ERRORS = {
    "spectrum-0.stderr": ["spectrum", "0"],
    "analyze.stderr": ["analyze"],
    "no-command.stderr": [],
    "spectrum-65.stderr": ["spectrum", "65"],
    "table-41.stderr": ["table", "41"],
    "selfcheck-17.stderr": ["selfcheck", "--max-n", "17"],
}


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("command, argument", COMMANDS)
def test_output_is_byte_identical(capsys, monkeypatch, command, argument, output_format):
    monkeypatch.chdir(GOLDEN / "inputs")
    status = main([command, argument, "--format", output_format])
    captured = capsys.readouterr()
    name = f"{command}-{Path(argument).stem}.{output_format}"
    expected = (GOLDEN / "expected" / name).read_bytes().decode("utf-8")
    assert (status, captured.out, captured.err) == (0, expected, "")


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_selfcheck_is_byte_identical(capsys, output_format):
    status = main(["selfcheck", "--max-n", "4", "--format", output_format])
    captured = capsys.readouterr()
    expected = (GOLDEN / "expected" / f"selfcheck-4.{output_format}").read_bytes().decode("utf-8")
    assert (status, captured.out, captured.err) == (0, expected, "")


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_is_byte_identical(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(USAGE_ERRORS[name])
    captured = capsys.readouterr()
    expected = (GOLDEN / "expected" / name).read_bytes().decode("utf-8")
    assert (excinfo.value.code, captured.out, captured.err) == (2, "", expected)


def test_every_golden_file_is_checked():
    names = {
        f"{command}-{Path(argument).stem}.{output_format}"
        for command, argument in COMMANDS + [("selfcheck", "4")]
        for output_format in ("text", "json")
    }
    assert names | set(USAGE_ERRORS) == {p.name for p in (GOLDEN / "expected").iterdir()}
