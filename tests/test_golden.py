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
  5, and the simple pair 1 +- 3i.

The non-diagonal documents are P^-1 J P for unimodular integer P.
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


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("command, argument", COMMANDS)
def test_output_is_byte_identical(capsys, monkeypatch, command, argument, output_format):
    monkeypatch.chdir(GOLDEN / "inputs")
    status = main([command, argument, "--format", output_format])
    captured = capsys.readouterr()
    name = f"{command}-{Path(argument).stem}.{output_format}"
    expected = (GOLDEN / "expected" / name).read_bytes().decode("utf-8")
    assert (status, captured.out, captured.err) == (0, expected, "")


def test_every_golden_file_is_checked():
    names = {
        f"{command}-{Path(argument).stem}.{output_format}"
        for command, argument in COMMANDS
        for output_format in ("text", "json")
    }
    assert names == {p.name for p in (GOLDEN / "expected").iterdir()}
