"""Command-line front end.

Subcommands: ``spectrum`` (all attainable invariant-subspace counts for
a dimension), ``table`` (per-configuration breakdown), ``analyze``
(exact analysis of a rational matrix file) and ``selfcheck`` (internal
cross-validation).  Exit status contract: 0 success, 1 data error
(unreadable or malformed input, failed selfcheck), 2 usage error.

Each subcommand has one path: its ``cmd_*`` function computes the
result once and renders it as text or as a JSON report, and its
subparser runs it (``set_defaults``) and raises all its usage errors.
A report's ``input_sha256`` digests the input file's bytes for
``analyze`` and the canonical JSON of the parameters otherwise.

``parse_matrix_document`` reads no cell itself.  It keeps the
structure of a document, its rows of tokens or of JSON cells, and the
JSON type rule, ints and strings only; ``RationalMatrix`` reads the
cells, by the one reader of the grammar in ``exactalg``, which words
every refused value.  On the error path alone the cells are read again,
in reading order, to name the row and column of the first one refused.
``n`` and ``--max-n`` pass the same grammar's integer tokens only, in
``_positive_int``, by the token that the package root holds for both.

Each run of the tool is a fresh process that pays at startup for every
module imported here, and compiles every one of them from source when
no bytecode is cached, so this module imports only what every command
uses.  Of ``invsub`` that is ``spectrum``, with ``combinatorics``:
``spectrum`` and ``table`` load no other module of the package.
``analyze`` loads ``exactalg`` in ``parse_matrix_document`` and
``analyzer`` in ``count_invariant_subspaces``, and ``selfcheck`` loads
both for its analyzer round trip.  ``count_invariant_subspaces`` is a
function of this module that imports the analyzer when it is called,
rather than a name imported from it, so that the commands look it up
here: a test and the benchmark tracer replace it in this module.  The rest of the
standard library loads in the function that needs it: ``argparse`` in
``build_parser`` and ``_positive_int``, ``json`` in the JSON branch of
``parse_matrix_document``, its non-rational-entry error and
``_report``, and the interpreter's own SHA-256 module in ``_report``:
_sha2 from CPython 3.12, _sha256 before it.  ``hashlib``, which
loads OpenSSL (3.3 MB resident) to hash a report's few hundred bytes,
loads only in a build without those modules.  A text command on a text
document loads neither ``json`` nor a hash module, and ``analyze``
loads no ``fractions``, p/q tokens included: the library reads each
straight into two ints.
"""

import os
import re
import sys
from itertools import chain, groupby

# QUOTE_CHARS stays importable from here
from . import _INTEGER, QUOTE_CHARS, _quoted, _too_many_digits
from .spectrum import (
    attainable_counts,
    attainable_counts_bruteforce,
    count_for_config,
    enumerate_configs,
)

# `spectrum` costs grow with |M_n| (the whole command on a 2-vCPU
# machine: 0.1-0.3 s and 24 MB at n = 64, 0.5-0.9 s and 62 MB at
# n = 80); `table` prints one row per configuration,
# sum_r p(r) p(n - 2r): 468,342 rows at n = 40 and 51,491,111 at n = 64
SPECTRUM_MAX_N = 64
TABLE_MAX_N = 40
SELFCHECK_LIMIT = 16
ROUNDTRIP_LIMIT = 8


class MatrixInputError(ValueError):
    """A matrix document that cannot be turned into a square rational
    matrix; the message names the offending row/column."""


def parse_matrix_document(text: str) -> "RationalMatrix":
    """Parse a matrix document: whitespace-separated rows of integer or
    p/q tokens, one row per line, or the JSON alternative (a list of
    rows, entries being ints or token strings).  A text line ends at
    LF, CRLF or CR only, and blank lines are skipped.  The rows go to
    ``RationalMatrix`` as they are, JSON ones once each cell is known to
    be an int or a string; only when a cell is refused does
    ``_first_refused`` read the cells again, to name its row and column."""
    if text.lstrip()[:1] in ("[", "{"):
        import json

        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixInputError(f"invalid JSON matrix document: {exc}") from None
        except RecursionError:
            raise MatrixInputError("JSON matrix document nests too deeply") from None
        except ValueError:
            # the interpreter's int-string conversion limit
            raise MatrixInputError(f"JSON matrix document has an {_too_many_digits()}") from None
        if isinstance(rows, dict):
            rows = rows.get("rows")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise MatrixInputError(
                'JSON matrix document must be a list of rows or {"rows": [...]}'
            )
        if not set(map(type, chain.from_iterable(rows))) <= {int, str}:
            # the library would read true as 1
            raise _first_refused(rows)
    else:
        lines = text.replace("\r", "\n").split("\n")
        rows = [tokens for tokens in map(str.split, lines) if tokens]
    from .exactalg import RationalMatrix

    try:
        return RationalMatrix(rows)
    except (ValueError, ZeroDivisionError) as exc:
        # a refused cell, or else no rows or a row of the wrong length
        raise _first_refused(rows) or MatrixInputError(str(exc)) from None


def _first_refused(rows: list) -> MatrixInputError | None:
    """The error for the first cell of ``rows``, in reading order, that
    is not an int or a string or that the library's reader refuses,
    with its row and column before the reason; None if there is none."""
    from .exactalg import _ratio

    for i, row in enumerate(rows, start=1):
        for j, cell in enumerate(row, start=1):
            try:
                if type(cell) in (int, str):
                    _ratio(cell)
                    continue
                import json

                reason = f"entry {_quoted(json.dumps(cell))} is not an exact rational"
            except (ValueError, ZeroDivisionError) as exc:
                reason = str(exc)
            return MatrixInputError(f"row {i}, column {j}: {reason}")
    return None


def _report(command: str, params: dict, result: dict, raw: bytes | None = None) -> str:
    # ``raw``, the bytes of the input file, is given by analyze only
    import json

    # by the name of this version's module, as a failed import searches
    # sys.path again at every call: 0.2 ms, a tenth of an analyze request
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        # a build configured without the built-in hashes
        from hashlib import sha256

    if raw is None:
        raw = json.dumps(params, sort_keys=True, separators=(",", ":")).encode()
    document = {
        "command": command,
        "input": params,
        "input_sha256": sha256(raw).hexdigest(),
        "result": result,
    }
    return json.dumps(document, indent=2)


def cmd_spectrum(n: int, fmt: str) -> str:
    if fmt == "text":
        # one str, not one per count; a list prints [2] where a tuple prints (2,)
        return f"M_{n} = {{{repr(list(attainable_counts(n)))[1:-1]}}}"
    values = [str(v) for v in attainable_counts(n)]
    return _report("spectrum", {"n": n}, {"n": n, "values": values})


def cmd_table(n: int, fmt: str) -> str:
    # one group per r, the sum of the conjugate-pair parts; a row shows
    # those parts, then the real ones, with a 0 for an empty side
    def row_for(config):
        shown = config.complex_pair_multiplicities or (0,)
        shown += config.real_multiplicities or (0,)
        return {"composition": list(shown), "count": str(count_for_config(config))}

    # a generator: text output holds the rows of one group at a time
    groups = (
        {"r": r, "s": n - 2 * r, "rows": [row_for(c) for c in configs]}
        for r, configs in groupby(
            enumerate_configs(n), lambda c: sum(c.complex_pair_multiplicities)
        )
    )
    if fmt == "json":
        return _report("table", {"n": n}, {"n": n, "groups": list(groups)})
    lines = [f"n = {n}"]
    for group in groups:
        lines.append(f"r = {group['r']}, s = {group['s']}:")
        for row in group["rows"]:
            body = ", ".join(str(p) for p in row["composition"])
            lines.append(f"  ({body}) -> {row['count']}")
    return "\n".join(lines)


def count_invariant_subspaces(matrix: "RationalMatrix") -> "SubspaceCount":
    """:func:`invsub.analyzer.count_invariant_subspaces`, imported at the
    call, so that ``spectrum`` and ``table`` never compile the analyzer."""
    from . import analyzer

    return analyzer.count_invariant_subspaces(matrix)


def cmd_analyze(path: str, fmt: str) -> str:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        text = raw.decode("utf-8-sig")
    except OSError as exc:
        raise MatrixInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MatrixInputError(f"{path} is not UTF-8: {exc}") from None
    matrix = parse_matrix_document(text)
    outcome = count_invariant_subspaces(matrix)
    result = {"n": matrix.n, "finite": outcome.is_finite}
    if outcome.is_finite:
        signature = outcome.signature
        result.update(
            count=str(outcome.count),
            real_root_multiplicities=list(signature.real_multiplicities),
            complex_pair_multiplicities=list(signature.complex_pair_multiplicities),
            dimension_profile=[str(c) for c in outcome.profile],
        )
    if fmt == "json":
        return _report("analyze", {"path": path}, result, raw)
    lines = [
        f"matrix: {matrix.n} x {matrix.n}",
        f"invariant subspaces: {result.get('count', 'infinite')}",
    ]
    # each list in the result, labelled by its JSON name with spaces
    lines += [
        f"{key.replace('_', ' ')}: [{', '.join(map(str, value))}]"
        for key, value in result.items()
        if isinstance(value, list)
    ]
    return "\n".join(lines)


REFERENCE_SPECTRUM_4 = (3, 4, 5, 6, 8, 9, 12, 16)


def _selfcheck_results(max_n: int):
    for n in range(1, max_n + 1):
        counts = attainable_counts(n)
        ok = counts == attainable_counts_bruteforce(n)
        yield f"spectrum n={n} matches brute force ({len(counts)} values)", ok
    if max_n >= 4:
        ok = tuple(attainable_counts(4)) == REFERENCE_SPECTRUM_4
        yield "spectrum n=4 matches the reference value", ok
    from .analyzer import SubspaceCount, realize_config

    for n in range(1, min(max_n, ROUNDTRIP_LIMIT) + 1):
        configs = list(enumerate_configs(n))
        ok = all(count_invariant_subspaces(realize_config(c)) == SubspaceCount(c) for c in configs)
        yield f"analyzer round-trip n={n} ({len(configs)} configurations)", ok


def cmd_selfcheck(max_n: int, fmt: str) -> tuple[str, int]:
    checks = [{"name": name, "passed": ok} for name, ok in _selfcheck_results(max_n)]
    failures = sum(1 for check in checks if not check["passed"])
    status = 1 if failures else 0
    if fmt == "json":
        result = {"checks": checks, "all_passed": failures == 0}
        return _report("selfcheck", {"max_n": max_n}, result), status
    lines = [
        f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}"
        for check in checks
    ]
    total = len(checks)
    lines.append(f"{failures} of {total} checks FAILED" if failures else f"all {total} checks passed")
    return "\n".join(lines), status


def _positive_int(text: str) -> int:
    # an integer token of the matrix grammar: int() also takes 1_0,
    # non-ASCII digits and surrounding spaces
    import argparse

    if not re.fullmatch(_INTEGER, text):
        raise argparse.ArgumentTypeError(f"not an integer: {_quoted(text)}")
    try:
        value = int(text)
    except ValueError:
        # the interpreter's int-string conversion limit
        raise argparse.ArgumentTypeError(_too_many_digits()) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {_quoted(text, str)}")
    return value


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="invsub",
        description="Exact enumeration and counting of invariant subspaces of R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dimension(args) -> int:
        # spectrum and table refuse n above --max-n
        if args.n > args.max_n:
            n, max_n = (_quoted(str(value), str) for value in (args.n, args.max_n))
            args.error(
                f"n = {n} exceeds the maximum {max_n}; "
                "raise --max-n if you really mean it"
            )
        return args.n

    def selfcheck(args) -> tuple[str, int]:
        if args.max_n > SELFCHECK_LIMIT:
            args.error(f"--max-n is capped at {SELFCHECK_LIMIT} for selfcheck")
        return cmd_selfcheck(args.max_n, args.format)

    def subcommand(name, help, run, *arguments):
        # the options all share come after the subcommand's own, as in
        # --help; ``run(args)`` returns the report and the exit status
        p = sub.add_parser(name, help=help)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--output",
            metavar="PATH",
            default=None,
            help="write the report to PATH instead of standard output",
        )
        p.set_defaults(run=run, error=p.error)

    def max_n(default, help):
        help = f"{help} (default: {default})"
        return "--max-n", {"type": _positive_int, "default": default, "help": help}

    n = "n", {"type": _positive_int}
    subcommand(
        "spectrum",
        "all attainable invariant-subspace counts for dimension n",
        lambda args: (cmd_spectrum(dimension(args), args.format), 0),
        n,
        max_n(SPECTRUM_MAX_N, "refuse dimensions above this bound"),
    )
    subcommand(
        "table",
        "per-configuration table of counts for dimension n",
        lambda args: (cmd_table(dimension(args), args.format), 0),
        n,
        max_n(TABLE_MAX_N, "refuse dimensions above this bound"),
    )
    subcommand(
        "analyze",
        "count invariant subspaces of a rational matrix file",
        lambda args: (cmd_analyze(args.path, args.format), 0),
        ("path", {"help": "matrix document (text rows or JSON)"}),
    )
    subcommand(
        "selfcheck",
        "cross-validate the spectrum against brute force",
        selfcheck,
        max_n(12, f"largest dimension to check, at most {SELFCHECK_LIMIT}"),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, status = args.run(args)
        if args.output is None:
            # flushed here, so that a closed pipe raises inside main
            print(text, flush=True)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except BrokenPipeError:
        # the reader is gone: say nothing, and let the flush at exit
        # write what is still buffered to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (MatrixInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
