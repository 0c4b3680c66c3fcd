"""Command-line front end.

Subcommands: ``spectrum`` (all attainable invariant-subspace counts for
a dimension), ``table`` (per-configuration breakdown), ``analyze``
(exact analysis of a rational matrix file) and ``selfcheck`` (internal
cross-validation).  Exit status contract: 0 success, 1 data error
(unreadable or malformed input, failed selfcheck), 2 usage error.
"""

import argparse
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from itertools import groupby

from .analyzer import count_invariant_subspaces, realize_config
from .exactalg import RationalMatrix
from .spectrum import (
    attainable_counts,
    attainable_counts_bruteforce,
    count_for_config,
    enumerate_configs,
)

# `spectrum` costs grow with |M_n| (under a second at n = 64); `table`
# prints one row per configuration, sum_r p(r) p(n - 2r): 468,342 rows at
# n = 40 and 51,491,111 at n = 64
SPECTRUM_MAX_N = 64
TABLE_MAX_N = 40
SELFCHECK_LIMIT = 16
ROUNDTRIP_LIMIT = 8

_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
# error messages quote at most this many characters of a token
QUOTE_CHARS = 40


class MatrixInputError(ValueError):
    """A matrix document that cannot be turned into a square rational
    matrix; the message names the offending row/column."""


def _quoted(token: str) -> str:
    if len(token) <= QUOTE_CHARS:
        return repr(token)
    return f"{token[:QUOTE_CHARS]!r}... ({len(token)} characters)"


def _parse_token(token: str, row: int, col: int) -> int | Fraction:
    match = _TOKEN.match(token)
    if not match:
        raise MatrixInputError(
            f"row {row}, column {col}: invalid rational token {_quoted(token)} "
            "(expected an integer or p/q)"
        )
    numerator, denominator = match.groups()
    try:
        if denominator is None:
            return int(numerator)
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError:
        raise MatrixInputError(
            f"row {row}, column {col}: zero denominator in {_quoted(token)}"
        ) from None
    except ValueError:
        # the interpreter's int-string conversion limit
        raise MatrixInputError(
            f"row {row}, column {col}: integer with more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _parse_text_rows(text: str) -> list[list[int | Fraction]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        rows.append(
            [
                _parse_token(tok, len(rows) + 1, col)
                for col, tok in enumerate(tokens, start=1)
            ]
        )
    return rows


def _parse_json_rows(text: str) -> list[list[int | Fraction]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixInputError(f"invalid JSON matrix document: {exc}") from None
    except RecursionError:
        raise MatrixInputError("JSON matrix document nests too deeply") from None
    except ValueError:
        # the interpreter's int-string conversion limit
        raise MatrixInputError(
            "JSON matrix document has an integer with more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if isinstance(doc, dict):
        doc = doc.get("rows")
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise MatrixInputError(
            'JSON matrix document must be a list of rows or {"rows": [...]}'
        )
    rows = []
    for i, row in enumerate(doc, start=1):
        parsed = []
        for j, cell in enumerate(row, start=1):
            if isinstance(cell, int) and not isinstance(cell, bool):
                parsed.append(cell)
            elif isinstance(cell, str):
                parsed.append(_parse_token(cell, i, j))
            else:
                raise MatrixInputError(
                    f"row {i}, column {j}: entry {_quoted(json.dumps(cell))} "
                    "is not an exact rational"
                )
        rows.append(parsed)
    return rows


def parse_matrix_document(text: str) -> RationalMatrix:
    """Parse a matrix document: whitespace-separated rows of integer or
    p/q tokens, or the JSON alternative (a list of rows, entries being
    ints or token strings)."""
    if text.lstrip()[:1] in ("[", "{"):
        rows = _parse_json_rows(text)
    else:
        rows = _parse_text_rows(text)
    try:
        return RationalMatrix(rows)
    except ValueError as exc:
        # no rows, or a row of the wrong length
        raise MatrixInputError(str(exc)) from None


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _report(command: str, input_obj: dict, digest: str, result: dict) -> str:
    document = {
        "command": command,
        "input": input_obj,
        "input_sha256": digest,
        "result": result,
    }
    return json.dumps(document, indent=2)


def _params_digest(input_obj: dict) -> str:
    canonical = json.dumps(input_obj, sort_keys=True, separators=(",", ":"))
    return _digest(canonical.encode("utf-8"))


def _spectrum_text(n: int) -> str:
    values = ", ".join(str(v) for v in attainable_counts(n))
    return f"M_{n} = {{{values}}}"


def cmd_spectrum(n: int, fmt: str) -> str:
    if fmt == "text":
        return _spectrum_text(n)
    input_obj = {"n": n}
    result = {"n": n, "values": [str(v) for v in attainable_counts(n)]}
    return _report("spectrum", input_obj, _params_digest(input_obj), result)


def _table_groups(n: int):
    # one group per r, the sum of the conjugate-pair parts; a row shows
    # those parts, then the real ones, with a 0 for an empty side
    def pairs_total(config):
        return sum(config.complex_pair_multiplicities)

    for r, configs in groupby(enumerate_configs(n), pairs_total):
        rows = []
        for c in configs:
            shown = (c.complex_pair_multiplicities or (0,)) + (
                c.real_multiplicities or (0,)
            )
            rows.append((shown, count_for_config(c)))
        yield r, n - 2 * r, rows


def cmd_table(n: int, fmt: str) -> str:
    if fmt == "text":
        lines = [f"n = {n}"]
        for r, s, rows in _table_groups(n):
            lines.append(f"r = {r}, s = {s}:")
            for composition, count in rows:
                body = ", ".join(str(p) for p in composition)
                lines.append(f"  ({body}) -> {count}")
        return "\n".join(lines)
    input_obj = {"n": n}
    groups = [
        {
            "r": r,
            "s": s,
            "rows": [
                {"composition": list(composition), "count": str(count)}
                for composition, count in rows
            ],
        }
        for r, s, rows in _table_groups(n)
    ]
    result = {"n": n, "groups": groups}
    return _report("table", input_obj, _params_digest(input_obj), result)


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

    if fmt == "text":
        lines = [f"matrix: {matrix.n} x {matrix.n}"]
        if not outcome.is_finite:
            lines.append("invariant subspaces: infinite")
        else:
            sig = outcome.signature
            lines.append(f"invariant subspaces: {outcome.count}")
            lines.append(
                f"real root multiplicities: {list(sig.real_multiplicities)}"
            )
            lines.append(
                "complex pair multiplicities: "
                f"{list(sig.complex_pair_multiplicities)}"
            )
            lines.append(f"dimension profile: {list(outcome.profile)}")
        return "\n".join(lines)

    if not outcome.is_finite:
        result = {"n": matrix.n, "finite": False}
    else:
        result = {
            "n": matrix.n,
            "finite": True,
            "count": str(outcome.count),
            "real_root_multiplicities": list(
                outcome.signature.real_multiplicities
            ),
            "complex_pair_multiplicities": list(
                outcome.signature.complex_pair_multiplicities
            ),
            "dimension_profile": [str(c) for c in outcome.profile],
        }
    return _report("analyze", {"path": path}, _digest(raw), result)


REFERENCE_SPECTRUM_4 = (3, 4, 5, 6, 8, 9, 12, 16)


def _selfcheck_results(max_n: int):
    for n in range(1, max_n + 1):
        counts = attainable_counts(n)
        ok = tuple(counts) == tuple(attainable_counts_bruteforce(n))
        yield f"spectrum n={n} matches brute force ({len(counts)} values)", ok
    if max_n >= 4:
        ok = tuple(attainable_counts(4)) == REFERENCE_SPECTRUM_4
        yield "spectrum n=4 matches the reference value", ok
    for n in range(1, min(max_n, ROUNDTRIP_LIMIT) + 1):
        total = 0
        ok = True
        for config in enumerate_configs(n):
            total += 1
            outcome = count_invariant_subspaces(realize_config(config))
            if outcome.count != count_for_config(config):
                ok = False
        yield f"analyzer round-trip n={n} ({total} configurations)", ok


def cmd_selfcheck(max_n: int, fmt: str) -> tuple[str, int]:
    results = list(_selfcheck_results(max_n))
    failures = sum(1 for _, ok in results if not ok)
    if fmt == "text":
        lines = [
            f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in results
        ]
        if failures:
            lines.append(f"{failures} of {len(results)} checks FAILED")
        else:
            lines.append(f"all {len(results)} checks passed")
        return "\n".join(lines), 1 if failures else 0
    input_obj = {"max_n": max_n}
    result = {
        "checks": [{"name": name, "passed": ok} for name, ok in results],
        "all_passed": failures == 0,
    }
    report = _report("selfcheck", input_obj, _params_digest(input_obj), result)
    return report, 1 if failures else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invsub",
        description="Exact enumeration and counting of invariant subspaces of R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
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

    p_spectrum = sub.add_parser(
        "spectrum", help="all attainable invariant-subspace counts for dimension n"
    )
    p_spectrum.add_argument("n", type=_positive_int)
    p_spectrum.add_argument(
        "--max-n",
        type=_positive_int,
        default=SPECTRUM_MAX_N,
        help=f"refuse dimensions above this bound (default: {SPECTRUM_MAX_N})",
    )
    add_common(p_spectrum)

    p_table = sub.add_parser(
        "table", help="per-configuration table of counts for dimension n"
    )
    p_table.add_argument("n", type=_positive_int)
    p_table.add_argument(
        "--max-n", type=_positive_int, default=TABLE_MAX_N,
        help=f"refuse dimensions above this bound (default: {TABLE_MAX_N})",
    )
    add_common(p_table)

    p_analyze = sub.add_parser(
        "analyze", help="count invariant subspaces of a rational matrix file"
    )
    p_analyze.add_argument("path", help="matrix document (text rows or JSON)")
    add_common(p_analyze)

    p_selfcheck = sub.add_parser(
        "selfcheck", help="cross-validate the spectrum against brute force"
    )
    p_selfcheck.add_argument(
        "--max-n", type=_positive_int, default=12,
        help="largest dimension to check, at most "
        f"{SELFCHECK_LIMIT} (default: 12)",
    )
    add_common(p_selfcheck)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        # flushed here, so that a closed pipe raises inside main
        print(text, flush=True)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("spectrum", "table") and args.n > args.max_n:
        parser.error(
            f"n = {args.n} exceeds the maximum {args.max_n}; "
            "raise --max-n if you really mean it"
        )
    if args.command == "selfcheck" and args.max_n > SELFCHECK_LIMIT:
        parser.error(f"--max-n is capped at {SELFCHECK_LIMIT} for selfcheck")

    status = 0
    try:
        if args.command == "spectrum":
            text = cmd_spectrum(args.n, args.format)
        elif args.command == "table":
            text = cmd_table(args.n, args.format)
        elif args.command == "analyze":
            text = cmd_analyze(args.path, args.format)
        else:
            text, status = cmd_selfcheck(args.max_n, args.format)
        _emit(text, args.output)
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
