"""Command-line front end.

Subcommands:
    check <f> <g>      decide equivalence; exit 0 equivalent, 1 not, 2 bad input, out of memory
                       or output that cannot be written
    normalize <f>      print the canonical internal form of a formula
    batch <file>       check `lhs == rhs` lines, verify expect annotations
    bench ...          time a benchmark family and fit a scaling exponent

A check is one short process, so start-up is most of its time.  A plain
`check LHS RHS`, `normalize F` or `batch PATH`, with no argument that
starts with `-`, goes straight to its command: it imports neither
`argparse` nor `ocbsl.bench`.  Every other argv goes through the parser,
which alone defines help and usage.  The modules this imports keep heavy
standard-library modules out: none uses `dataclasses`, and `bench`
imports `statistics` only when it runs.  `python -X importtime -m ocbsl
check a a` shows where start-up time goes (README, "Start-up").
"""

from __future__ import annotations

import os
import sys

from .dag import Arena, print_term
from .normalize import Session
from .syntax import ParseError, parse, to_internal

__all__ = ["main"]

EXIT_EQUIVALENT = 0
EXIT_DIFFERENT = 1
EXIT_ERROR = 2


def _to_null(stream) -> None:
    """Point a stream that refused a write at the null device: the interpreter
    flushes stdout and stderr at exit, and a line still buffered would fail
    there again and turn the exit code into 120."""
    try:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), stream.fileno())
    except OSError:  # no descriptor (an in-process caller's stream) or none left
        pass


def _say(line: str) -> None:
    """Write a line to stderr, the only code here that touches it.  A line
    stderr cannot take (closed at start, so None; a bad descriptor; a full
    disk) is dropped: it never reaches stdout nor changes the exit code."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(line + "\n")
    except OSError:
        _to_null(sys.stderr)


def _fail(message: str) -> int:
    _say("error: " + message)
    return EXIT_ERROR


def _parse_or_report(text: str, label: str) -> "object | None":
    try:
        return parse(text)
    except ParseError as exc:
        _say(f"error: {label}: {exc}")
        return None


def _cmd_check(lhs: str, rhs: str) -> int:
    left = _parse_or_report(lhs, "left formula")
    right = _parse_or_report(rhs, "right formula")
    if left is None or right is None:
        return EXIT_ERROR
    arena = Arena()
    session = Session(arena)
    same = session.equivalent(to_internal(left, arena), to_internal(right, arena))
    print("equivalent" if same else "not-equivalent")
    return EXIT_EQUIVALENT if same else EXIT_DIFFERENT


def _cmd_normalize(formula: str) -> int:
    f = _parse_or_report(formula, "formula")
    if f is None:
        return EXIT_ERROR
    arena = Arena()
    session = Session(arena)
    code = session.normalize(to_internal(f, arena))
    print(print_term(arena, session.extract_normal_form(code)))
    return 0


def _split_batch_line(line: str) -> tuple[str, str, str | None] | None:
    """(lhs, rhs, expect) of a payload line, or None for blank/comment."""
    text, _, comment = line.partition("#")
    text = text.strip()
    if not text:
        return None
    comment = comment.strip()
    expect = comment[len("expect:") :].strip() if comment.startswith("expect:") else None
    parts = text.split("==")
    if len(parts) != 2:
        raise ValueError("expected exactly one '==' separator")
    if expect is not None and expect not in ("eq", "neq"):
        raise ValueError(f"bad expectation {expect!r} (use eq or neq)")
    return parts[0].strip(), parts[1].strip(), expect


def _cmd_batch(path: str) -> int:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return _fail(str(exc))
    except UnicodeDecodeError:
        return _fail(f"{path}: not valid UTF-8")
    except ValueError as exc:  # a NUL in the name, which only an in-process caller can pass
        return _fail(f"bad file name: {exc}")
    arena = Arena()
    session = Session(arena)
    checked = equivalent_count = violations = errors = 0
    for lineno, raw in enumerate(lines, start=1):
        try:  # a bad line, in its layout or a formula, is one error (ParseError is a ValueError)
            payload = _split_batch_line(raw)
            if payload is None:
                continue
            lhs_text, rhs_text, expect = payload
            lhs, rhs = parse(lhs_text), parse(rhs_text)
        except ValueError as exc:
            _say(f"error: line {lineno}: {exc}")
            errors += 1
            continue
        same = session.equivalent(to_internal(lhs, arena), to_internal(rhs, arena))
        checked += 1
        equivalent_count += same
        verdict = "equivalent" if same else "not-equivalent"
        note = ""
        if expect is not None and (expect == "eq") != same:
            violations += 1
            note = f"  [VIOLATION: expected {expect}]"
        print(f"line {lineno}: {verdict}{note}")
    print(f"{checked} checked, {equivalent_count} equivalent, {violations} violations, {errors} errors")
    if errors:
        return EXIT_ERROR
    return EXIT_DIFFERENT if violations else 0


def _cmd_bench(family: str, min_exp: int, max_exp: int, reps: int, no_size_scheduling: bool) -> int:
    from .bench import report_tsv, run_bench

    if min_exp > max_exp:
        return _fail("--min-exp must not exceed --max-exp")
    try:
        report = run_bench(family, range(min_exp, max_exp + 1), reps=reps, size_scheduling=not no_size_scheduling)
    except ValueError as exc:  # run_bench rejects too few or repeated sizes, an exponent over MAX_EXP, or reps < 1
        return _fail(str(exc))
    sys.stdout.write(report_tsv(report))
    mode = "stored-order" if no_size_scheduling else "smallest-first"
    _say(
        f"{report.family} ({mode}): sizes {report.sizes[0]}..{report.sizes[-1]}, "
        f"fitted exponent {report.fitted_exponent:.3f}"
    )
    return 0


# The commands a plain argv may name: each one's function, the positional
# fields it takes, in order, and its help.
_PLAIN = {
    "check": (_cmd_check, ("lhs", "rhs"), "decide whether two formulas are equivalent"),
    "normalize": (_cmd_normalize, ("formula",), "print the canonical internal form"),
    "batch": (_cmd_batch, ("path",), "check a file of `lhs == rhs` lines"),
}


def _plain_command(argv: list[str]) -> "tuple[object, dict[str, str]] | None":
    """(command, fields) of a plain `check`, `normalize` or `batch` argv, as
    the parser would read it, or None for any argv that needs the parser."""
    if not argv or argv[0] not in _PLAIN:
        return None
    command, names, _ = _PLAIN[argv[0]]
    values = argv[1:]
    if len(values) != len(names) or any(value.startswith("-") for value in values):
        return None
    return command, dict(zip(names, values))


def _parser():
    """The parser of every argv, and the one definition of help and usage."""
    import argparse

    from .bench import FAMILIES, MAX_EXP

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            # one line, as every other error here; subparsers inherit this class
            self.exit(_fail(message))

    parser = _Parser(
        prog="ocbsl",
        description="Equivalence of and/or/not formulas up to distributivity, in quasilinear time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (command, names, help_text) in _PLAIN.items():
        p = sub.add_parser(name, help=help_text)
        for field in names:
            p.add_argument(field)
        p.set_defaults(func=command)

    p = sub.add_parser("bench", help="measure scaling on a benchmark family")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--min-exp", type=int, required=True, help="smallest size as a power of two")
    p.add_argument("--max-exp", type=int, required=True, help=f"largest size as a power of two, at most {MAX_EXP}")
    p.add_argument("--reps", type=int, default=5, help="repetitions per size (median is kept)")
    p.add_argument("--no-size-scheduling", action="store_true", help="normalize children in stored order")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    dispatch = _plain_command(argv)
    if dispatch is None:
        try:
            fields = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            # argparse exits 2 on usage errors, which matches the contract
            return int(exc.code or 0)
        del fields["command"]
        dispatch = fields.pop("func"), fields
    command, fields = dispatch
    if sys.stdout is None:  # started with stdout closed (`>&-`): no verdict can be written
        return _fail("cannot write output: stdout is closed")
    try:
        code = command(**fields)
        sys.stdout.flush()  # so that a full disk shows here, not after main returns
    except MemoryError as exc:
        # exit 1 means "not equivalent", so running out of room must not crash into it
        return _fail(str(exc) or "out of memory")
    except OSError as exc:
        # stdout refused the output (a full disk, a closed pipe); nor may this read as a verdict
        _to_null(sys.stdout)
        return _fail(f"cannot write output: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
