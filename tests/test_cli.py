import errno
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import ocbsl.bench
from ocbsl import parse, print_formula
from ocbsl.cli import _parser, _plain_command, main
from gen import random_formula


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_equivalent(capsys):
    code, out, _ = run(capsys, "check", "(a & b) | !(a & b)", "1")
    assert code == 0
    assert out.strip() == "equivalent"


def test_check_not_equivalent(capsys):
    code, out, _ = run(capsys, "check", "x | (x & y)", "x")
    assert code == 1
    assert out.strip() == "not-equivalent"


def test_check_parse_error(capsys):
    code, out, err = run(capsys, "check", "a |", "a")
    assert code == 2
    assert out == ""
    assert "error" in err and "bytes" in err
    # "\udcff" is how Python decodes the undecodable argv byte 0xff
    code, out, err = run(capsys, "check", "a", "\udcff")
    assert (code, out) == (2, "")
    assert err.startswith("error: right formula: unexpected character") and err.count("\n") == 1


def test_normalize(capsys):
    assert run(capsys, "normalize", "!!a")[1].strip() == "a"
    assert run(capsys, "normalize", "0 | a")[1].strip() == "a"
    out = run(capsys, "normalize", "a | (b | c)")[1].strip()
    assert sorted(out.split(" | ")) == ["a", "b", "c"]
    assert run(capsys, "normalize", "a | !a")[1].strip() == "1"


def test_normalize_parse_error(capsys):
    assert run(capsys, "normalize", "a &")[0] == 2


def test_normalize_round_trips_through_check(capsys):
    for text in ("a | (b & !c)", "!(p & q) | p", "0 | (x & 1)", "!!(m | n)"):
        normal = run(capsys, "normalize", text)[1].strip()
        assert run(capsys, "check", text, normal)[0] == 0


def test_batch_ok(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text(
        "# negative examples: absorption and distributivity fail\n"
        "x | (x & y) == x  # expect: neq\n"
        "x & (x | y) == x  # expect: neq\n"
        "x & (y | z) == (x & y) | (x & z)  # expect: neq\n"
        "\n"
        "a | b == b | a  # expect: eq\n"
        "a | b == b | a\n"
    )
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "5 checked, 2 equivalent, 0 violations, 0 errors" in out


def test_batch_violation(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("a == b  # expect: eq\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    assert "line 1" in out and "VIOLATION" in out


def test_batch_empty(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert "0 checked" in out


def test_batch_bad_line(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("a | b\na == b ==c\na | == b\na == b # expect: maybe\n")
    code, _, err = run(capsys, "batch", str(path))
    assert code == 2
    assert "line 1" in err and "line 2" in err and "line 3" in err
    assert "error: line 4: bad expectation 'maybe' (use eq or neq)\n" in err


def test_batch_accepts_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("a | b == b | a  # expect: eq\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run(capsys, "batch", str(path))
    assert (code, err) == (0, "")
    assert "1 checked, 1 equivalent, 0 violations, 0 errors" in out


def test_batch_missing_file(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("a == \xe9\n".encode("latin-1"))
    for path in ("/no/such/file", str(not_utf8)):
        code, out, err = run(capsys, "batch", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_tsv(capsys):
    argv = ("bench", "--family", "fig7", "--min-exp", "4", "--max-exp", "8", "--reps", "1")
    allocated = {}
    for flags, mode in (((), "smallest-first"), (("--no-size-scheduling",), "stored-order")):
        code, out, err = run(capsys, *argv, *flags)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# family=fig7"
        body = [line for line in lines[1:] if not line.startswith("#")]
        assert len(body) == 5
        for line in body:
            size, nanos, codes = line.split("\t")
            assert int(size) > 0 and int(nanos) > 0 and int(codes) > 0
        assert f"({mode})" in err and "fitted exponent" in err
        allocated[mode] = [int(line.split("\t")[2]) for line in body]
    # stored order codes the joins that smallest-first collapses structurally
    scheduled, stored = allocated["smallest-first"], allocated["stored-order"]
    assert all(s >= c for s, c in zip(stored, scheduled)) and stored[-1] > scheduled[-1], allocated


def test_bench_bad_range(capsys):
    for bad in (
        ["--min-exp", "8", "--max-exp", "4"],
        ["--min-exp", "3", "--max-exp", "4"],  # fewer than five sizes
        ["--min-exp", "3", "--max-exp", "8", "--reps", "0"],
        ["--min-exp", "0", "--max-exp", "5"],  # sizes repeat
        ["--family", "fig7", "--min-exp", "0", "--max-exp", "4"],  # all five sizes coincide
    ):
        code, out, err = run(capsys, "bench", "--family", "fig6", *bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_refuses_exponents_over_the_cap(capsys, monkeypatch):
    # an instance at 2^64 nodes would exhaust memory: refuse before building any
    build = ocbsl.bench.gen_family

    def guarded(family, n):
        assert n <= 2**20, f"gen_family asked for scale {n}"
        return build(family, n)

    monkeypatch.setattr(ocbsl.bench, "gen_family", guarded)
    code, out, err = run(capsys, "bench", "--family", "fig6", "--min-exp", "60", "--max-exp", "64")
    assert (code, out) == (2, "")
    assert err == f"error: exponent 64 exceeds the cap of {ocbsl.bench.MAX_EXP}\n"


def test_usage_error_exits_2(capsys):
    for argv in (
        [],
        ["frobnicate"],
        ["check", "a"],
        ["check", "a", "b", "c"],
        ["normalize"],
        ["bench", "--family", "nope", "--min-exp", "4", "--max-exp", "8"],
        ["bench", "--family", "fig6", "--min-exp", "x", "--max-exp", "8"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # help is no usage error: it goes to stdout and exits 0
    code, out, err = run(capsys, "check", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ocbsl check [-h] lhs rhs\n")


# The fuzz below mixes formulas, which give verdicts, with pieces of text:
# the grammar's tokens, the batch syntax, and characters that have broken
# command-line tools before (NUL, a lone surrogate, a form feed, a BOM).
FUZZ_PIECES = (
    "a", "x1", "0", "1", "!", "&", "|", "(", ")", " ", "==", "#", "expect:", " eq", " neq",
    "\n", "\x00", "\udcff", "\f", "\ufeff",
)


def _fuzz_formula(rng):
    return print_formula(random_formula(rng, rng.randint(1, 6), "ab"))


def _fuzz_text(rng):
    if rng.random() < 0.5:
        return _fuzz_formula(rng)
    return "".join(rng.choices(FUZZ_PIECES, k=rng.randint(0, 12)))


def _fuzz_arg(rng):  # half of them formulas
    kind = rng.randrange(3)
    if kind == 0:
        return _fuzz_formula(rng)
    text = _fuzz_text(rng)
    return text if kind == 1 else "-" + text


def _fuzz_argv(rng, batch_path):
    """Mostly a command with as many arguments as it takes."""
    kind = rng.randrange(4)
    if kind == 0:
        return ["check", _fuzz_arg(rng), _fuzz_arg(rng)]
    if kind == 1:
        return ["normalize", _fuzz_arg(rng)]
    if kind == 2:
        return ["batch", batch_path]
    command = rng.choice(["check", "normalize", "batch", "frob", "", "-x", "--"])
    return [command, *(_fuzz_arg(rng) for _ in range(rng.randint(0, 3)))]


def _fuzz_line(rng):
    if rng.random() < 0.5:
        expect = rng.choice(["", " # expect: eq", " # expect: neq"])
        return f"{_fuzz_formula(rng)} == {_fuzz_formula(rng)}{expect}\n"
    return rng.choice(FUZZ_PIECES)


def test_cli_contract_on_random_argvs(tmp_path):
    rng = random.Random(16)
    batch_file = tmp_path / "pairs.txt"
    for _ in range(300):
        argv = _fuzz_argv(rng, str(batch_file))
        content = "".join(_fuzz_line(rng) for _ in range(rng.randint(0, 6)))
        # "\udcff" in the file is the byte 0xff, so some files are not UTF-8
        batch_file.write_bytes(content.encode("utf-8", "surrogateescape"))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, content)
        plain = _plain_command(argv)
        if plain is not None:  # the direct dispatch reads the argv as the parser does
            fields = vars(_parser().parse_args(argv))
            del fields["command"]
            assert plain == (fields.pop("func"), fields), argv


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ocbsl", "check", "!(a & b)", "!a | !b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "equivalent"


def test_cli_imports_only_the_standard_library():
    # the CLI has no runtime dependencies, so start-up loads none
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ocbsl.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'ocbsl'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


# `dataclasses` pulls in inspect, ast and dis; `statistics` pulls in fractions
# and decimal.  Together they cost more start-up than a check takes.
HEAVY_STDLIB = ("ast", "dataclasses", "decimal", "dis", "fractions", "inspect", "statistics")


@pytest.mark.parametrize("modules", ["ocbsl.cli", "ocbsl.rewrite, ocbsl.semantics"])
def test_import_leaves_heavy_stdlib_modules_out(modules):
    # only modules the import newly loads count, so site hooks do not
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {modules}\n"
        f"print(sorted((set(sys.modules) - before) & set({HEAVY_STDLIB!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# What only `bench`, help and usage errors need: a check does without them.
PARSER_MODULES = ("argparse", "gettext", "ocbsl.bench")


def _run_in_one_process(argvs):
    """Exit codes of `main` on each argv in one fresh process, and the
    PARSER_MODULES that importing `ocbsl.cli` and running them newly loaded."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import ocbsl.cli\n"
        f"codes = [ocbsl.cli.main(argv) for argv in {argvs!r}]\n"
        f"print(json.dumps([codes, sorted((set(sys.modules) - before) & set({PARSER_MODULES!r}))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_plain_commands_load_no_parser(tmp_path):
    # start-up is most of a check, and argparse and the bench module would be most of main
    path = tmp_path / "pairs.txt"
    path.write_text("a | b == b | a\n", encoding="utf-8")
    plain = [["check", "a", "a"], ["normalize", "a"], ["batch", str(path)]]
    assert _run_in_one_process(plain) == [[0, 0, 0], []]
    bench = ["bench", "--family", "fig6", "--min-exp", "4", "--max-exp", "8", "--reps", "1"]
    codes, loaded = _run_in_one_process([bench])
    assert codes == [0] and "ocbsl.bench" in loaded


def test_normalize_output_parses():
    # ensure printed normal forms stay inside the surface grammar
    proc = subprocess.run(
        [sys.executable, "-m", "ocbsl", "normalize", "!(a & (b | !c)) | 0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    parse(proc.stdout.strip())


# The environment of the child processes below.  PYTHONUNBUFFERED=1 would
# hide the default case: a line that a buffered stream failed to write is
# flushed again at exit, and a second failure there exits 120.
BUFFERED_ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def _run_cli(argv, stdout):
    return subprocess.run(
        [sys.executable, "-m", "ocbsl", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV
    )


def _cli_argvs(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("a | b == b | a\n" * 2000, encoding="utf-8")
    return [
        ["check", "a", "a"],
        ["normalize", "a | b"],
        ["batch", str(path)],
        ["bench", "--family", "fig6", "--min-exp", "4", "--max-exp", "8", "--reps", "1"],
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_output_exits_2(tmp_path):
    # a full disk must not crash into exit 1, which reads as a verdict
    for argv in _cli_argvs(tmp_path):
        with open("/dev/full", "w") as full:
            proc = _run_cli(argv, full)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, proc.stderr


def test_closed_pipe_exits_2(tmp_path):
    # `ocbsl batch big.txt | head -1`: the reader is gone before the output
    argv = _cli_argvs(tmp_path)[2]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(argv, write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_closed_stdout_exits_2(tmp_path, monkeypatch, capsys):
    # `ocbsl check a a >&-` starts with sys.stdout None; writing to it must
    # not crash into exit 1, which reads as a verdict
    path = tmp_path / "pairs.txt"
    path.write_text("a | b == b | a\n", encoding="utf-8")
    argvs = [["check", "a", "a"], ["check", "a", "b"], ["normalize", "a"], ["batch", str(path)]]
    argvs.append(["bench", "--family", "fig6", "--min-exp", "4", "--max-exp", "6", "--reps", "1"])
    monkeypatch.setattr(sys, "stdout", None)
    for argv in argvs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert err == "error: cannot write output: stdout is closed\n", (argv, err)


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # exit 1 is "not equivalent"; running out of room must not be read as it
    from ocbsl import Session

    path = tmp_path / "pairs.txt"
    path.write_text("a | b == b | a\n", encoding="utf-8")

    def boom(self, ref):
        raise MemoryError

    monkeypatch.setattr(Session, "normalize", boom)
    for argv in (["check", "a", "a"], ["normalize", "a | b"], ["batch", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: out of memory\n", err


class _RefusingStream(io.TextIOBase):
    """A stream whose every write fails, as on a bad descriptor or a full disk."""

    def __init__(self, code):
        self.code = code

    def write(self, text):
        raise OSError(self.code, os.strerror(self.code))


def _timings_masked(out):
    """bench's TSV with its clock readings blanked; any other output as is."""
    return re.sub(r"fitted_exponent=\S+", "fitted_exponent=*", re.sub(r"(?m)^(\d+)\t\d+\t", r"\1\t*\t", out))


def _main_with_stderr(argv, stderr):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(stderr):
        code = main(argv)
    return code, _timings_masked(out.getvalue())


@pytest.mark.parametrize("stderr", [None, errno.EBADF, errno.ENOSPC], ids=["closed", "bad-descriptor", "full"])
def test_unwritable_stderr_changes_no_code_or_output(tmp_path, stderr):
    # a diagnostic goes to stderr or nowhere: never to stdout, never into the exit code
    clean, bad = tmp_path / "clean.txt", tmp_path / "bad.txt"
    clean.write_text("a | b == b | a\n", encoding="utf-8")
    bad.write_text("a == a\nb ==\nc == c\n", encoding="utf-8")
    argvs = {
        ("check", "a", "a"): 0,
        ("check", "a", "b"): 1,
        ("check", "a", "b("): 2,
        ("normalize", "a"): 0,
        ("normalize", "a &"): 2,
        ("batch", str(clean)): 0,
        ("batch", str(bad)): 2,
        ("batch", str(tmp_path / "missing.txt")): 2,
        ("bench", "--family", "fig6", "--min-exp", "4", "--max-exp", "8", "--reps", "1"): 0,
        ("bench", "--family", "fig6", "--min-exp", "8", "--max-exp", "4"): 2,
        ("frob",): 2,
    }
    stream = stderr if stderr is None else _RefusingStream(stderr)
    for argv, expected in argvs.items():
        err = io.StringIO()
        code, out = _main_with_stderr(list(argv), err)
        assert code == expected, (argv, err.getvalue())
        assert _main_with_stderr(list(argv), stream) == (code, out), argv


# Redirections as a shell writes them, for a process started with the
# interpreter itself: a launcher script in between would reuse descriptor 2.
STDOUT_REDIRECTS = {"open": "", "closed": ">&-", "full": ">/dev/full"}
STDERR_REDIRECTS = {"closed": "2>&-", "full": "2>/dev/full"}


@pytest.mark.skipif(not (os.path.exists("/dev/full") and shutil.which("sh")), reason="needs sh and /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_stderr_in_a_process(unbuffered):
    env = dict(BUFFERED_ENV, PYTHONUNBUFFERED="1") if unbuffered else BUFFERED_ENV
    bench = ["bench", "--family", "fig6", "--min-exp", "4", "--max-exp", "8", "--reps", "1"]
    for argv, code, first_line in (
        (["check", "a", "a"], 0, "equivalent"),
        (["check", "a", "b("], 2, None),
        (bench, 0, "# family=fig6"),
    ):
        for (out_name, out_redirect), (err_name, err_redirect) in itertools.product(
            STDOUT_REDIRECTS.items(), STDERR_REDIRECTS.items()
        ):
            proc = subprocess.run(
                ["sh", "-c", f'exec "$0" -m ocbsl "$@" {out_redirect} {err_redirect}', sys.executable, *argv],
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            cell = (argv[0], argv[-1], out_name, err_name)
            if out_name == "open":
                assert proc.returncode == code, cell
                lines = proc.stdout.splitlines()
                assert lines[:1] == ([first_line] if first_line else []), (cell, proc.stdout)
                assert not any(line.startswith("error:") or "fitted exponent" in line for line in lines), cell
            else:
                assert (proc.returncode, proc.stdout) == (2, ""), cell
