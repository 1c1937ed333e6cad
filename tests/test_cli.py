import os
import subprocess
import sys

import pytest

import ocbsl.bench
from ocbsl import parse
from ocbsl.cli import main


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
    path.write_text("a | b\na == b ==c\na | == b\n")
    code, _, err = run(capsys, "batch", str(path))
    assert code == 2
    assert "line 1" in err and "line 2" in err and "line 3" in err


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
    code, out, err = run(
        capsys, "bench", "--family", "fig7", "--min-exp", "4", "--max-exp", "8", "--reps", "1"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# family=fig7"
    body = [line for line in lines[1:] if not line.startswith("#")]
    assert len(body) == 5
    for line in body:
        size, nanos, codes = line.split("\t")
        assert int(size) > 0 and int(nanos) > 0 and int(codes) > 0
    assert "fitted exponent" in err


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
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


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


def test_normalize_output_parses():
    # ensure printed normal forms stay inside the surface grammar
    proc = subprocess.run(
        [sys.executable, "-m", "ocbsl", "normalize", "!(a & (b | !c)) | 0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    parse(proc.stdout.strip())


def _run_cli(argv, stdout):
    return subprocess.run(
        [sys.executable, "-m", "ocbsl", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True
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
