"""The lint gate: `repro-branches lint` must be clean on the whole suite."""

import pytest

from repro.cli import main


def test_lint_whole_benchmark_suite_is_clean(capsys):
    exit_code = main(["lint", "--no-warnings"])
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "clean" in out
    assert "error" not in out


def test_lint_single_benchmark(capsys):
    exit_code = main(["lint", "--benchmarks", "wc"])
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "linted 1 program: clean" in out


def test_lint_reports_warnings_by_default(capsys):
    # grep carries a genuinely unreachable block before optimization;
    # lint surfaces it as a warning without failing the run.
    exit_code = main(["lint", "--benchmarks", "grep"])
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "[unreachable]" in out
    assert "clean" in out


def test_lint_broken_file_exits_non_zero(tmp_path, capsys):
    bad = tmp_path / "bad.asm"
    bad.write_text("func main:\n    li r1, 3\n    add r1, r1, r9\n"
                   "    puti r1\n")
    exit_code = main(["lint", "--file", str(bad)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "[fall-off-end]" in out
    assert "error" in out


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.asm"
    good.write_text("func main:\n    li r1, 3\n    puti r1\n    halt\n")
    exit_code = main(["lint", "--file", str(good)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "clean" in out


def test_lint_writes_report_to_file(tmp_path, capsys):
    output = tmp_path / "lint.txt"
    exit_code = main(["lint", "--benchmarks", "wc", "--output",
                      str(output)])
    assert exit_code == 0
    assert "clean" in output.read_text()
    assert "wrote" in capsys.readouterr().out


def test_lint_unknown_benchmark_exits_two(capsys):
    exit_code = main(["lint", "--benchmarks", "nosuch"])
    out = capsys.readouterr().out
    assert exit_code == 2
    assert "unknown benchmark" in out


def test_lint_missing_file_exits_two(tmp_path, capsys):
    exit_code = main(["lint", "--file", str(tmp_path / "nope.asm")])
    out = capsys.readouterr().out
    assert exit_code == 2
    assert "cannot load" in out


def test_lint_assembly_syntax_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "syntax.asm"
    bad.write_text("func main:\n    bogus r1\n")
    exit_code = main(["lint", "--file", str(bad)])
    out = capsys.readouterr().out
    assert exit_code == 2
    assert "unknown opcode" in out
