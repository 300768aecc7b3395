"""The code-line counter of tools/code_lines.py on a fixture source, and its --loaded mode."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """One-line class docstring."""

    value = """a multi-line string
    that is not a docstring"""

    def method(self):
        """Method docstring.

        With a body.
        """
        x = (1 +
             2)
        "a bare string after the first statement"
        return x


async def run():
    r"""Raw docstring."""
    pass
'''

# import, class, value (two lines), def, x (two lines), bare string, return,
# async def, pass
FIXTURE_LINES = 11


def test_fixture_count():
    assert code_lines.code_lines(FIXTURE) == FIXTURE_LINES


def test_blank_and_comment_only_sources_count_zero():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n   \n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(FIXTURE_LINES), str(tmp_path / "a.py")],
        ["2", str(tmp_path / "b.py")],
        [str(FIXTURE_LINES + 2), "total"]]


def test_loaded_mode_counts_the_equichern_modules_a_run_imports(capsys):
    src = TOOL.parents[1] / "src" / "equichern"
    assert code_lines.main(["--loaded", "-c", "import equichern.polyeval"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    # polyeval imports ring, and the package's __init__ loads first
    names = ["__init__.py", "polyeval.py", "ring.py"]
    counts = [code_lines.code_lines((src / name).read_text(encoding="utf-8")) for name in names]
    assert lines == [*([str(n), str(src / name)] for n, name in zip(counts, names)),
                     [str(sum(counts)), "total"]]


def test_help_prints_the_usage_and_exits_0(capsys):
    for flag in ("-h", "--help"):
        assert code_lines.main([flag]) == 0
        out = capsys.readouterr().out
        assert "python3 tools/code_lines.py [PATH ...]" in out
        assert "--loaded" in out


def test_a_missing_path_exits_2_with_one_line(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    missing = tmp_path / "no_such_module.py"
    assert code_lines.main([str(tmp_path / "a.py"), str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"code_lines.py: no such file or directory: {missing}"]


def test_a_loaded_run_that_fails_exits_2_with_one_line(capsys):
    assert code_lines.main(["--loaded", "-c", "raise SystemExit(3)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["code_lines.py: python3 -c raise SystemExit(3) exited 3"]
