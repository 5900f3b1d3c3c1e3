"""tools/code_lines.py on canned sources."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its code line

# a comment line


def area(r):
    """Function docstring."""
    text = """a multi-line string
    that is not a docstring"""
    return math.pi * r * r, text


class Shape:
    """Class docstring
    over two lines.
    """

    sides = (
        3,

        4)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, the two lines of the string, return, class, and the
    # three non-blank lines of the tuple
    assert code_lines.code_lines(SOURCE) == 9


def test_cli_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("# only a comment\nx = 1\n\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py", "     9  b.py", "    10  total"]


def test_cli_needs_one_directory(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
