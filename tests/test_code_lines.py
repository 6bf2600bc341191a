"""``tools/code_lines.py``: the code-line count that CHANGES.md quotes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts


class A:
    """One line."""

    # a comment line does not count
    x = """a string that is no docstring"""

    def f(self):
        """Spans
        three lines."""
        return math.pi
'''


def test_blank_lines_comments_and_docstrings_do_not_count():
    assert code_lines.code_lines(SOURCE) == 5


def test_it_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     5  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "     6  total"]
