"""tools/src_size.py counts code lines without blank, comment and docstring lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its code line

# a comment line


class Thing:
    """Class docstring."""

    size = 3

    def grow(self, n):
        """Function docstring,

        over three lines."""
        # another comment
        text = """a string that is
not a docstring"""
        return self.size + n, text
'''


def test_counts_a_synthetic_module():
    # code: import, class, size, def, text (2 lines), return
    assert src_size.count(MODULE) == (len(MODULE.splitlines()), 7)


def test_prints_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert src_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "21", "7"], ["b.py", "3", "1"], ["total", "24", "8"]]
