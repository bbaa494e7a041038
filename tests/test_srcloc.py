"""The line counter ``tests/srcloc.py`` on a module whose counts are known."""

import srcloc

MODULE = '''"""A module docstring
on two lines."""

import os  # a comment

# a comment line


class Box:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """not a
        docstring"""
        return (text,
                os.sep)
'''


def test_counts_lines_code_lines_and_docstring_lines():
    # lines 1-2, 10 and 13-14 are docstrings; 4, 9, 12 and 15-18 are code
    assert srcloc.counts(MODULE) == (18, 7, 5)


def test_the_totals_row_sums_the_modules(capsys):
    assert srcloc.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    *modules, (name, *totals) = rows
    assert name == "total" and {row[0] for row in modules} == {path.name for path in srcloc.SRC.glob("*.py")}
    assert [int(total) for total in totals] == [sum(int(row[i]) for row in modules) for i in (1, 2, 3)]
