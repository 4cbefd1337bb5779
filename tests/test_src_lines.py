"""tools/src_lines.py: every physical line of a source counts as exactly
one of code, docstring, comment and blank."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", _ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring.

Its blank line is blank."""
# a comment
import os  # a trailing comment makes a code line

TEXT = """not a docstring

its lines are code, but its blank one is blank"""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return os.sep


def g():
    x = 1
    """A string after the first statement is code."""
    return x
'''


def test_sample_counts_by_kind():
    assert src_lines.count_source(SAMPLE) == {
        "code": 10, "docstring": 5, "comment": 1, "blank": 8}


def test_the_four_kinds_sum_to_the_physical_lines_of_every_src_file():
    rows = src_lines.count_tree(_ROOT / "src")
    assert rows
    for name, counts in rows.items():
        text = (_ROOT / "src" / name).read_text()
        assert sum(counts.values()) == len(text.splitlines()) == text.count("\n"), name
