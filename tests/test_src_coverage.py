"""tools/src_coverage.py on a sample module: the lines a traced process
and its child ran, and the executable lines neither did."""

import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_coverage",
                                               _ROOT / "tools" / "src_coverage.py")
src_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_coverage)

SAMPLE = '''"""A sample module."""


def f(x):
    if x > 0:
        return [y for y in range(x)]
    return None


def g():
    try:
        raise ValueError
    except ValueError:
        pass
    return 2


def h():
    return 3
'''

# f runs in the parent, g only in a child process it starts
PROGRAM = ("import subprocess, sys, sample; sample.f(1); "
           "subprocess.run([sys.executable, '-c', 'import sample; sample.g()'], check=True)")


def test_executable_lines_of_the_sample(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert sorted(src_coverage.executable_lines(path)) == [
        1, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 18, 19]


def test_parent_and_child_are_traced(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "sample.py").write_text(SAMPLE)
    status, hits = src_coverage.traced_run([sys.executable, "-c", PROGRAM], src, tmp_path, [src])
    assert status == 0
    (lines, never), = src_coverage.missed(src, hits).values()
    # the untaken return of f and the body of h, which nothing calls
    assert never == [7, 19]
    assert len(lines) == 13


def test_ranges():
    assert src_coverage.ranges([]) == ""
    assert src_coverage.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
