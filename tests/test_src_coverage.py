"""tools/src_coverage.py on sample modules: the lines a traced process
and its child ran, the executable lines neither did, and the public
functions that no library frame called."""

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
    status, hits, _ = src_coverage.traced_run([sys.executable, "-c", PROGRAM], src, tmp_path, [src])
    assert status == 0
    (lines, never), = src_coverage.missed(src, hits).values()
    # the untaken return of f and the body of h, which nothing calls
    assert never == [7, 19]
    assert len(lines) == 13


LIBRARY = '''"""A sample library."""


def reached(x):
    return x + 1


def planted(n):
    return planted(n - 1) if n else 0


def idle():
    return None


def _private():
    return 0


class Box:
    def read(self):
        return reached(1) + helper()

    def unread(self):
        return 2


def helper():
    def inner():
        return 3
    return inner()
'''

# the bench module, a library caller, reaches Box.read (and through it
# reached, helper and inner); the program, outside the library, plants
# calls of planted (which recurses into itself), Box.unread and _private
BENCH = "import library\nlibrary.Box().read()\n"
CALLER = "import bench, library; library.planted(2); library.Box().unread(); library._private()"


def test_functions_no_library_frame_called_are_listed(tmp_path):
    src, lib = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    lib.mkdir()
    (src / "library.py").write_text(LIBRARY)
    (lib / "bench.py").write_text(BENCH)
    status, _, calls = src_coverage.traced_run([sys.executable, "-c", CALLER], src, tmp_path,
                                               [src, lib], (lib,))
    assert status == 0
    assert src_coverage.public_functions(src / "library.py") == [
        (4, "reached"), (8, "planted"), (12, "idle"), (21, "Box.read"), (24, "Box.unread"),
        (28, "helper")]
    assert src_coverage.not_called_from_lib(src, calls) == [
        ("library.py", 8, "planted", "other callers"), ("library.py", 12, "idle", "never"),
        ("library.py", 24, "Box.unread", "other callers")]


def test_ranges():
    assert src_coverage.ranges([]) == ""
    assert src_coverage.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
