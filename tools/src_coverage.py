"""The lines of the repository's src/ that a test run never executes.

    python3 tools/src_coverage.py [pytest arguments ...]

Runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`,
or pytest with the arguments given) under a stdlib line tracer and
prints, per file of src/, the executable lines that no process ran, as
ranges, then a total row.  It then lists the public functions and
methods of src/ that no frame of src/ or perfbench/ called: each ran
from other callers only (tests, or the standard library), or never.
The tracer is a generated `sitecustomize` module put first on
PYTHONPATH, so every Python process the suite starts with that
environment, each `python -m vdfield.cli` child included, traces itself
too; each writes its lines and calls to a scratch directory when it
exits.  A line is executable when a code object of its file starts an
instruction on it.  Tracing makes the suite several times slower.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-q", "--continue-on-collection-errors"]

# The tracer each process runs from its start: it records the lines of
# files under src only, and leaves every other frame untraced.  For each
# function of src it also records whether a frame of another function, of
# a file under one of the library directories (src among them), called it.
_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_SRC, _LIB, _OUT = {src!r}, {lib!r}, {out!r}
_hits = set()
_calls = {{}}  # code object -> whether a library frame called it


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_SRC):
        _hits.add((code.co_filename, frame.f_lineno))
        if not _calls.get(code):
            back = frame.f_back
            _calls[code] = (back is not None and back.f_code is not code
                            and back.f_code.co_filename.startswith(_LIB))
        return _line
    return None


@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.writelines(f"{{f}}\\t{{n}}\\n" for f, n in _hits)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.calls"), "a") as fh:
        fh.writelines(f"{{c.co_filename}}\\t{{c.co_firstlineno}}\\t{{c.co_qualname}}\\t{{int(lib)}}\\n"
                      for c, lib in _calls.items())


sys.settrace(_call)
threading.settrace(_call)
'''


def _prefix(path: Path) -> str:
    return str(path.resolve()) + os.sep


def sitecustomize_source(src: Path, out: Path, lib: tuple = ()) -> str:
    """A sitecustomize module that traces the lines of files under src
    and writes them to out/<pid>.txt at exit, and the functions of src it
    called to out/<pid>.calls, each marked 1 if a frame of a file under
    src or a directory of lib called it."""
    return _SITECUSTOMIZE.format(src=_prefix(src), lib=tuple(map(_prefix, (src, *lib))),
                                 out=str(out.resolve()))


def code_objects(path: Path):
    """The code objects of the file: its module's and every one nested in it."""
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        yield code


def executable_lines(path: Path) -> set:
    """The lines on which some code object of the file starts an instruction."""
    return {line for code in code_objects(path) for _, _, line in code.co_lines() if line}


def read_hits(out: Path) -> dict:
    """filename -> the set of lines some traced process ran."""
    hits: dict = {}
    for dump in out.glob("*.txt"):
        for row in dump.read_text().splitlines():
            name, line = row.rsplit("\t", 1)
            hits.setdefault(name, set()).add(int(line))
    return hits


def read_calls(out: Path) -> dict:
    """(filename, first line, qualified name) -> whether a library frame
    called that function in some traced process."""
    calls: dict = {}
    for dump in out.glob("*.calls"):
        for row in dump.read_text().splitlines():
            name, first, qualname, lib = row.split("\t")
            key = (name, int(first), qualname)
            calls[key] = calls.get(key, False) or lib == "1"
    return calls


def public_functions(path: Path) -> list:
    """(first line, qualified name) of each function and method of the
    file whose own name is public, nested functions left out."""
    return sorted((code.co_firstlineno, code.co_qualname) for code in code_objects(path)
                  if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith(("_", "<"))
                  and "<locals>" not in code.co_qualname)


def not_called_from_lib(src: Path, calls: dict) -> list:
    """(relative path, first line, qualified name, "other callers" or
    "never") of each public function under src that no library frame
    called: tests, or the standard library, called it, or nothing did."""
    out = []
    for path in sorted(src.rglob("*.py")):
        for first, qualname in public_functions(path):
            lib = calls.get((str(path.resolve()), first, qualname))
            if not lib:
                out.append((str(path.relative_to(src)), first, qualname,
                            "never" if lib is None else "other callers"))
    return out


def missed(src: Path, hits: dict) -> dict:
    """Relative path -> (executable lines, the sorted ones no process ran),
    for each .py file under src."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        lines = executable_lines(path)
        out[str(path.relative_to(src))] = (lines, sorted(lines - hits.get(str(path.resolve()), set())))
    return out


def ranges(lines: list) -> str:
    """Sorted line numbers as '3-5, 9'."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def traced_run(argv: list, src: Path, cwd: Path, pythonpath: list, lib: tuple = ()) -> tuple:
    """Run argv with the tracer of src's files in every Python process it
    starts: (exit status, filename -> lines ran, the calls of read_calls
    with src and lib as the library)."""
    with tempfile.TemporaryDirectory(prefix="src_coverage-") as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(sitecustomize_source(src, out, lib))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(site), *map(str, pythonpath), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
        status = subprocess.run(argv, cwd=cwd, env=env).returncode
        return status, read_hits(out), read_calls(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = ROOT / "src"
    status, hits, calls = traced_run([sys.executable, "-m", "pytest", *(args or TIER1)],
                                     src, ROOT, [src], (ROOT / "perfbench",))
    total = unrun = 0
    print(f"{'file':<24}{'lines':>7}{'unrun':>7}  unrun lines")
    for name, (lines, never) in missed(src, hits).items():
        total, unrun = total + len(lines), unrun + len(never)
        print(f"{name:<24}{len(lines):>7}{len(never):>7}  {ranges(never)}")
    print(f"{'total':<24}{total:>7}{unrun:>7}  (pytest exit {status})")
    rows = not_called_from_lib(src, calls)
    print(f"\npublic functions no src/ or perfbench/ frame called: {len(rows)}")
    for name, first, qualname, how in rows:
        print(f"  {name}:{first}  {qualname}  ({how})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
