"""The lines of the repository's src/ that a test run never executes.

    python3 tools/src_coverage.py [pytest arguments ...]

Runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`,
or pytest with the arguments given) under a stdlib line tracer and
prints, per file of src/, the executable lines that no process ran, as
ranges, then a total row.  The tracer is a generated `sitecustomize`
module put first on PYTHONPATH, so every Python process the suite starts
with that environment, each `python -m vdfield.cli` child included,
traces itself too; each writes its lines to a scratch directory when it
exits.  A line is executable when a code object of its file starts an
instruction on it.  Tracing makes the suite several times slower.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-q", "--continue-on-collection-errors"]

# The tracer each process runs from its start: it records the lines of
# files under src only, and leaves every other frame untraced.
_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_SRC, _OUT = {src!r}, {out!r}
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_SRC):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.writelines(f"{{f}}\\t{{n}}\\n" for f, n in _hits)


sys.settrace(_call)
threading.settrace(_call)
'''


def sitecustomize_source(src: Path, out: Path) -> str:
    """A sitecustomize module that traces the lines of files under src
    and writes them to out/<pid>.txt at exit."""
    return _SITECUSTOMIZE.format(src=str(src.resolve()) + os.sep, out=str(out.resolve()))


def executable_lines(path: Path) -> set:
    """The lines on which some code object of the file starts an instruction."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def read_hits(out: Path) -> dict:
    """filename -> the set of lines some traced process ran."""
    hits: dict = {}
    for dump in out.glob("*.txt"):
        for row in dump.read_text().splitlines():
            name, line = row.rsplit("\t", 1)
            hits.setdefault(name, set()).add(int(line))
    return hits


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


def traced_run(argv: list, src: Path, cwd: Path, pythonpath: list) -> tuple:
    """Run argv with the tracer of src's files in every Python process it
    starts: (exit status, filename -> lines ran)."""
    with tempfile.TemporaryDirectory(prefix="src_coverage-") as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(sitecustomize_source(src, out))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(site), *map(str, pythonpath), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
        status = subprocess.run(argv, cwd=cwd, env=env).returncode
        return status, read_hits(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = ROOT / "src"
    status, hits = traced_run([sys.executable, "-m", "pytest", *(args or TIER1)],
                              src, ROOT, [src])
    total = unrun = 0
    print(f"{'file':<24}{'lines':>7}{'unrun':>7}  unrun lines")
    for name, (lines, never) in missed(src, hits).items():
        total, unrun = total + len(lines), unrun + len(never)
        print(f"{name:<24}{len(lines):>7}{len(never):>7}  {ranges(never)}")
    print(f"{'total':<24}{total:>7}{unrun:>7}  (pytest exit {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
