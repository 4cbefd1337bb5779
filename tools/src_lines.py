"""The lines of the repository's src/ by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py

Each physical line of each .py file under src/ counts once, as the
first of these that holds:

* blank: it holds only whitespace (inside a string too);
* docstring: it lies within the first-statement string of a module,
  class or function, as `ast` finds it;
* comment: it holds a comment and no other token;
* code: any other line (a line inside a multi-line string that is not
  a docstring is code).

So the four kinds sum to the physical line count.  Prints one row per
file and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> dict:
    """The lines of one module's source by kind."""
    docstrings = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if not line.strip():
            kind = "blank"
        elif number in docstrings:
            kind = "docstring"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def count_tree(root: Path) -> dict:
    """path relative to root -> its counts, for every .py file under root."""
    return {str(path.relative_to(root)): count_source(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main() -> int:
    rows = count_tree(Path(__file__).resolve().parents[1] / "src")
    total = {k: sum(c[k] for c in rows.values()) for k in KINDS}
    width = max(len(name) for name in [*rows, "total"])
    print(f"{'file':<{width}}  {'lines':>6}" + "".join(f"  {k:>9}" for k in KINDS))
    for name, counts in [*rows.items(), ("total", total)]:
        print(f"{name:<{width}}  {sum(counts.values()):>6}"
              + "".join(f"  {counts[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
