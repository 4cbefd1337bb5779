"""No floats in src/: no float literal and no float() call in any
source file, checked on the parse tree, so nothing has to run."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"


def _floats(tree: ast.AST) -> list:
    """The float literals (complex ones too) and float() calls in tree."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"]


def test_the_check_finds_literals_and_calls():
    tree = ast.parse("x = 1.5 + 2e3 + 1j + float(y) + int(z) + Fraction(1, 2)")
    assert len(_floats(tree)) == 4


def test_src_has_no_float_literal_or_call():
    files = sorted(_SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(_SRC)}:{node.lineno}"
             for path in files for node in _floats(ast.parse(path.read_text()))]
    assert found == []
