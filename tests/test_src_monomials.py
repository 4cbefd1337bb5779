"""Monomial is built in src/ only by FieldInstance.monomial_from_dict and
FieldInstance.monomial_of_value: every other step between a value, its
exponents and its lattice key reads the field's int rows.  Checked on the
parse tree, so nothing has to run."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_CONSTRUCTORS = {"monomial_from_dict", "monomial_of_value"}


def _monomial_calls(tree: ast.AST) -> list:
    """(enclosing function or None, line) of each call of Monomial, by name
    or as an attribute (gridseries.Monomial)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "Monomial":
                    found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_the_check_finds_calls():
    tree = ast.parse(
        "def monomial_of_value(v):\n"
        "    return Monomial(v)\n"
        "def f(m):\n"
        "    isinstance(m, Monomial)\n"
        "    return gridseries.Monomial(m) + [Monomial(x) for x in m]\n"
        "Monomial(())\n")
    assert _monomial_calls(tree) == [("monomial_of_value", 2), ("f", 5), ("f", 5), (None, 6)]


def test_src_builds_monomials_only_in_their_constructors():
    calls = [(str(path.relative_to(_SRC)), function, line)
             for path in sorted(_SRC.rglob("*.py"))
             for function, line in _monomial_calls(ast.parse(path.read_text()))]
    assert calls and {function for _, function, _ in calls} <= _CONSTRUCTORS
    assert all(path == "vdfield/gridseries.py" for path, _, _ in calls)
