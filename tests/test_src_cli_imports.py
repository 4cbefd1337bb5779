"""vdfield/cli.py reaches the library through one lazy loader, the
package's: it imports no module inside a function, and at module level
only the standard library and .errors (it binds the package itself, as
vd, from sys.modules).  Checked on the parse tree, so nothing has to
run."""

import ast
import sys
from pathlib import Path

_CLI = Path(__file__).resolve().parents[1] / "src" / "vdfield" / "cli.py"


def _imports(tree: ast.AST) -> list:
    """(enclosing function or None, module) of each import in the tree; a
    relative module keeps its dots (.errors)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Import):
                found.extend((function, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.append((function, "." * child.level + (child.module or "")))
            visit(child, function)

    visit(tree, None)
    return found


def _allowed_at_module_level(module: str) -> bool:
    return module in (".errors", "__future__") or module.split(".")[0] in sys.stdlib_module_names


def test_the_check_finds_imports():
    tree = ast.parse(
        "import json, vdfield as vd\n"
        "from .errors import VdfError\n"
        "def f():\n"
        "    from .expr import parse_poly\n"
        "    if True:\n"
        "        import vdfield.newton\n"
        "class C:\n"
        "    def g(self):\n"
        "        from . import diffpoly\n"
        "from .gridseries import val_strings\n")
    found = _imports(tree)
    assert found == [(None, "json"), (None, "vdfield"), (None, ".errors"), ("f", ".expr"),
                     ("f", "vdfield.newton"), ("g", "."), (None, ".gridseries")]
    assert [m for f, m in found if f is None and not _allowed_at_module_level(m)] == \
        ["vdfield", ".gridseries"]


def test_the_cli_imports_nothing_inside_a_function():
    found = _imports(ast.parse(_CLI.read_text()))
    assert [(f, m) for f, m in found if f is not None] == []


def test_the_cli_imports_only_the_standard_library_and_errors():
    modules = [m for _, m in _imports(ast.parse(_CLI.read_text()))]
    assert ".errors" in modules
    assert [m for m in modules if not _allowed_at_module_level(m)] == []
