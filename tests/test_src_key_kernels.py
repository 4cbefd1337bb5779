"""One code path for lattice-key, index and group-element arithmetic,
checked on the parse tree of src/, so nothing has to run: eval is called
once, in valgroup._tuple_kernel; every _tuple_kernel call passes one of
valgroup's module templates, so only a length and a fixed template
reach eval, never field or config data; and valgroup, gridseries and
diffpoly compute no value, key or index by map(add, ...) or by a tuple
comprehension of per-coordinate arithmetic.  (A key's conversion to its
value, one Fraction or quotient per coordinate, is not key arithmetic.)"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_KEY_MODULES = ("vdfield/valgroup.py", "vdfield/gridseries.py", "vdfield/diffpoly.py")
_OPERATORS = {"add", "sub", "mul", "floordiv", "truediv", "neg"}
_TEMPLATES = {"_ADD", "_SUB", "_NEG", "_SCALE", "_FLOOR"}  # valgroup's module templates


def _name(node) -> str:
    """The called name of a Name or an Attribute (operator.add -> add)."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _eval_calls(tree: ast.AST) -> list:
    """(enclosing function or None, line) of each eval or exec call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _name(child.func) in ("eval", "exec"):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def _tuple_arithmetic(tree: ast.AST) -> list:
    """The lines of map(<operator>, ...) calls and of tuple(...) over a
    comprehension whose element is an arithmetic operation."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _name(node.func) == "map" and node.args and _name(node.args[0]) in _OPERATORS:
            found.append(node.lineno)
        elif (_name(node.func) == "tuple" and node.args
              and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp))
              and isinstance(node.args[0].elt, (ast.BinOp, ast.UnaryOp))):
            found.append(node.lineno)
    return found


def _kernel_calls(tree: ast.AST) -> tuple:
    """(the lines of _tuple_kernel calls, the lines of those among them
    whose template is not one of valgroup's module templates, by its name)."""
    calls, unfixed = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "_tuple_kernel":
            calls.append(node.lineno)
            term = [k.value for k in node.keywords if k.arg == "term"] + node.args[1:2]
            if len(term) != 1 or not isinstance(term[0], ast.Name) or term[0].id not in _TEMPLATES:
                unfixed.append(node.lineno)
    return sorted(calls), sorted(unfixed)


def test_the_checks_find_what_they_look_for():
    tree = ast.parse(
        "def f(k, j, m):\n"
        "    a = tuple(map(add, k, j)) + tuple(map(operator.mul, k, j))\n"
        "    b = tuple([x * m for x in k]) + tuple(x // m for x in k)\n"
        "    c = sum(map(mul, k, j)) + tuple(-x for x in k)\n"
        "    d = tuple(k[:2]) + tuple(Fraction(x, m) for x in k) + tuple(map(str, k))\n"
        "    return eval('k') + exec('')\n"
        "eval('1')\n")
    assert sorted(_tuple_arithmetic(tree)) == [2, 2, 3, 3, 4, 4]
    assert _eval_calls(tree) == [("f", 6), ("f", 6), (None, 7)]


def test_the_template_check_finds_a_template_built_from_data():
    tree = ast.parse(
        "def f(k, col, n, term):\n"
        "    a = _tuple_kernel(len(k), _ADD)(k, k) + valgroup._tuple_kernel(n, term=_FLOOR)(k, 2)\n"
        "    b = _tuple_kernel(n, 'a[{0}] * ' + str(col[0][1]))(k)\n"
        "    c = _tuple_kernel(n, f'a[{{0}}] * {col[0][1]}')(k) + _tuple_kernel(n, term)(k)\n"
        "    return a + b + c + _tuple_kernel(n, _DOT)(k) + _tuple_kernel(n)\n")
    assert _kernel_calls(tree) == ([2, 2, 3, 4, 4, 5, 5], [3, 4, 4, 5, 5])


def test_src_has_one_eval_in_the_kernel_builder():
    found = [(str(path.relative_to(_SRC)), function)
             for path in sorted(_SRC.rglob("*.py"))
             for function, _ in _eval_calls(ast.parse(path.read_text()))]
    assert found == [("vdfield/valgroup.py", "_tuple_kernel")]


def test_src_builds_every_kernel_from_a_module_template():
    found = {str(path.relative_to(_SRC)): _kernel_calls(ast.parse(path.read_text()))
             for path in sorted(_SRC.rglob("*.py"))}
    assert sum(len(calls) for calls, _ in found.values()) >= 8
    assert {name: unfixed for name, (_, unfixed) in found.items() if unfixed} == {}


def test_keys_and_indices_take_the_kernels():
    found = [f"{name}:{line}" for name in _KEY_MODULES
             for line in _tuple_arithmetic(ast.parse((_SRC / name).read_text()))]
    assert found == []
