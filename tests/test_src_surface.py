"""Every public function, class and method in src/ is reached from
somewhere other than itself: another src/ definition or module line, an
_EXPORTS name of vdfield/__init__.py, or perfbench/*.py, by name or by
attribute.  A definition that only tests call is a test oracle and lives
in tests/.  Checked on the parse tree, so nothing has to run."""

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_SRC = _REPO / "src"

# Public definitions no reference reaches, each with the reason it stays.
_ALLOWED = {
    "Series.coefficient": "the public reader of a series' term map, "
                          "whose keys are the private _lattice_key normal form",
    "DiffPoly.coefficient": "the public reader of a polynomial's term map, "
                            "whose indices are the private _pad normal form",
    "_ArgumentParser.error": "argparse calls it on a malformed command line",
}


def _definitions(tree: ast.AST) -> list:
    """(qualified name, node) of each module-level function and class and
    each method of a module-level class, public or not."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{child.name}", child) for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return out


def _references(tree: ast.AST) -> list:
    """(name, enclosing definition nodes) of each Name and each attribute
    in the tree, an attribute also as Owner.attr when its owner ends in a
    name (vd.diffpoly.DiffPoly.from_coeff as DiffPoly.from_coeff); an
    import binds a name but does not use it."""
    found = []

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            inner = owners
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = owners | {id(child)}
            elif isinstance(child, ast.Name):
                found.append((child.id, owners))
            elif isinstance(child, ast.Attribute):
                found.append((child.attr, owners))
                owner = getattr(child.value, "id", getattr(child.value, "attr", None))
                if owner is not None:
                    found.append((f"{owner}.{child.attr}", owners))
            visit(child, inner)

    visit(tree, frozenset())
    return found


def _static(qualname: str, node: ast.AST) -> bool:
    """Whether the definition is a static or class method."""
    return "." in qualname and any(getattr(d, "id", None) in ("staticmethod", "classmethod")
                                   for d in node.decorator_list)


def _unreferenced(src: dict, outside: list, exported: set) -> list:
    """The qualified names of the public definitions in the src trees
    (by file name) that no reference reaches, beyond their own bodies.  A
    static or class method is reached only as ClassName.name: a method of
    another class with its name, called on an instance, does not reach it."""
    outside_names = exported | {name for tree in outside for name, _ in _references(tree)}
    src_refs = [ref for tree in src.values() for ref in _references(tree)]
    missing = []
    for path, tree in src.items():
        for qualname, node in _definitions(tree):
            name = qualname if _static(qualname, node) else node.name
            if node.name.startswith("_") or name in outside_names:
                continue
            if not any(ref == name and id(node) not in owners for ref, owners in src_refs):
                missing.append(f"{path}:{qualname}")
    return missing


def _exported() -> set:
    tree = ast.parse((_SRC / "vdfield" / "__init__.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_EXPORTS"]]
    return {name for names in ast.literal_eval(value).values() for name in names}


def test_the_check_flags_a_planted_unreferenced_definition():
    lib = ast.parse(
        "def used(x):\n"
        "    return helper(x)\n"
        "def helper(x):\n"
        "    return x\n"
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0\n"
        "def exported():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.read()\n"
        "    def read(self):\n"
        "        return Box\n"
        "    def unread(self):\n"
        "        return self.unread()\n")
    bench = ast.parse("from lib import used, Box\nused(1)\nBox()\n")
    assert _unreferenced({"lib.py": lib}, [bench], {"exported"}) == [
        "lib.py:planted", "lib.py:Box.unread"]
    # an import alone is no use: without the calls, used is unreached too
    imports_only = ast.parse("from lib import used, Box\n")
    assert _unreferenced({"lib.py": lib}, [imports_only], {"exported"}) == [
        "lib.py:used", "lib.py:planted", "lib.py:Box", "lib.py:Box.unread"]


def test_a_static_method_counts_only_through_its_class():
    lib = ast.parse(
        "class Cut:\n"
        "    @staticmethod\n"
        "    def prefix(rank):\n"
        "        return Cut()\n"
        "    @classmethod\n"
        "    def whole(cls):\n"
        "        return cls()\n"
        "    @staticmethod\n"
        "    def empty():\n"
        "        return Cut()\n"
        "class Element:\n"
        "    def prefix(self, k):\n"
        "        return self\n"
        "def shift(gamma, cut):\n"
        "    return gamma.prefix(1), cut.whole()\n")
    # gamma.prefix is Element.prefix's name, and cut.whole an instance's call
    bench = ast.parse("import lib\nlib.shift(lib.Element(), None)\nlib.Cut.empty()\n")
    assert _unreferenced({"lib.py": lib}, [bench], set()) == ["lib.py:Cut.prefix", "lib.py:Cut.whole"]
    # through its class, from src or from outside, each is reached
    reached = ast.parse("from lib import Cut\nCut.prefix(2)\nCut.whole()\n")
    assert _unreferenced({"lib.py": lib}, [bench, reached], set()) == []


def test_every_public_src_definition_is_reached():
    src = {str(path.relative_to(_SRC)): ast.parse(path.read_text())
           for path in sorted(_SRC.rglob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted((_REPO / "perfbench").glob("*.py"))]
    missing = _unreferenced(src, bench, _exported())
    assert len(_ALLOWED) <= 3 and all(_ALLOWED.values())
    assert sorted(name.split(":")[1] for name in missing) == sorted(_ALLOWED), missing
