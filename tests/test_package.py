"""The package's lazy exports and what a cold `vdf` process imports.

Each check runs in a fresh interpreter, since the test session has
already imported every module."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# Every name vdfield/__init__.py exports, by the module that defines it:
# those it exported when it imported its modules eagerly, but lex_cmp,
# cut_contains and dwt, which restated <, Cut.contains and dominant(P).dwt.
EXPORTS = {
    "valgroup": ["INFINITY", "ConvexSubgroup", "Cut", "GroupElement", "cut_stabilizer",
                 "quotient_map", "with_infinitesimal"],
    "gridseries": ["FieldInstance", "Generator", "Monomial", "Series", "laurent_ddt",
                   "laurent_tddt_coarse", "log_fragment", "transseries_fragment"],
    "diffpoly": ["DiffPoly", "DominantData", "add_conj", "comp_conj", "ddeg", "dominant",
                 "evaluate", "fnk", "gauss_val", "mul_conj"],
    "newton": ["PcSequence", "breakpoints", "flex_probe", "gamma_der", "ndeg", "ndeg_geq",
               "ndeg_in_cut", "ndeg_prec", "s_der", "tropical_ddeg"],
    "coarsen": ["Coarsening", "coarse_val", "coarsen", "coarsened_gamma_der", "lift_val"],
    "hsolve": ["LinearOperator", "SolveTrace", "asym_integrate", "apply_op", "check_bll",
               "demo_nonuniqueness", "lambda_series", "op_A", "op_B", "psi_map",
               "solve_linear"],
    "expr": ["parse_expr", "parse_poly", "parse_series", "print_expr"],
}

# What a command that uses no Newton degree, coarsening or solver, and
# `import vdfield.cli` itself, must not load.
NOT_LOADED = ["dataclasses", "inspect", "vdfield.newton", "vdfield.hsolve", "vdfield.coarsen"]


def _python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return proc


# After the prelude, compare every export with its module's attribute;
# then import the submodule vdfield.coarsen, which binds it on the
# package, and compare again.  Prints the names that differ, twice.
_CHECK = """
    import importlib, json, sys
    exports = json.loads(sys.argv[1])

    def mismatches():
        import vdfield
        return [f"{{m}}.{{n}}" for m, names in exports.items() for n in names
                if getattr(vdfield, n) is not getattr(importlib.import_module("vdfield." + m), n)]

{prelude}
    before = mismatches()
    import vdfield.coarsen
    print(json.dumps([before, mismatches()]))
"""


@pytest.mark.parametrize("prelude", [
    "",
    "import vdfield.coarsen",
    "import vdfield; vdfield.coarsen",
    "from vdfield.coarsen import coarsen",
    "import contextlib, io; from vdfield.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    run(['coarsen', '--field', 'laurent_tddt_coarse', '--prefix-len', '1'])",
], ids=["fresh", "import-submodule", "export-first", "from-submodule", "vdf-coarsen"])
def test_every_export_is_its_module_attribute(prelude):
    script = textwrap.dedent(_CHECK.format(prelude=textwrap.indent(prelude, "    ")))
    assert json.loads(_python("-c", script, json.dumps(EXPORTS)).stdout) == [[], []]


def test_the_coarsen_export_is_the_function():
    out = _python("-c", "import vdfield.coarsen, vdfield; print(callable(vdfield.coarsen), "
                  "type(vdfield.coarsen).__name__)").stdout.split()
    assert out == ["True", "function"]


def test_a_star_import_binds_every_export_and_nothing_else():
    # __all__ names the lazy exports, which import * cannot see otherwise
    bound, kind = json.loads(_python("-c", textwrap.dedent("""
        from vdfield import *
        bound = dir()
        import json
        print(json.dumps([bound, type(coarsen).__name__]))
    """)).stdout)
    names = sorted(n for n in bound if not n.startswith("__"))
    assert names == sorted(n for ns in EXPORTS.values() for n in ns) and len(names) == 55
    assert kind == "function"


def test_dir_lists_every_export():
    names = json.loads(_python("-c", "import json, vdfield; print(json.dumps(dir(vdfield)))")
                       .stdout)
    assert {n for ns in EXPORTS.values() for n in ns} | {"__version__"} <= set(names)


def test_a_submodule_is_an_attribute_and_an_unknown_name_is_not():
    out = _python("-c", "import vdfield\nprint(vdfield.hsolve.__name__)\ntry:\n"
                  "    vdfield.no_such_name\nexcept AttributeError as e:\n    print(e)")
    assert out.stdout.splitlines() == [
        "vdfield.hsolve", "module 'vdfield' has no attribute 'no_such_name'"]


# Runs `vdf ARGS...` as `python -m vdfield.cli ARGS...` does, then prints
# the modules the process loaded.
_VDF = textwrap.dedent("""
    import runpy, sys
    sys.argv = ["vdf", *sys.argv[1:]]
    try:
        runpy.run_module("vdfield.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert exit.code == 0, exit.code
    print(*sys.modules, file=sys.stderr)
""")


def _loaded(script, *args):
    """The modules a fresh interpreter has loaded after the script."""
    return set(_python("-c", script + "\nimport sys; print(*sys.modules, file=sys.stderr)",
                       *args).stderr.split())


def _vdf_loaded(*args):
    return set(_python("-c", _VDF, *args).stderr.split())


@pytest.mark.parametrize("loaded", [
    lambda: _loaded("import vdfield.cli"),
    lambda: _vdf_loaded("val", "--field", "laurent_ddt", "t^2 + t"),
    lambda: _vdf_loaded("ddeg", "--field", "laurent_ddt", "Y'^2 + t*Y"),
], ids=["import-cli", "vdf-val", "vdf-ddeg"])
def test_a_light_command_loads_no_heavy_module(loaded):
    extra = loaded() - _loaded("pass")
    assert "vdfield" in extra
    assert extra.isdisjoint(NOT_LOADED), sorted(extra & set(NOT_LOADED))


def test_the_package_import_runs_no_submodule():
    assert not any(m.startswith("vdfield.") for m in _loaded("import vdfield"))


@pytest.mark.parametrize("args, layer", [
    (["ndeg", "--field", "laurent_ddt", "Y'+Y"], "vdfield.newton"),
    (["coarsen", "--field", "laurent_tddt_coarse", "--prefix-len", "1"], "vdfield.coarsen"),
    (["solve", "--depth", "3"], "vdfield.hsolve"),
])
def test_a_command_loads_the_layer_it_uses(args, layer):
    assert layer in _vdf_loaded(*args)
    # and the interpreter's import-time log, a profile of the cold start, shows it
    log = _python("-X", "importtime", "-m", "vdfield.cli", *args).stderr
    assert any(line.split("|")[-1].strip() == layer for line in log.splitlines())


# The library layers: every vdfield module but the package, cli and errors.
LAYERS = {"vdfield.valgroup", "vdfield.gridseries", "vdfield.diffpoly", "vdfield.newton",
          "vdfield.coarsen", "vdfield.hsolve", "vdfield.expr", "vdfield.records"}


def test_the_cli_import_loads_only_errors_and_no_fractions():
    loaded = _loaded("import vdfield.cli")
    assert {m for m in loaded if m.startswith("vdfield.")} == {"vdfield.cli", "vdfield.errors"}
    assert "fractions" not in loaded


def test_help_loads_no_layer():
    loaded = _vdf_loaded("--help")
    assert "vdfield.errors" in loaded and loaded.isdisjoint(LAYERS), sorted(loaded & LAYERS)


@pytest.mark.parametrize("args, absent", [
    (["check-bll", "--depth", "4"], {"vdfield.expr", "vdfield.diffpoly"}),
    (["demo", "--depth", "4"], {"vdfield.expr", "vdfield.diffpoly"}),
    (["gamma-der", "--field", "transseries_fragment(2)"], {"vdfield.expr"}),
], ids=["check-bll", "demo", "gamma-der"])
def test_a_command_loads_no_layer_it_does_not_call(args, absent):
    loaded = _vdf_loaded(*args)
    assert "vdfield.hsolve" in loaded or "vdfield.newton" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & absent)


def test_a_lazy_export_is_logged_by_the_import_timer():
    # the package's __getattr__ imports under the interpreter's -X importtime log
    log = _python("-X", "importtime", "-c", "import vdfield; vdfield.ndeg").stderr
    assert any(line.split("|")[-1].strip() == "vdfield.newton" for line in log.splitlines())


def test_solve_without_rhs_loads_no_parser():
    loaded = _vdf_loaded("solve", "--depth", "8")
    assert "vdfield.hsolve" in loaded
    assert loaded.isdisjoint({"vdfield.expr", "vdfield.diffpoly"}), \
        sorted(loaded & {"vdfield.expr", "vdfield.diffpoly"})
