"""Exact arithmetic in grid-presented valued differential fields.

The names below are exported lazily (PEP 562): ``import vdfield`` runs
no submodule, and the first use of a name imports the module that
defines it, so a ``vdf`` command loads only the layers it uses.
"""

import sys

_EXPORTS = {
    "valgroup": ("INFINITY", "ConvexSubgroup", "Cut", "GroupElement", "cut_stabilizer",
                 "quotient_map", "with_infinitesimal"),
    "gridseries": ("FieldInstance", "Generator", "Monomial", "Series", "laurent_ddt",
                   "laurent_tddt_coarse", "log_fragment", "transseries_fragment"),
    "diffpoly": ("DiffPoly", "DominantData", "add_conj", "comp_conj", "ddeg", "dominant",
                 "evaluate", "fnk", "gauss_val", "mul_conj"),
    "newton": ("PcSequence", "breakpoints", "flex_probe", "gamma_der", "ndeg", "ndeg_geq",
               "ndeg_in_cut", "ndeg_prec", "s_der", "tropical_ddeg"),
    "coarsen": ("Coarsening", "coarse_val", "coarsen", "coarsened_gamma_der", "lift_val"),
    "hsolve": ("LinearOperator", "SolveTrace", "asym_integrate", "apply_op", "check_bll",
               "demo_nonuniqueness", "lambda_series", "op_A", "op_B", "psi_map",
               "solve_linear"),
    "expr": ("parse_expr", "parse_poly", "parse_series", "print_expr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # __import__, unlike importlib.import_module, runs under -X importtime's log
    if name in _MODULE_OF:
        value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    elif name in _EXPORTS or name == "errors":
        # the submodules the package used to import eagerly
        value = __import__(f"{__name__}.{name}", fromlist=[name])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


class _Package(type(sys)):
    """Importing the submodule vdfield.coarsen binds it on the package
    under the name of the exported function coarsen; keep the function."""

    def __setattr__(self, name, value):
        if value is sys.modules.get(f"{__name__}.{name}") and name in _MODULE_OF:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
