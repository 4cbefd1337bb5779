"""In-memory tracing of vdfield's public functions, installed from outside.

A :class:`Tracer` replaces public functions and methods of the vdfield
modules with wrappers.  A function is replaced in every vdfield module
that bound it (``newton`` and ``cli`` import ``comp_conj`` by name, for
example); a method is replaced on its class.  Nothing in ``src/`` is
edited and nothing is recorded until :meth:`Tracer.install` runs.

Three kinds of wrapper:

* span: layer-boundary functions (conjugations, Newton degrees, the
  solver, parsing, ...).  Each call appends a span (name, start, end,
  parent span, item id) to an in-memory list, written out at the end.
* timer: ``Series`` arithmetic and ``monomial_value``.  These run
  hundreds of thousands of times per item, so they keep aggregate call
  counts and self times instead of spans.
* counter: ``GroupElement`` comparison and arithmetic, ``Series``
  construction and cut membership, which only count calls.

Self time of a name is the time inside its calls minus the time inside
wrapped calls made from them (span or timer), so each layer is charged
only for its own code.  Counter wrappers are not timed; their cost is
charged to the caller.  All code runs in one thread, so there is no
waiting time to record.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from workloads import modules

_CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        self.item = "setup"
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # frames: [time spent in wrapped children, index of the open span]
        self._stack = [[0.0, -1]]
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, name, record, before=None, after=None):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            token = before(args) if before is not None else None
            parent = stack[-1]
            frame = [0.0, -1]
            if record:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _CLOCK()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                parent[0] += dur
                if record:
                    spans[frame[1]] = (name, t0, t1, parent[1], tracer.item)
            if after is not None:
                after(token, result)
            return result

        return wrapper

    def _leaf_timer(self, fn, name):
        """Timer for a function that calls no timed wrapper: no frame."""
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args):
            calls[name] += 1
            t0 = _CLOCK()
            result = fn(*args)
            dur = _CLOCK() - t0
            self_s[name] += dur
            stack[-1][0] += dur
            return result

        return wrapper

    def _counter(self, fn, name):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_function(self, module, attr, wrapper):
        """Replace module.attr in every loaded vdfield module that holds it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vdfield" or mod_name.startswith("vdfield.")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def install(self):
        """Wrap the public surface of every vdfield layer."""
        vd = modules()
        valgroup, gridseries, diffpoly, newton = vd.valgroup, vd.gridseries, vd.diffpoly, vd.newton
        coarsen, hsolve, expr, cli = vd.coarsen, vd.hsolve, vd.expr, vd.cli

        GE = valgroup.GroupElement
        for attr in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            self._patch_method(GE, attr, self._counter(GE.__dict__[attr], "valgroup.cmp"))
        for attr in ("__add__", "__sub__", "__neg__", "scale"):
            self._patch_method(GE, attr, self._counter(GE.__dict__[attr], "valgroup.arith"))
        self._patch_method(valgroup.Cut, "contains",
                           self._counter(valgroup.Cut.contains, "valgroup.cut_contains"))

        S = gridseries.Series
        F = gridseries.FieldInstance
        self._patch_method(S, "__init__", self._counter(S.__init__, "gridseries.series_built"))
        self._patch_method(F, "monomial_value",
                           self._leaf_timer(F.monomial_value, "gridseries.monomial_value"))
        counts = self.counts

        def mul_before(args):
            return len(args[0].terms) * len(args[1].terms)

        def mul_after(pairs, result):
            counts["gridseries.mul.term_pairs"] += pairs
            counts["gridseries.mul.kept_terms"] += len(result.terms)

        self._patch_method(S, "__mul__", self._timed(
            S.__mul__, "gridseries.mul", False, mul_before, mul_after))
        for attr, name in (("__add__", "gridseries.add"), ("derive", "gridseries.derive"),
                           ("invert", "gridseries.invert"), ("logder", "gridseries.logder")):
            self._patch_method(S, attr, self._timed(S.__dict__[attr], name, False))

        def fnk_before(args):
            return tuple(args) in diffpoly._fnk_memo

        def fnk_after(hit, _result):
            counts["diffpoly.fnk.hits"] += hit

        self._patch_function(diffpoly, "fnk", self._timed(
            diffpoly.fnk, "diffpoly.fnk", True, fnk_before, fnk_after))
        for attr in ("substitute", "comp_conj", "add_conj", "mul_conj", "dominant", "evaluate"):
            self._patch_function(diffpoly, attr, self._timed(
                getattr(diffpoly, attr), f"diffpoly.{attr}", True))

        def gamma_before(args):
            return getattr(args[0], "_gamma_der_cut", None) is not None

        def gamma_after(hit, _result):
            counts["newton.gamma_der.hits"] += hit

        self._patch_function(newton, "gamma_der", self._timed(
            newton.gamma_der, "newton.gamma_der", True, gamma_before, gamma_after))
        for attr in ("ndeg", "tropical_ddeg", "breakpoints", "flex_probe"):
            self._patch_function(newton, attr, self._timed(
                getattr(newton, attr), f"newton.{attr}", True))

        self._patch_function(coarsen, "coarsen", self._timed(
            coarsen.coarsen, "coarsen.coarsen", True))
        self._patch_method(coarsen.Coarsening, "residue", self._timed(
            coarsen.Coarsening.residue, "coarsen.residue", True))

        def solve_after(_token, result):
            counts["hsolve.solve_linear.iterations"] += len(result[1].iterates)

        def dominant_solve_after(_token, _result):
            counts["hsolve.dominant_solve.successes"] += 1

        self._patch_function(hsolve, "solve_linear", self._timed(
            hsolve.solve_linear, "hsolve.solve_linear", True, None, solve_after))
        self._patch_function(hsolve, "dominant_solve", self._timed(
            hsolve.dominant_solve, "hsolve.dominant_solve", True, None, dominant_solve_after))
        for attr in ("apply_op", "check_bll", "demo_nonuniqueness"):
            self._patch_function(hsolve, attr, self._timed(
                getattr(hsolve, attr), f"hsolve.{attr}", True))

        for attr in ("parse_series", "parse_poly"):
            self._patch_function(expr, attr, self._timed(
                getattr(expr, attr), f"expr.{attr}", True))
        for attr in ("load_field", "series_report"):
            self._patch_function(cli, attr, self._timed(
                getattr(cli, attr), f"cli.{attr}", True))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def merge_snapshots(snaps) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(int)}
    for snap in snaps:
        for kind, table in out.items():
            for key, value in snap.get(kind, {}).items():
                table[key] += value
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap) -> dict:
    """The per-layer metrics (without the cli.* ones) from a snapshot.

    Ratios with no calls behind them read 0.
    """
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    c = lambda key: calls.get(key, 0)  # noqa: E731
    s = lambda key: self_s.get(key, 0.0)  # noqa: E731
    n = lambda key: counts.get(key, 0)  # noqa: E731
    out = {
        "valgroup.cmp.calls": c("valgroup.cmp"),
        "valgroup.arith.calls": c("valgroup.arith"),
        "valgroup.cut_contains.calls": c("valgroup.cut_contains"),
        "gridseries.series_built": c("gridseries.series_built"),
        "gridseries.monomial_value.calls": c("gridseries.monomial_value"),
        "gridseries.monomial_value.self_s": s("gridseries.monomial_value"),
        "gridseries.mul.calls": c("gridseries.mul"),
        "gridseries.mul.term_pairs": n("gridseries.mul.term_pairs"),
        "gridseries.mul.kept_ratio": _ratio(n("gridseries.mul.kept_terms"),
                                            n("gridseries.mul.term_pairs")),
        "gridseries.mul.self_s": s("gridseries.mul"),
        "gridseries.add.self_s": s("gridseries.add"),
        "gridseries.derive.self_s": s("gridseries.derive"),
        "gridseries.invert.calls": c("gridseries.invert"),
        "gridseries.invert.self_s": s("gridseries.invert"),
        "gridseries.logder.self_s": s("gridseries.logder"),
    }
    for name in ("substitute", "comp_conj", "add_conj", "mul_conj", "dominant", "evaluate"):
        out[f"diffpoly.{name}.self_s"] = s(f"diffpoly.{name}")
    out["diffpoly.fnk.calls"] = c("diffpoly.fnk")
    out["diffpoly.fnk.hit_ratio"] = _ratio(n("diffpoly.fnk.hits"), c("diffpoly.fnk"))
    out["newton.gamma_der.calls"] = c("newton.gamma_der")
    out["newton.gamma_der.self_s"] = s("newton.gamma_der")
    out["newton.gamma_der.hit_ratio"] = _ratio(n("newton.gamma_der.hits"),
                                               c("newton.gamma_der"))
    for name in ("ndeg", "tropical_ddeg", "breakpoints", "flex_probe"):
        out[f"newton.{name}.self_s"] = s(f"newton.{name}")
    out["coarsen.coarsen.self_s"] = s("coarsen.coarsen")
    out["coarsen.residue.calls"] = c("coarsen.residue")
    out["coarsen.residue.self_s"] = s("coarsen.residue")
    out["hsolve.solve_linear.self_s"] = s("hsolve.solve_linear")
    out["hsolve.solve_linear.iterations"] = n("hsolve.solve_linear.iterations")
    out["hsolve.apply_op.calls"] = c("hsolve.apply_op")
    out["hsolve.apply_op.self_s"] = s("hsolve.apply_op")
    out["hsolve.dominant_solve.calls"] = c("hsolve.dominant_solve")
    out["hsolve.dominant_solve.self_s"] = s("hsolve.dominant_solve")
    out["hsolve.dominant_solve.success_ratio"] = _ratio(
        n("hsolve.dominant_solve.successes"), c("hsolve.dominant_solve"))
    out["expr.parse_series.self_s"] = s("expr.parse_series")
    out["expr.parse_poly.self_s"] = s("expr.parse_poly")
    out["cli.load_field.self_s"] = s("cli.load_field")
    out["cli.series_report.self_s"] = s("cli.series_report")
    return out


# Counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "valgroup.cmp.calls", "valgroup.arith.calls", "valgroup.cut_contains.calls",
    "gridseries.series_built", "gridseries.monomial_value.calls",
    "gridseries.mul.calls", "gridseries.mul.term_pairs", "gridseries.invert.calls",
    "diffpoly.fnk.calls", "newton.gamma_der.calls", "coarsen.residue.calls",
    "hsolve.solve_linear.iterations", "hsolve.apply_op.calls",
    "hsolve.dominant_solve.calls",
)
