"""Batch command surface: field configs in, JSON reports out.

Every report is printed as a single deterministic JSON line: group
elements are arrays of rational strings, series are sorted term lists.
Exit codes: 0 success, 2 contract error, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .diffpoly import DiffPoly, add_conj, comp_conj, dominant, evaluate, mul_conj
from .errors import ConfigError, ParseError, VdfError
from .expr import parse_poly, parse_series
from .gridseries import (
    FieldInstance,
    Generator,
    Series,
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    monomial_strings,
    series_terms,
    transseries_fragment,
    val_strings,
)
from .valgroup import INFINITY, GroupElement, PREFIX


# -- field configs ----------------------------------------------------------------


def field_from_config(doc: dict) -> FieldInstance:
    try:
        rank = doc["rank"]
        if type(rank) is not int:
            raise ConfigError(
                f"malformed field config: rank must be an integer, got {rank!r}"
            )
        gen_docs = list(doc["generators"])
        gens = [Generator(str(gd["name"]),
                          GroupElement([Fraction(x) for x in gd["value"]]))
                for gd in gen_docs]
        logders = [str(gd["logder"]) for gd in gen_docs]
        declared = (GroupElement([Fraction(x) for x in doc["shift"]])
                    if "shift" in doc else None)
        name = str(doc.get("name", "config"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed field config: {exc!r}")
    field = FieldInstance(rank, gens, name=name)
    for text, gen in zip(logders, field.generators):
        gen.logder = parse_series(text, field)
    if declared is not None:
        if not declared <= field.derivation_shift:
            raise ConfigError(
                f"declared shift {declared} exceeds the certified bound "
                f"{field.derivation_shift}"
            )
    return field


def field_to_config(field: FieldInstance) -> dict:
    for g in field.generators:
        if g.logder.tau is not INFINITY:  # its repr would end in + O(tau)
            raise VdfError(f"generator {g.name}: a truncated logder has no config form")
    return {
        "name": field.name,
        "rank": field.rank,
        "generators": [
            {
                "name": g.name,
                "value": g.value.as_strings(),
                "logder": repr(g.logder),
            }
            for g in field.generators
        ],
        "shift": field.derivation_shift.as_strings(),
    }


_BUILTIN_PATTERN = re.compile(r"^(transseries_fragment|log_fragment)\((\d+)\)$")

# The largest fragment depth taken from the command line: --depth of
# solve, demo and check-bll, and N in transseries_fragment(N) and
# log_fragment(N).
MAX_DEPTH = 64
# The largest --samples of probe and --max-iter of solve, demo and
# check-bll: each sample or iteration is a full evaluation or residual.
MAX_SAMPLES = 10_000
MAX_ITER = 4_096


def load_field(source: str) -> FieldInstance:
    """A field argument is a config path or a built-in name."""
    if source == "laurent_ddt":
        return laurent_ddt()
    if source == "laurent_tddt_coarse":
        return laurent_tddt_coarse()
    m = _BUILTIN_PATTERN.match(source)
    if m:
        # the length check refuses a huge N before int() converts it
        digits = m.group(2).lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEPTH)) or int(digits) > MAX_DEPTH:
            raise VdfError(f"{m.group(1)}(N) needs N <= {MAX_DEPTH}")
        return (transseries_fragment if m.group(1) == "transseries_fragment"
                else log_fragment)(int(digits))
    try:
        with open(source) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read field config {source!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"field config {source!r} is not valid JSON: {exc}")
    return field_from_config(doc)


# -- report helpers ------------------------------------------------------------------


def series_report(f: Series) -> dict:
    out = {"terms": series_terms(f)}
    if f.tau is not INFINITY:
        out["tau"] = val_strings(f.tau)
    return out


def poly_report(P: DiffPoly) -> dict:
    terms = []
    for i in sorted(P.terms):
        terms.append({"index": list(i), "coeff": series_report(P.terms[i])})
    return {"order": P.order, "terms": terms}


def cut_report(cut) -> dict:
    if cut.kind != PREFIX:
        return {"kind": cut.kind}
    return {
        "kind": "prefix",
        "depth": cut.depth,
        "bound": [str(b) for b in cut.bound],
        "inclusive": cut.inclusive,
    }


def _parse_vector(text: str, rank: int) -> GroupElement:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != rank:
        raise VdfError(f"expected {rank} coordinates, got {len(parts)}")
    return GroupElement([_rational(p) for p in parts])


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, found {text.strip()!r}")


def _require_count(n: int, flag: str, limit: int) -> None:
    if n < 1:
        raise VdfError(f"{flag} must be at least 1, got {n}")
    if n > limit:
        raise VdfError(f"{flag} must be at most {limit}, got {n}")


def _require_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise VdfError(f"--depth must be at most {MAX_DEPTH}, got {depth}")


# -- subcommands -------------------------------------------------------------------
# Each handler imports what it uses of the newton, coarsen or hsolve
# layer, so a command that needs none of them does not load them.


def _cmd_val(args) -> dict:
    field = load_field(args.field)
    f = parse_series(args.expr, field)
    return {"v": val_strings(f.valuation())}


def _cmd_ddeg(args) -> dict:
    field = load_field(args.field)
    P = parse_poly(args.expr, field)
    data = dominant(P)
    return {"ddeg": data.ddeg, "dwt": data.dwt}


def _cmd_ndeg(args) -> dict:
    from .newton import ndeg
    field = load_field(args.field)
    P = parse_poly(args.expr, field)
    return {"ndeg": ndeg(P)}


def _cmd_breakpoints(args) -> dict:
    from .newton import breakpoints
    field = load_field(args.field)
    P = parse_poly(args.expr, field)
    return {"breakpoints": [val_strings(b) for b in breakpoints(P)]}


def _cmd_conj(args) -> dict:
    field = load_field(args.field)
    P = parse_poly(args.expr, field)
    by = parse_series(args.by, field)
    if args.kind == "add":
        Q = add_conj(P, by)
    elif args.kind == "mul":
        Q = mul_conj(P, by)
    else:
        Q = comp_conj(P, by)
    return {"kind": args.kind, "result": poly_report(Q)}


def _cmd_eval(args) -> dict:
    field = load_field(args.field)
    P = parse_poly(args.expr, field)
    at = parse_series(args.at, field)
    return {"value": series_report(evaluate(P, at))}


def _cmd_gamma_der(args) -> dict:
    from .newton import gamma_der
    field = load_field(args.field)
    return cut_report(gamma_der(field))


def _cmd_s_der(args) -> dict:
    from .newton import s_der
    field = load_field(args.field)
    return {"prefix_len": s_der(field).prefix_len}


def _cmd_coarsen(args) -> dict:
    from .coarsen import coarsen
    field = load_field(args.field)
    half = coarsen(field, args.prefix_len)
    return field_to_config(half.residue_field)


def _cmd_probe(args) -> dict:
    from .newton import flex_probe
    _require_count(args.samples, "--samples", MAX_SAMPLES)
    field = load_field(args.field)
    P = parse_poly(args.expr, field)
    beta = _parse_vector(args.beta, field.rank)
    classes = flex_probe(P, beta, args.samples, seed=args.seed)
    return {
        "classes": [
            {"v": val_strings(v), "monomial": monomial_strings(field, v)}
            for v in classes
        ],
        "count": len(classes),
    }


def _solver_field(args):
    if args.op == "B":
        return log_fragment(args.depth)
    return transseries_fragment(args.depth)


def _cmd_solve(args) -> dict:
    from .hsolve import LinearOperator, op_A, op_B, solve_linear
    _require_depth(args.depth)
    _require_count(args.max_iter, "--max-iter", MAX_ITER)
    field = _solver_field(args)
    if args.op == "A":
        op = op_A(field, args.depth)
    elif args.op == "B":
        op = op_B(field, args.depth)
    else:
        if not args.a0 or not args.a1:
            raise VdfError("--op custom requires --a0 and --a1")
        op = LinearOperator(
            parse_series(args.a0, field), parse_series(args.a1, field)
        )
    rhs = parse_series(args.rhs, field)
    if args.tau:
        tau = _parse_vector(args.tau, field.rank)
    else:
        tau = field.derivation_shift + rhs.valuation() + GroupElement(
            [1] + [0] * (field.rank - 1)
        )
    y, trace = solve_linear(op, rhs, tau, max_iter=args.max_iter)
    report = trace.as_report()
    report["solution"] = series_report(y)
    report["tau"] = val_strings(tau)
    return report


def _cmd_demo(args) -> dict:
    from .hsolve import demo_nonuniqueness
    _require_depth(args.depth)
    _require_count(args.max_iter, "--max-iter", MAX_ITER)
    c_list = [_rational(c) for c in args.c.split(",") if c.strip()]
    tau = None
    if args.tau:
        tau = _parse_vector(args.tau, args.depth + 2)
    return demo_nonuniqueness(args.depth, c_list, tau, max_iter=args.max_iter)


def _cmd_check_bll(args) -> dict:
    from .hsolve import check_bll
    _require_depth(args.depth)
    _require_count(args.max_iter, "--max-iter", MAX_ITER)
    tau = None
    if args.tau:
        tau = _parse_vector(args.tau, args.depth + 1)
    return check_bll(args.depth, tau, max_iter=args.max_iter)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a malformed command line as a contract error, which run()
    prints as the one JSON error line, instead of a usage text.  The
    subcommand parsers are of the same class."""

    def error(self, message):
        raise VdfError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="vdf",
        description="exact computations in grid-presented valued differential fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def with_field(p):
        p.add_argument("--field", required=True,
                       help="config path or built-in name")
        return p

    p = with_field(sub.add_parser("val", help="valuation of a series"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_val)

    p = with_field(sub.add_parser("ddeg", help="dominant degree and weight"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_ddeg)

    p = with_field(sub.add_parser("ndeg", help="Newton degree"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_ndeg)

    p = with_field(sub.add_parser("breakpoints", help="tropical breakpoints"))
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_breakpoints)

    p = with_field(sub.add_parser("conj", help="conjugate a polynomial"))
    p.add_argument("expr")
    p.add_argument("--kind", choices=["add", "mul", "comp"], required=True)
    p.add_argument("--by", required=True)
    p.set_defaults(fn=_cmd_conj)

    p = with_field(sub.add_parser("eval", help="evaluate a polynomial"))
    p.add_argument("expr")
    p.add_argument("--at", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = with_field(sub.add_parser("gamma-der", help="the cut Gamma(der)"))
    p.set_defaults(fn=_cmd_gamma_der)

    p = with_field(sub.add_parser("s-der", help="stabilizer of Gamma(der)"))
    p.set_defaults(fn=_cmd_s_der)

    p = with_field(sub.add_parser("coarsen", help="residue config of a coarsening"))
    p.add_argument("--prefix-len", type=int, required=True)
    p.set_defaults(fn=_cmd_coarsen)

    p = with_field(sub.add_parser("probe", help="flexibility sampling probe"))
    p.add_argument("expr")
    p.add_argument("--beta", required=True, help="comma-separated rationals")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("solve", help="first-order linear solve in a fragment")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--op", choices=["A", "B", "custom"], default="A")
    p.add_argument("--a0", help="custom operator: constant part")
    p.add_argument("--a1", help="custom operator: derivative part")
    p.add_argument("--rhs", default="e_x")
    p.add_argument("--tau", help="comma-separated rationals")
    p.add_argument("--max-iter", type=int, default=64)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("demo", help="non-uniqueness report")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--c", default="0,1", help="comma-separated constants")
    p.add_argument("--tau")
    p.add_argument("--max-iter", type=int, default=128)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("check-bll", help="solve B(y)=1 and lift along e_x")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tau")
    p.add_argument("--max-iter", type=int, default=128)
    p.set_defaults(fn=_cmd_check_bll)

    return ap


def run(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.fn(args)
    except ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except VdfError as exc:
        print(json.dumps({"error": "contract", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except ValueError as exc:
        # an int past the interpreter's int-to-str digit limit: the result
        # exists but cannot be rendered
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(json.dumps({"error": "contract", "message": "result too long to render: "
                          f"it holds an integer of more than {limit} digits"}),
              file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
