"""Batch command surface: field configs in, JSON reports out.

Every report is printed as a single deterministic JSON line: group
elements are arrays of rational strings, series are sorted term lists.
Exit codes: 0 success, 2 contract error, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from .errors import ConfigError, ParseError, VdfError

# The library's one way in: the package, as vd, whose lazy names reach each layer
# where a name is used (vd.parse_poly; an unexported helper through its module, as
# vd.gridseries.val_strings), so a command loads only the layers it calls.  It is
# read from sys.modules, where it was loaded before this module, so a copy loaded
# under another name (tools/interleave.py) reaches its own layers.
vd = sys.modules[__package__]


# -- field configs ----------------------------------------------------------------


def field_from_config(doc: dict) -> FieldInstance:
    try:
        rank = doc["rank"]
        if type(rank) is not int:  # a bool is no int
            raise TypeError(f"rank is a {type(rank).__name__}: {rank!r}")
        if rank > MAX_RANK:
            raise ConfigError(f"a field config has rank at most {MAX_RANK}, got {rank}")
        gen_docs = list(doc["generators"])
        gens = [vd.Generator(str(gd["name"]), vd.GroupElement(gd["value"])) for gd in gen_docs]
        logders = [str(gd["logder"]) for gd in gen_docs]
        declared = vd.GroupElement(doc["shift"]) if "shift" in doc else None
        name = str(doc.get("name", "config"))
    except KeyError as exc:
        raise ConfigError(f"malformed field config: missing entry {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed field config: {exc}")
    field = vd.FieldInstance(rank, gens, name=name)
    if field._value_rows()[2] >= 10 ** vd.expr.MAX_COEFF_DIGITS:  # before any back-substitution
        raise ConfigError(f"the config's pivot product has over {vd.expr.MAX_COEFF_DIGITS} digits")
    for text, gen in zip(logders, field.generators):
        gen.logder = vd.parse_series(text, field)
    if declared is not None:
        if not declared <= field.derivation_shift:
            raise ConfigError(
                f"declared shift {declared} exceeds the certified bound "
                f"{field.derivation_shift}"
            )
    return field


def field_to_config(field: FieldInstance) -> dict:
    for g in field.generators:
        if g.logder.tau is not vd.INFINITY:  # its repr would end in + O(tau)
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
# The largest rank of a field config: its value matrix costs about rank^3.
MAX_RANK = 128


def _bounded_int(least: Optional[int], most: int):
    """The argparse type of an int option in [least, most] (no lower bound for None);
    named int, so text that is no int keeps argparse's "invalid int value" message."""
    def read(text: str) -> int:
        n = int(text)
        if least is not None and n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        if n > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {n}")
        return n
    read.__name__ = "int"
    return read


def load_field(source: str) -> FieldInstance:
    """A field argument is a config path or a built-in name."""
    if source in ("laurent_ddt", "laurent_tddt_coarse"):
        return getattr(vd, source)()
    m = _BUILTIN_PATTERN.match(source)
    if m:
        depth = vd.valgroup.bounded_decimal(m.group(2), MAX_DEPTH)
        if depth is None:
            raise VdfError(f"{m.group(1)}(N) needs N <= {MAX_DEPTH}")
        return getattr(vd, m.group(1))(depth)
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
    out = {"terms": vd.gridseries.series_terms(f)}
    if f.tau is not vd.INFINITY:
        out["tau"] = vd.gridseries.val_strings(f.tau)
    return out


def poly_report(P: DiffPoly) -> dict:
    terms = []
    for i in sorted(P.terms):
        terms.append({"index": list(i), "coeff": series_report(P.terms[i])})
    return {"order": P.order, "terms": terms}


def cut_report(cut) -> dict:
    if cut.kind != vd.valgroup.PREFIX:
        return {"kind": cut.kind}
    return {
        "kind": cut.kind,
        "depth": cut.depth,
        "bound": [str(b) for b in cut.bound],
        "inclusive": cut.inclusive,
    }


def _parse_vector(text: str, rank: int) -> GroupElement:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != rank:
        raise VdfError(f"expected {rank} coordinates, got {len(parts)}")
    return vd.GroupElement([_rational(p) for p in parts])


def _rational(text: str) -> Fraction:
    try:
        return vd.valgroup._frac(text)
    except ValueError:
        raise ParseError(f"expected a rational, found {text.strip()!r}")


def _tau(args, family: str) -> Optional[GroupElement]:
    """The optional --tau of solve, demo and check-bll, in their family's rank."""
    if args.tau:
        return _parse_vector(args.tau, vd.hsolve.solver_family(family, args.depth)[0].rank)


# -- subcommands -------------------------------------------------------------------


def _cmd_val(args) -> dict:
    return {"v": vd.gridseries.val_strings(vd.parse_series(args.expr, args.field).valuation())}


def _cmd_ddeg(args) -> dict:
    data = vd.dominant(vd.parse_poly(args.expr, args.field))
    return {"ddeg": data.ddeg, "dwt": data.dwt}


def _cmd_ndeg(args) -> dict:
    return {"ndeg": vd.ndeg(vd.parse_poly(args.expr, args.field))}


def _cmd_breakpoints(args) -> dict:
    P = vd.parse_poly(args.expr, args.field)
    return {"breakpoints": [vd.gridseries.val_strings(b) for b in vd.breakpoints(P)]}


# --kind of conj -> the conjugation it applies
_CONJUGATIONS = {"add": "add_conj", "mul": "mul_conj", "comp": "comp_conj"}


def _cmd_conj(args) -> dict:
    P, by = vd.parse_poly(args.expr, args.field), vd.parse_series(args.by, args.field)
    conjugate = getattr(vd, _CONJUGATIONS[args.kind])
    return {"kind": args.kind, "result": poly_report(conjugate(P, by))}


def _cmd_eval(args) -> dict:
    P, at = vd.parse_poly(args.expr, args.field), vd.parse_series(args.at, args.field)
    return {"value": series_report(vd.evaluate(P, at))}


def _cmd_gamma_der(args) -> dict:
    return cut_report(vd.gamma_der(args.field))


def _cmd_s_der(args) -> dict:
    return {"prefix_len": vd.s_der(args.field).prefix_len}


def _cmd_coarsen(args) -> dict:
    return field_to_config(vd.coarsen(args.field, args.prefix_len).residue_field)


def _cmd_probe(args) -> dict:
    P = vd.parse_poly(args.expr, args.field)
    beta = _parse_vector(args.beta, args.field.rank)
    classes = vd.flex_probe(P, beta, args.samples, seed=args.seed)
    return {
        "classes": [{"v": vd.gridseries.val_strings(v),
                     "monomial": vd.gridseries.monomial_strings(args.field, v)}
                    for v in classes],
        "count": len(classes),
    }


def _cmd_solve(args) -> dict:
    family = "A" if args.op == "custom" else args.op  # custom solves in A's field
    field, op, rhs = vd.hsolve.solver_family(family, args.depth)
    if args.op == "custom":
        if not args.a0 or not args.a1:
            raise VdfError("--op custom requires --a0 and --a1")
        op = vd.LinearOperator(vd.parse_series(args.a0, field), vd.parse_series(args.a1, field))
    elif (args.a0, args.a1) != (None, None):
        raise VdfError(f"--a0 and --a1 apply only to --op custom, not to --op {args.op}")
    rhs = rhs if args.rhs is None else vd.parse_series(args.rhs, field)
    tau = _tau(args, family)
    if tau is None:
        tau = field.derivation_shift + rhs.valuation() + vd.valgroup.unit(field.rank, 0)
    y, trace = vd.solve_linear(op, rhs, tau, max_iter=args.max_iter)
    report = trace.as_report()
    report["solution"] = series_report(y)
    report["tau"] = vd.gridseries.val_strings(tau)
    return report


def _cmd_demo(args) -> dict:
    c_list = [_rational(c) for c in args.c.split(",") if c.strip()]
    return vd.demo_nonuniqueness(args.depth, c_list, _tau(args, "A"), max_iter=args.max_iter)


def _cmd_check_bll(args) -> dict:
    return vd.check_bll(args.depth, _tau(args, "B"), max_iter=args.max_iter)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a malformed command line as a contract error, which run()
    prints as the one JSON error line, instead of a usage text.  The
    subcommand parsers are of the same class."""

    def error(self, message):
        raise VdfError(f"{self.prog}: {message}")


_FIELD = ("--field", dict(required=True, help="config path or built-in name"))
_EXPR = ("expr", {})
_DEPTH = ("--depth", dict(type=_bounded_int(None, MAX_DEPTH), required=True))
_ITERATIONS = _bounded_int(1, MAX_ITER)

# subcommand -> (help, handler, options), each option as (name, the keywords of
# add_argument), in --help's order; build_parser adds the one argv[0] names, or all
COMMANDS = {
    "val": ("valuation of a series", _cmd_val, [_FIELD, _EXPR]),
    "ddeg": ("dominant degree and weight", _cmd_ddeg, [_FIELD, _EXPR]),
    "ndeg": ("Newton degree", _cmd_ndeg, [_FIELD, _EXPR]),
    "breakpoints": ("tropical breakpoints", _cmd_breakpoints, [_FIELD, _EXPR]),
    "conj": ("conjugate a polynomial", _cmd_conj, [
        _FIELD, _EXPR,
        ("--kind", dict(choices=_CONJUGATIONS, required=True)),
        ("--by", dict(required=True))]),
    "eval": ("evaluate a polynomial", _cmd_eval, [
        _FIELD, _EXPR,
        ("--at", dict(required=True))]),
    "gamma-der": ("the cut Gamma(der)", _cmd_gamma_der, [_FIELD]),
    "s-der": ("stabilizer of Gamma(der)", _cmd_s_der, [_FIELD]),
    "coarsen": ("residue config of a coarsening", _cmd_coarsen, [
        _FIELD,
        ("--prefix-len", dict(type=int, required=True))]),
    "probe": ("flexibility sampling probe", _cmd_probe, [
        _FIELD, _EXPR,
        ("--beta", dict(required=True, help="comma-separated rationals")),
        ("--samples", dict(type=_bounded_int(1, MAX_SAMPLES), default=100)),
        ("--seed", dict(type=int, default=11))]),
    "solve": ("first-order linear solve in a fragment", _cmd_solve, [
        _DEPTH,
        ("--op", dict(choices=["A", "B", "custom"], default="A")),
        ("--a0", dict(help="custom operator: constant part")),
        ("--a1", dict(help="custom operator: derivative part")),
        ("--rhs", {}),
        ("--tau", dict(help="comma-separated rationals")),
        ("--max-iter", dict(type=_ITERATIONS, default=64))]),
    "demo": ("non-uniqueness report", _cmd_demo, [
        _DEPTH,
        ("--c", dict(default="0,1", help="comma-separated constants")),
        ("--tau", {}),
        ("--max-iter", dict(type=_ITERATIONS, default=128))]),
    "check-bll": ("solve B(y)=1 and lift along e_x", _cmd_check_bll, [
        _DEPTH,
        ("--tau", {}),
        ("--max-iter", dict(type=_ITERATIONS, default=128))]),
}


def build_parser(argv: List[str]) -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="vdf",
        description="exact computations in grid-presented valued differential fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS:
        text, fn, options = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(fn=fn)
    return ap


def _fail(kind: str, message: str, status: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return status


def run(argv: List[str]) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
        if "field" in args:  # every subcommand with --field reads it here
            args.field = load_field(args.field)
        print(json.dumps(args.fn(args)), flush=True)
    except ParseError as exc:
        return _fail("parse", str(exc), 3)
    except VdfError as exc:
        return _fail("contract", str(exc), 2)
    except BrokenPipeError:
        # the reader left: stdout to devnull, as the signal docs do, for a silent exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("contract", "stdout was closed before the report was written", 2)
    except ValueError as exc:
        # an int past the interpreter's int-to-str digit limit: the result
        # exists but cannot be rendered
        if "integer string conversion" not in str(exc):
            raise
        return _fail("contract", "result too long to render: it holds an integer "
                     f"of more than {sys.get_int_max_str_digits()} digits", 2)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
