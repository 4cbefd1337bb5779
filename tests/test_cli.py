import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdfield import cli
from vdfield.cli import (
    COMMANDS,
    MAX_DEPTH,
    MAX_ITER,
    MAX_RANK,
    MAX_SAMPLES,
    cut_report,
    field_from_config,
    field_to_config,
    load_field,
    run,
    _rational,
)
from vdfield.diffpoly import mi_degree
from vdfield.errors import ConfigError, ParseError, UnboundSymbol, VdfError
from vdfield.expr import (
    MAX_COEFF_DIGITS,
    MAX_EXPR_TERM_PAIRS,
    MAX_NESTING,
    MAX_ORDER,
    MAX_POWER,
    MAX_TERM_PAIRS,
    Add,
    DY,
    Lit,
    Mul,
    Neg,
    Pow,
    Sym,
    parse_expr,
    parse_poly,
    parse_series,
    print_expr,
    _check_coeff_power,
    _times,
    lower_poly,
)
from vdfield.gridseries import FieldInstance, Generator, laurent_ddt, transseries_fragment
from vdfield.valgroup import Cut, GroupElement, _frac, bounded_decimal

REPO = Path(__file__).resolve().parent.parent
GOLDEN = [json.loads(line) for line in
          (REPO / "tests" / "data" / "cli_golden.jsonl").read_text().splitlines()]
HELP = [json.loads(line) for line in
        (REPO / "tests" / "data" / "cli_help.jsonl").read_text().splitlines()]
DEEP = [json.loads(line) for line in
        (REPO / "tests" / "data" / "cli_golden_deep.jsonl").read_text().splitlines()]


class TestGrammar:
    def test_poly_example(self):
        K = laurent_ddt()
        P = parse_poly("Y'^2 * Y - 3/2*t", K)
        assert P.order == 1
        assert len(P.terms) == 2
        assert max(map(mi_degree, P.terms)) == 3

    def test_monomial_exponents(self):
        M = transseries_fragment(2)
        f = parse_series("e_x^1/2 * l0^-1", M)
        (v, c), = f.sorted_terms()
        assert c == 1
        assert M.monomial_of_value(v).exponents == (Fraction(1, 2), Fraction(-1), Fraction(0),
                                           Fraction(0))

    def test_derivative_orders(self):
        K = laurent_ddt()
        assert parse_poly("Y^(3)", K).order == 3
        assert parse_poly("Y''", K).order == 2
        assert parse_expr("Y^(3)") == DY(3)

    def test_rational_literals(self):
        K = laurent_ddt()
        f = parse_series("3/2 * t^-1", K)
        assert f == K.gen("t", -1).scale(Fraction(3, 2))

    def test_sums_and_negation(self):
        K = laurent_ddt()
        f = parse_series("1 - t + 2*t^2 - -t^3", K)
        t = K.gen("t")
        assert f == K.one() - t + t.power(2).scale(2) + t.power(3)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("t + + 2")
        assert ei.value.column > 0

    def test_unbound_symbol(self):
        K = laurent_ddt()
        with pytest.raises(UnboundSymbol, match="unknown generator 'q' in field 'laurent_ddt'"):
            parse_series("q + 1", K)
        # the library's one lookup by name gives the same message
        message = "^unknown generator 'q' in field 'laurent_ddt'$"
        for lookup in (lambda: K.gen("q"), lambda: K.monomial_from_dict({"t": 1, "q": 2})):
            with pytest.raises(ConfigError, match=message):
                lookup()

    def test_parenthesized_power_on_non_y_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("t^(2)")

    def test_y_in_series_context_rejected(self):
        K = laurent_ddt()
        with pytest.raises(ParseError):
            parse_series("Y + t", K)


# canonical random ASTs for the round-trip law
_names = st.sampled_from(["t", "s", "e_x", "l0"])
_lits = st.fractions(min_value=0, max_value=9, max_denominator=6).map(Lit)
_exponents = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _leaves():
    return st.one_of(
        _lits,
        _names.map(Sym),
        st.integers(0, 5).map(DY),
    )


def _composite(children):
    powable = st.one_of(_lits, _names.map(Sym), st.integers(0, 5).map(DY),
                        children.map(lambda n: n))
    return st.one_of(
        st.tuples(powable, _exponents).map(lambda be: Pow(*be)),
        children.map(Neg),
        st.lists(children, min_size=2, max_size=3)
        .map(tuple).filter(lambda fs: not any(isinstance(f, Mul) for f in fs))
        .map(Mul),
        st.lists(children, min_size=2, max_size=3)
        .map(tuple).filter(lambda ts: not any(isinstance(t, Add) for t in ts))
        .map(Add),
    )


_asts = st.recursive(_leaves(), _composite, max_leaves=12)


def _ref_print_expr(node) -> str:
    """print_expr as it was written with one parenthesis test per branch,
    the oracle of its strings."""
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, DY):
        if node.order <= 3:
            return "Y" + "'" * node.order
        return f"Y^({node.order})"
    if isinstance(node, Pow):
        base = _ref_print_expr(node.base)
        if isinstance(node.base, (Add, Neg, Mul, Pow)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Neg):
        inner = _ref_print_expr(node.operand)
        if isinstance(node.operand, (Add, Mul)):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Mul):
        parts = []
        for f in node.factors:
            s = _ref_print_expr(f)
            if isinstance(f, (Add, Neg)):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(node, Add):
        out = _ref_print_expr(node.terms[0])
        for t in node.terms[1:]:
            if isinstance(t, Neg) and not isinstance(t.operand, (Add, Mul)):
                out += f" - {_ref_print_expr(t.operand)}"
            else:
                out += f" + {_ref_print_expr(t)}"
        return out
    raise VdfError(f"unknown AST node {node!r}")


class TestRoundTrip:
    @given(_asts)
    @settings(max_examples=500, deadline=None)
    def test_parse_print_round_trip(self, ast):
        assert parse_expr(print_expr(ast)) == ast

    @given(_asts)
    @settings(max_examples=500, deadline=None)
    def test_printed_string_is_the_reference_one(self, ast):
        # the round trip alone would pass a changed but readable string
        assert print_expr(ast) == _ref_print_expr(ast)

    def test_spot_checks(self):
        for text in ["Y'^2*Y - 3/2*t", "-(t + 1)", "t^-1/2", "(Y')^3",
                     "Y^(4)^2", "2 - -3"]:
            ast = parse_expr(text)
            assert parse_expr(print_expr(ast)) == ast


class TestFieldConfig:
    def test_round_trip_through_config(self, tmp_path):
        M = transseries_fragment(1)
        doc = field_to_config(M)
        rebuilt = field_from_config(doc)
        assert rebuilt.rank == M.rank
        for a, b in zip(M.generators, rebuilt.generators):
            assert a.name == b.name and a.value == b.value
            assert a.logder.sorted_terms() == b.logder.sorted_terms()

    def test_shift_validation(self):
        doc = {
            "rank": 1,
            "generators": [{"name": "t", "value": ["1"], "logder": "t^-1"}],
            "shift": ["5"],
        }
        with pytest.raises(Exception):
            field_from_config(doc)

    def test_declared_shift_is_checked_not_applied(self):
        # a declared shift at or below the computed bound is accepted,
        # but derive keeps the computed one
        doc = dict(field_to_config(laurent_ddt()), shift=["-2"])
        assert field_from_config(doc).derivation_shift == GroupElement([-1])

    def test_truncated_logder_is_refused_by_name(self):
        # the repr of a truncated logder ends in + O(tau), which
        # field_from_config cannot read back
        K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                              Generator("s", GroupElement([0, 1]))])
        K.generators[0].logder = (K.one() + K.gen("s")).truncated(GroupElement([0, 2]))
        K.generators[1].logder = K.gen("t").truncated(GroupElement([3, 0]))
        with pytest.raises(VdfError, match="generator t"):
            field_to_config(K)
        K.generators[0].logder = K.one()
        with pytest.raises(VdfError, match="generator s"):
            field_to_config(K)
        K.generators[1].logder = K.gen("t")
        assert field_to_config(K)["generators"][1]["logder"] == "t"

    def test_trivial_cut_reports(self):
        assert cut_report(Cut(2)) == {"kind": "all"}
        assert cut_report(Cut(2, (), False)) == {"kind": "empty"}

    def test_builtin_names(self):
        assert load_field("laurent_ddt").name == "laurent_ddt"
        assert load_field("transseries_fragment(2)").rank == 4


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "vdfield.cli"] + args,
        capture_output=True,
        cwd=REPO,
    )
    return proc


class TestCommands:
    def test_documented_invocations_byte_exact(self):
        cases = [
            (["ndeg", "--field", "configs/laurent.json", "Y^2 + t*Y'"],
             b'{"ndeg": 2}\n'),
            (["s-der", "--field", "configs/tddt.json"],
             b'{"prefix_len": 1}\n'),
            (["val", "--field", "configs/laurent.json", "t + t^2"],
             b'{"v": ["1"]}\n'),
        ]
        for args, expected in cases:
            proc = run_cli(args)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected

    def test_determinism(self):
        args = ["gamma-der", "--field", "transseries_fragment(2)"]
        outs = {run_cli(args).stdout for _ in range(3)}
        assert len(outs) == 1
        args = ["breakpoints", "--field", "configs/laurent.json", "Y^2 + t*Y'"]
        assert run_cli(args).stdout == run_cli(args).stdout

    def test_exit_code_parse_error(self):
        proc = run_cli(["val", "--field", "configs/laurent.json", "t + + 1"])
        assert proc.returncode == 3

    def test_exit_code_contract_error(self):
        proc = run_cli(["val", "--field", "configs/laurent.json", "t - t"])
        # valuation of the true zero is +infinity, not an error
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"v": "inf"}
        proc = run_cli(["val", "--field", "configs/laurent.json", "q"])
        assert proc.returncode == 3  # unbound symbol is a parse-level error
        proc = run_cli(
            ["conj", "--field", "configs/laurent.json", "Y'", "--kind", "mul",
             "--by", "0"]
        )
        assert proc.returncode == 2

    def test_zero_a1_is_contract_error(self):
        proc = run_cli(["solve", "--depth", "3", "--op", "custom", "--a0", "1",
                        "--a1", "0"])
        assert proc.returncode == 2
        assert _json_error(proc) == {
            "error": "contract",
            "message": "a1 must be nonzero for a first-order operator"}

    def test_solve_command(self):
        proc = run_cli(["solve", "--depth", "3", "--op", "A", "--rhs", "e_x"])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["termination"] in ("reached_tau", "truncation_exhausted")
        vals = doc["residual_valuations"]
        assert vals[0] == ["-1", "0", "0", "0", "0"]

    def test_check_bll_command(self):
        proc = run_cli(["check-bll", "--depth", "3"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_demo_command(self):
        proc = run_cli(["demo", "--depth", "3", "--c", "0,1"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["runs"]) == 2

    @pytest.mark.parametrize("args,tau,rank", [
        (["check-bll", "--depth", "3"], "1,1,1,0", 4),
        (["demo", "--depth", "3", "--c", "0,1"], "-1,1,1,1,0", 5),
    ], ids=["check-bll", "demo"])
    def test_tau_option_has_the_solver_rank(self, args, tau, rank):
        # check-bll's tau lives in log_fragment(depth), of rank depth + 1, and
        # demo's in transseries_fragment(depth), of rank depth + 2; passing
        # the default tau prints the default report
        default = run_cli(args)
        assert default.returncode == 0, default.stderr
        proc = run_cli(args + [f"--tau={tau}"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == default.stdout
        proc = run_cli(args + ["--tau", ",".join(["0"] * (rank + 1))])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert _json_error(proc) == {
            "error": "contract", "message": f"expected {rank} coordinates, got {rank + 1}"}

    @pytest.mark.parametrize("args,name", [
        (["check-bll", "--depth", "2"], "check_bll"),
        (["demo", "--depth", "2", "--c", "0,1"], "demo_nonuniqueness"),
    ], ids=["check-bll", "demo"])
    def test_depth_below_three_is_contract_error(self, args, name):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert _json_error(proc) == {"error": "contract",
                                     "message": f"{name} needs depth >= 3"}

    @pytest.mark.parametrize("c", ["0,0", "1,0,0/1", "1/2,2/4"])
    def test_demo_refuses_a_repeated_constant_by_name(self, c):
        # equal constants, compared as rationals, leave no difference to solve
        proc = run_cli(["demo", "--depth", "3", "--c", c])
        assert proc.returncode == 2
        assert proc.stdout == b""
        repeated = str(Fraction(c.split(",")[-1]))
        assert _json_error(proc) == {
            "error": "contract",
            "message": f"demo_nonuniqueness needs distinct constants; c = {repeated} is repeated"}

    def test_unknown_generator_names_the_field(self):
        # op B solves in the flat fragment, which has no e_x
        proc = run_cli(["solve", "--depth", "3", "--op", "B", "--rhs", "e_x"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc) == {
            "error": "parse",
            "message": "unknown generator 'e_x' in field 'log_fragment(3)'"}

    @pytest.mark.parametrize("depth", range(7))
    def test_each_family_has_its_default_rhs(self, depth):
        # without --rhs, A (and custom) solve for e_x and B for 1, as B's
        # flat fragment has no e_x
        def solve(*extra):
            return _run_in_process(["solve", "--depth", str(depth), *extra])
        b = solve("--op", "B")
        assert b[0] == 0 and b == solve("--op", "B", "--rhs", "1")
        a = solve()
        assert a[0] == 0 and a == solve("--rhs", "e_x")
        custom = solve("--op", "custom", "--a0=-l0^-1", "--a1", "1")
        assert custom[0] == 0 and custom == solve("--op", "custom", "--a0=-l0^-1", "--a1", "1",
                                                  "--rhs", "e_x")
        if depth == 4:
            golden, = [case for case in GOLDEN if case["argv"] == [
                "solve", "--depth", "4", "--op", "B", "--rhs", "1"]]
            assert b == (golden["exit"], golden["stdout"], "")

    @pytest.mark.parametrize("extra", [["--a0", "1"], ["--a1", "5"], ["--a0", "1", "--a1", "5"]],
                             ids=["a0", "a1", "both"])
    @pytest.mark.parametrize("op", ["A", "B"])
    def test_a0_and_a1_are_refused_outside_custom(self, op, extra):
        code, out, err = _run_in_process(["solve", "--depth", "3", "--op", op, *extra])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "contract",
            "message": f"--a0 and --a1 apply only to --op custom, not to --op {op}"}

    def test_coarsen_command(self):
        proc = run_cli(
            ["coarsen", "--field", "configs/tddt.json", "--prefix-len", "1"]
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["rank"] == 1
        assert doc["generators"][0]["name"] == "s"

    def test_rank_zero_field_from_coarsen(self, tmp_path):
        # coarsening at the full prefix leaves Gamma = {0}: no generator,
        # no positive value, and still no traceback
        proc = run_cli(["coarsen", "--field", "configs/tddt.json", "--prefix-len", "2"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["rank"] == 0 and doc["generators"] == []
        path = tmp_path / "rank0.json"
        path.write_bytes(proc.stdout)
        for args in (["gamma-der"], ["s-der"], ["ndeg", "Y^2 + Y' + 1"]):
            proc = run_cli([args[0], "--field", str(path)] + args[1:])
            assert proc.returncode in (0, 2), proc.stderr
            out = proc.stdout if proc.returncode == 0 else proc.stderr
            lines = out.decode().splitlines()
            assert len(lines) == 1, out
            json.loads(lines[0])

    def test_config_whose_witness_a_sampled_search_missed(self, tmp_path):
        # m = g1 has v(m') = (-1, 2) < (0, -7/2), so (0, -7/2) lies
        # outside Gamma(der), as the analytic cut says
        doc = {"name": "g0g1", "rank": 2, "generators": [
            {"name": "g0", "value": ["2/3", "-3"], "logder": "0"},
            {"name": "g1", "value": ["0", "1"], "logder": "-2/3*g0^-3/2*g1^-7/2"}]}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        cases = [
            (["gamma-der"],
             b'{"kind": "prefix", "depth": 2, "bound": ["-1", "1"], "inclusive": true}\n'),
            (["s-der"], b'{"prefix_len": 2}\n'),
            (["ndeg", "Y'+Y"], b'{"ndeg": 1}\n'),
        ]
        for args, expected in cases:
            proc = run_cli([args[0], "--field", str(path)] + args[1:])
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected

    def test_probe_command(self):
        proc = run_cli(
            ["probe", "--field", "configs/laurent.json", "Y'",
             "--beta", "5", "--samples", "60"]
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] >= 10

    def test_eval_and_conj_commands(self):
        proc = run_cli(
            ["eval", "--field", "configs/laurent.json", "Y' - 1", "--at", "t"]
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"]["terms"] == []
        proc = run_cli(
            ["conj", "--field", "configs/laurent.json", "Y'", "--kind", "comp",
             "--by", "t^-1"]
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["order"] == 1


def _json_error(proc):
    """The single JSON error line a failing command prints on stderr."""
    lines = proc.stderr.decode().strip().splitlines()
    assert len(lines) == 1, proc.stderr
    return json.loads(lines[0])


_T_GEN = {"name": "t", "value": ["1"], "logder": "t^-1"}
_T2 = {"name": "t", "value": ["1", "0"], "logder": "t^-1"}
_S2 = {"name": "s", "value": ["0", "1"], "logder": "0"}


def _config(tmp, logder):
    """The path of a rank-1 field config whose generator t has logder."""
    path = tmp / "field.json"
    path.write_text(json.dumps({"rank": 1, "generators": [dict(_T_GEN, logder=logder)]}))
    return str(path)


class TestBadInput:
    @pytest.mark.parametrize("doc", [
        {"rank": 1, "generators": [{"name": "t", "logder": "t^-1"}]},
        {"rank": 1, "generators": [dict(_T_GEN, value=["1/0"])]},
        {"rank": 1, "generators": [_T_GEN], "shift": ["abc"]},
        {"rank": 1.5, "generators": [_T_GEN]},
        {"rank": "1", "generators": [_T_GEN]},
        {"rank": True, "generators": [_T_GEN]},
        {"rank": 1, "generators": [dict(_T_GEN, value=[0.1])]},
        {"rank": 1, "generators": [_T_GEN], "shift": [-1.0]},
        {"rank": 1, "generators": [dict(_T_GEN, value=[True])]},
    ], ids=["missing-value", "zero-denominator", "bad-shift", "float-rank",
            "string-rank", "bool-rank", "float-value", "float-shift", "bool-value"])
    def test_malformed_config_is_contract_error(self, tmp_path, doc):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["val", "--field", str(path), "t"])
        assert proc.returncode == 2
        error = _json_error(proc)
        assert error["error"] == "contract"
        # the exception's message, not its repr
        assert error["message"].startswith("malformed field config: ")
        assert "Error(" not in error["message"]

    @pytest.mark.parametrize("extra, message", [
        (0, None), (1, f"a field config has rank at most {MAX_RANK}, got {MAX_RANK + 1}")],
        ids=["at", "over"])
    def test_the_rank_is_bounded(self, tmp_path, monkeypatch, extra, message):
        rank = MAX_RANK + extra
        gens = [{"name": f"g{i}", "value": ["0"] * i + ["1"] + ["0"] * (rank - i - 1),
                 "logder": "0"} for i in range(rank)]
        self._check_bound(tmp_path, monkeypatch, {"rank": rank, "generators": gens}, message)

    @pytest.mark.parametrize("extra, message", [
        (0, None), (1, f"the config's pivot product has over {MAX_COEFF_DIGITS} digits")],
        ids=["at", "over"])
    @pytest.mark.parametrize("scaled", [False, True], ids=["diagonal", "scaled-row"])
    def test_the_pivot_product_is_bounded(self, tmp_path, monkeypatch, extra, message, scaled):
        # det = 10^(MAX_COEFF_DIGITS - 1 + extra): the product of the diagonal,
        # or of the scale a row's denominator puts on its diagonal 1
        half = MAX_COEFF_DIGITS // 2
        first = ["1", f"1/1{'0' * half}"] if scaled else [f"1{'0' * half}", "0"]
        second = ["0", f"1{'0' * (MAX_COEFF_DIGITS - 1 + extra - half)}"]
        doc = {"rank": 2, "generators": [{"name": "t", "value": first, "logder": "0"},
                                         {"name": "s", "value": second, "logder": "0"}]}
        self._check_bound(tmp_path, monkeypatch, doc, message)

    @staticmethod
    def _check_bound(tmp_path, monkeypatch, doc, message):
        """vdf val on the config answers, or exits 2 with message, and never
        builds the value matrix."""
        def no_matrix(self):
            raise AssertionError("the value matrix was built")

        monkeypatch.setattr(FieldInstance, "_euler_rows", no_matrix)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_in_process(["val", "--field", str(path), "0"])
        if message is None:
            assert (code, out, err) == (0, '{"v": "inf"}\n', "")
        else:
            assert (code, out) == (2, "")
            assert json.loads(err) == {"error": "contract", "message": message}

    @pytest.mark.parametrize("entry", ["value", "shift"])
    @pytest.mark.parametrize("text", ["1/0", "-3/00"])
    def test_a_zero_denominator_is_named(self, tmp_path, entry, text):
        doc = {"rank": 1, "generators": [_T_GEN], "shift": ["-1"]}
        if entry == "value":
            doc["generators"] = [dict(_T_GEN, value=[text])]
        else:
            doc["shift"] = [text]
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["val", "--field", str(path), "t"])
        assert proc.returncode == 2 and proc.stdout == b""
        message = _json_error(proc)["message"]
        assert message == f"malformed field config: zero denominator in {text!r}"
        assert "Fraction(" not in message

    @pytest.mark.parametrize("doc, shown", [
        ({"rank": 2, "generators": [dict(_T2, value="10"), dict(_S2, value="01")]}, "str '10'"),
        ({"rank": 2, "generators": [_T2, _S2], "shift": "00"}, "str '00'"),
        ({"rank": 1, "generators": [dict(_T_GEN, value=1)]}, "int 1"),
        ({"rank": 1, "generators": [dict(_T_GEN, value={"1": 0})]}, "dict {'1': 0}"),
    ], ids=["value-text", "shift-text", "value-number", "value-object"])
    def test_a_vector_entry_must_be_an_array(self, tmp_path, doc, shown):
        # text was split into its characters: "10" and "01" were read as
        # the vectors (1, 0) and (0, 1), and t^2*s had the value (2, 1)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_in_process(["val", "--field", str(path), "t"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "contract",
            "message": f"malformed field config: expected a sequence of rationals, found {shown}"}

    @pytest.mark.parametrize("name", ["2", "Y", "a b", "", 7])
    def test_a_generator_name_must_be_a_grammar_name(self, tmp_path, name):
        # no expression could name such a generator, or its repr read back
        # as another series (3*2 as 6 over a generator called 2)
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"rank": 1, "generators": [dict(_T_GEN, name=name)]}))
        code, out, err = _run_in_process(["val", "--field", str(path), "1"])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "contract"
        assert error["message"].startswith(f"generator name {str(name)!r}: a name is ")

    def test_a_missing_config_entry_is_named(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"rank": 1, "generators": [{"name": "t", "logder": "t^-1"}]}))
        proc = run_cli(["val", "--field", str(path), "t"])
        assert _json_error(proc)["message"] == "malformed field config: missing entry 'value'"

    @pytest.mark.parametrize("cmd", ["ddeg", "ndeg", "breakpoints"])
    @pytest.mark.parametrize("expr", ["0", "Y - Y"])
    def test_zero_polynomial_is_contract_error(self, cmd, expr):
        proc = run_cli([cmd, "--field", "configs/laurent.json", expr])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "zero polynomial" in _json_error(proc)["message"]

    def test_zero_denominator_exponent_is_parse_error(self):
        proc = run_cli(["val", "--field", "configs/laurent.json", "t^1/0"])
        assert proc.returncode == 3
        assert _json_error(proc)["error"] == "parse"
        for text in ("t^1/0", "1/0 + t", "t^-2/0"):
            with pytest.raises(ParseError):
                parse_expr(text)

    @pytest.mark.parametrize("args", [
        ["solve", "--depth", "3", "--tau", "1/0,0,0,0,0"],
        ["demo", "--depth", "3", "--c", "0,abc"],
    ], ids=["tau", "constants"])
    def test_bad_rational_argument_is_parse_error(self, args):
        proc = run_cli(args)
        assert proc.returncode == 3
        assert _json_error(proc)["error"] == "parse"

    @pytest.mark.parametrize("text", ["1e999999999", "0.5", "1e3", "1_0"])
    @pytest.mark.parametrize("entry", [
        "solve-tau", "demo-tau", "check-bll-tau", "probe-beta", "demo-c",
        "config-value", "config-shift"])
    def test_rational_text_is_digits_and_a_denominator(self, tmp_path, entry, text):
        # Fraction would expand the exponent of 1e999999999; every reader
        # of rational text refuses it, and a point or underscore, at once
        config = tmp_path / "field.json"
        config.write_text(json.dumps({
            "rank": 1,
            "generators": [dict(_T_GEN, value=[text]) if entry == "config-value" else _T_GEN],
            "shift": [text if entry == "config-shift" else "0"]}))
        vector = ",".join([text] + ["0"] * 4)
        argv = {
            "solve-tau": ["solve", "--depth", "3", "--tau", vector],
            "demo-tau": ["demo", "--depth", "3", "--tau", vector],
            "check-bll-tau": ["check-bll", "--depth", "3", "--tau", vector[:-2]],
            "probe-beta": ["probe", "--field", "laurent_ddt", "Y'", "--beta", text],
            "demo-c": ["demo", "--depth", "3", "--c", f"0,{text}"],
        }.get(entry, ["val", "--field", str(config), "t"])
        start = time.perf_counter()
        code, out, err = _run_in_process(argv)
        assert time.perf_counter() - start < 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert f"expected a rational, found {text!r}" in error["message"]
        if entry.startswith("config"):
            assert (code, error["error"]) == (2, "contract")
            assert "Error(" not in error["message"]
        else:
            assert (code, error["error"]) == (3, "parse")

    @pytest.mark.parametrize("text, value", [
        ("-1/2", Fraction(-1, 2)), (" 3 ", Fraction(3)), ("5/2", Fraction(5, 2)),
        ("+4/6", Fraction(2, 3)), ("\u0663", Fraction(3))])
    def test_rational_text_reads_sign_digits_and_denominator(self, text, value):
        assert _frac(text) == _rational(text) == value

    @pytest.mark.parametrize("text", ["1/0", " -3/00 ", "+0/0", "5/\u0660"])
    def test_rational_text_refuses_a_zero_denominator(self, text):
        with pytest.raises(ValueError, match=r"^zero denominator in ") as err:
            _frac(text)
        assert err.type is ValueError and repr(text.strip()) in str(err.value)
        with pytest.raises(ParseError, match=r"^expected a rational, found "):
            _rational(text)

    @pytest.mark.parametrize("generators, message", [
        ([_T2], "need exactly rank=2 generators, got 1"),
        ([_T2, dict(_S2, name="t")], "generator names must be distinct"),
        ([dict(_T2, value=["1"]), _S2], "generator t: value rank 1 != 2"),
        ([dict(_T2, value=["0", "1"]), _S2],
         "generator t: value vectors must be square triangular"),
    ], ids=["count", "names", "value-rank", "triangular"])
    def test_field_refusal_exits_with_its_message(self, tmp_path, generators, message):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"rank": 2, "generators": generators}))
        proc = run_cli(["val", "--field", str(path), "t"])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert _json_error(proc) == {"error": "contract", "message": message}

    def test_rational_power_of_a_sum_is_parse_error(self):
        proc = run_cli(["val", "--field", "configs/laurent.json", "(2*t)^1/2"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc) == {
            "error": "parse", "message": "exponent 1/2 is only legal on a single monomial"}

    @pytest.mark.parametrize("args, code, message", [
        (["solve", "--depth", "3", "--op", "custom", "--a0", "1"], 2,
         "--op custom requires --a0 and --a1"),
        (["probe", "--field", "configs/laurent.json", "Y", "--beta", "0"], 2,
         "beta must be positive"),
        (["probe", "--field", "configs/laurent.json", "Y", "--beta", "-1"], 2,
         "beta must be positive"),
        (["solve", "--depth", "-1"], 2, "depth must be >= 0"),
        (["conj", "--field", "configs/laurent.json", "Y", "--kind", "comp", "--by", "0"], 2,
         "compositional conjugation by zero"),
        (["val", "--field", "configs/laurent.json", "(t+1"], 3,
         "expected ')', found '' (line 1, column 4)"),
        (["ndeg", "--field", "configs/laurent.json", "Y^(3"], 3,
         "expected ')', found '' (line 1, column 4)"),
        (["val", "--field", "configs/laurent.json", "t^x"], 3,
         "expected a rational exponent, found 'x' (line 1, column 2)"),
        (["val", "--field", "configs/laurent.json", "t^1/x"], 3,
         "expected a denominator (line 1, column 4)"),
        (["ndeg", "--field", "configs/laurent.json", "Y^(x)"], 3,
         "expected a derivative order (line 1, column 3)"),
    ], ids=["custom-op-without-a1", "zero-beta", "negative-beta", "negative-depth",
            "comp-by-zero", "open-paren", "open-order", "exponent-symbol",
            "denominator-symbol", "order-symbol"])
    def test_refusal_exits_with_its_message(self, args, code, message):
        proc = run_cli(args)
        assert proc.returncode == code
        assert proc.stdout == b""
        assert _json_error(proc) == {"error": "contract" if code == 2 else "parse",
                                     "message": message}

    def test_error_position_counts_lines(self):
        # the column restarts at 0 after each newline; a tab or \r is one column
        proc = run_cli(["val", "--field", "configs/laurent.json", "t +\r\n\tt ^ ?"])
        assert proc.returncode == 3
        assert _json_error(proc)["message"] == "unexpected character '?' (line 2, column 5)"
        with pytest.raises(ParseError) as ei:
            parse_expr("t\n\n  + )")
        assert (ei.value.line, ei.value.column) == (3, 4)

    @pytest.mark.parametrize("text,col", [("t^\u00b2", 2), ("2\u00b2", 1), ("\u2460 + t", 0)],
                             ids=["superscript", "after-digits", "circled"])
    def test_non_decimal_digit_is_unexpected_character(self, text, col):
        # a number is decimal digits only: a superscript or circled digit is
        # not read as a number literal
        proc = run_cli(["val", "--field", "configs/laurent.json", text])
        assert proc.returncode == 3
        assert proc.stdout == b""
        ch = text[col]
        assert _json_error(proc) == {
            "error": "parse",
            "message": f"unexpected character {ch!r} (line 1, column {col})"}

    def test_decimal_digits_of_any_script_are_numbers(self):
        K = laurent_ddt()
        assert parse_series("\u0663*t^\u0662", K) == parse_series("3*t^2", K)

    def test_argument_parse_error_has_no_position(self):
        proc = run_cli(["demo", "--depth", "3", "--c", "abc"])
        assert proc.returncode == 3
        assert "(line" not in _json_error(proc)["message"]

    @pytest.mark.parametrize("args", [
        ["solve", "--depth", "3", "--max-iter", "-3"],
        ["solve", "--depth", "3", "--max-iter", "0"],
        ["check-bll", "--depth", "3", "--max-iter", "0"],
        ["demo", "--depth", "3", "--max-iter", "-1"],
        ["demo", "--depth", "3", "--c", ","],
        ["probe", "--field", "configs/laurent.json", "Y'", "--beta", "5",
         "--samples", "-5"],
    ], ids=["solve-negative", "solve-zero", "check-bll", "demo", "demo-no-c",
            "probe"])
    def test_sizes_below_one_rejected(self, args):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert _json_error(proc)["error"] == "contract"


    @pytest.mark.parametrize("args", [
        ["solve", "--depth", "3", "--max-iter", str(MAX_ITER + 1)],
        ["demo", "--depth", "3", "--max-iter", str(MAX_ITER + 1)],
        ["check-bll", "--depth", "3", "--max-iter", str(MAX_ITER + 1)],
        ["probe", "--field", "configs/laurent.json", "Y'", "--beta", "5",
         "--samples", str(MAX_SAMPLES + 1)],
    ], ids=["solve", "demo", "check-bll", "probe"])
    def test_counts_above_bound_rejected(self, args):
        # refused on the argument, before any sample or iteration runs
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "must be at most" in _json_error(proc)["message"]

    @pytest.mark.parametrize("args, option, message", [
        (["solve", "--depth", str(MAX_DEPTH + 1)], "--depth",
         f"must be at most {MAX_DEPTH}, got {MAX_DEPTH + 1}"),
        (["demo", "--depth", "99"], "--depth", f"must be at most {MAX_DEPTH}, got 99"),
        (["check-bll", "--depth", "65"], "--depth", f"must be at most {MAX_DEPTH}, got 65"),
        (["solve", "--depth", "3", "--max-iter", "0"], "--max-iter", "must be at least 1, got 0"),
        (["demo", "--depth", "3", "--max-iter", str(MAX_ITER + 1)], "--max-iter",
         f"must be at most {MAX_ITER}, got {MAX_ITER + 1}"),
        (["check-bll", "--depth", "3", "--max-iter", "-2"], "--max-iter",
         "must be at least 1, got -2"),
        (["probe", "--field", "no-such-config.json", "Y'", "--beta", "5", "--samples", "0"],
         "--samples", "must be at least 1, got 0"),
        (["probe", "--field", "no-such-config.json", "Y'", "--beta", "5",
          "--samples", str(MAX_SAMPLES + 1)],
         "--samples", f"must be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"),
    ], ids=["solve-depth", "demo-depth", "check-bll-depth", "solve-max-iter",
            "demo-max-iter", "check-bll-max-iter", "probe-samples-0", "probe-samples-above"])
    def test_a_bound_is_refused_as_the_command_line_is_parsed(self, args, option, message):
        # by the option's own type: before the field is read (the probe's
        # config does not exist) and before any sample or iteration runs
        code, out, err = _run_in_process(args)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "contract", "message": f"vdf {args[0]}: argument {option}: {message}"}

    @pytest.mark.parametrize("args", [
        ["solve", "--depth", "x"],
        ["demo", "--depth", "3", "--max-iter", "x"],
        ["probe", "--field", "laurent_ddt", "Y'", "--beta", "5", "--samples", "x"],
    ], ids=["depth", "max-iter", "samples"])
    def test_text_that_is_no_int_keeps_argparse_message(self, args):
        code, out, err = _run_in_process(args)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == (
            f"vdf {args[0]}: argument {args[-2]}: invalid int value: 'x'")

    @pytest.mark.parametrize("text", [
        "3^10000",
        "(1/3)^-10000",
        f"10^{MAX_COEFF_DIGITS} * t",
        f"(1/10*t)^{MAX_COEFF_DIGITS}",
    ], ids=["numerator", "negative-exponent", "at-limit", "denominator"])
    def test_coefficient_power_above_bound_is_parse_error(self, text):
        proc = run_cli(["eval", "--field", "laurent_ddt", "Y", "--at", text])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert "exceeds" in _json_error(proc)["message"]

    def test_coefficient_power_bound_refuses_huge_exponent_uncomputed(self):
        # the bit-length test refuses it; 3^99999999999 is never formed
        with pytest.raises(ParseError, match="exceeds"):
            _check_coeff_power(Fraction(3), 99999999999)
        with pytest.raises(ParseError, match="exceeds"):
            _check_coeff_power(Fraction(-1, 2), -99999999999)

    def test_coefficient_power_bound_admits_its_limit(self):
        K = laurent_ddt()
        f = parse_series(f"10^{MAX_COEFF_DIGITS - 1} * t", K)
        assert f.dominant_term()[0] == 10 ** (MAX_COEFF_DIGITS - 1)
        # powers of +-1 coefficients are exact at any size
        assert parse_series("t^100000", K).valuation().coords == (100000,)
        assert parse_series("(-t)^100001", K).dominant_term()[0] == -1

    def test_result_too_long_to_render_is_contract_error(self):
        # the evaluation, not the parse, makes the 5,153-digit coefficient 3^10800
        proc = run_cli(["eval", "--field", "laurent_ddt", "Y^4", "--at", "3^2700"])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "too long to render" in _json_error(proc)["message"]

    @pytest.mark.parametrize("args", [
        ["val", "--field", "configs/laurent.json", "t + t^2"],
        ["demo", "--depth", "3", "--c", "0,1"],
    ], ids=["val", "demo"])
    def test_closed_stdout_is_contract_error(self, args):
        # stdout is a pipe whose reader closed before vdf writes its report
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "vdfield.cli"] + args,
                                  stdout=write_end, stderr=subprocess.PIPE, cwd=REPO)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert _json_error(proc) == {
            "error": "contract", "message": "stdout was closed before the report was written"}

    @pytest.mark.parametrize("text", [
        f"({'9' * (MAX_COEFF_DIGITS - 1)}*t + {'9' * (MAX_COEFF_DIGITS - 1)})^64",
        "3^2700*3^2700*3^2700*3^2700",
        f"(t + 1/{'7' * (MAX_COEFF_DIGITS // 2 + 1)})^2",
    ], ids=["power", "product", "denominator"])
    def test_coefficient_product_above_bound_is_parse_error(self, text):
        # refused before the product that could pass the bound is built;
        # the power ran for about 40 s in a cold process before
        start = time.perf_counter()
        with pytest.raises(ParseError, match="could exceed"):
            parse_series(text, laurent_ddt())
        assert time.perf_counter() - start < 2
        proc = run_cli(["val", "--field", "laurent_ddt", text])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc) == {
            "error": "parse",
            "message": f"a product's coefficients could exceed {MAX_COEFF_DIGITS} digits"}

    def test_coefficient_product_bound_admits_its_limit(self):
        K = laurent_ddt()
        big = parse_poly(f"10^{MAX_COEFF_DIGITS - 1}", K)
        assert _times(big, parse_poly("9*t", K), [0]) == parse_poly(f"9*10^{MAX_COEFF_DIGITS - 1}*t", K)
        with pytest.raises(ParseError, match="could exceed"):
            _times(big, parse_poly("10*t", K), [0])
        # binomial powers keep their exact coefficients
        for text, n in (("(1 + t)^64", 64), ("((t + 1)^16)^16", 256)):
            f = parse_series(text, K)
            assert f.sorted_terms() == [(GroupElement([k]), Fraction(math.comb(n, k)))
                                        for k in range(n + 1)]

    @pytest.mark.parametrize("args", [
        ["solve", "--depth", str(MAX_DEPTH + 1)],
        ["demo", "--depth", str(MAX_DEPTH + 1)],
        ["check-bll", "--depth", str(MAX_DEPTH + 1)],
        ["solve", "--depth", "10" * 9],
        ["gamma-der", "--field", f"transseries_fragment({MAX_DEPTH + 1})"],
        ["s-der", "--field", f"log_fragment({MAX_DEPTH + 1})"],
        ["gamma-der", "--field", f"log_fragment({'9' * 5000})"],
    ], ids=["solve", "demo", "check-bll", "solve-huge", "transseries-name",
            "log-name", "huge-name"])
    def test_depth_above_bound_rejected(self, args):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert _json_error(proc)["error"] == "contract"

    @pytest.mark.parametrize("text", [
        f"(1 + t)^{MAX_POWER + 1}",
        f"Y'^{MAX_POWER + 1} + Y",
        f"(t - Y)^{10 ** 30}",
    ], ids=["series", "poly", "huge"])
    def test_power_above_bound_is_parse_error(self, text):
        proc = run_cli(["ndeg", "--field", "configs/laurent.json", text])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc)["error"] == "parse"

    @pytest.mark.parametrize("make", [
        lambda tmp: ["val", "--field", "laurent_ddt", "(" * 200 + "t" + ")" * 200],
        lambda tmp: ["val", "--field", "laurent_ddt", "--", "-" * 1000 + "t"],
        lambda tmp: ["val", "--field", _config(tmp, "(" * 300 + "t^-1" + ")" * 300), "t"],
    ], ids=["parentheses", "unary-minus", "config-logder"])
    def test_deep_nesting_is_parse_error(self, tmp_path, make):
        # each of these overflowed the recursive-descent parser's stack
        proc = run_cli(make(tmp_path))
        assert proc.returncode == 3
        assert proc.stdout == b""
        error = _json_error(proc)
        assert error["error"] == "parse"
        assert f"nests deeper than {MAX_NESTING}" in error["message"]
        assert "(line 1, column " in error["message"]

    def test_nesting_bound_admits_its_limit(self):
        # a parenthesis costs five parser calls and a unary minus one,
        # beside the outermost call
        K = laurent_ddt()
        deepest = (MAX_NESTING - 1) // 5
        assert parse_series("(" * deepest + "t" + ")" * deepest, K) == K.gen("t")
        assert parse_series("-" * (MAX_NESTING - 1) + "t", K) == -K.gen("t")
        with pytest.raises(ParseError, match="nests deeper") as exc:
            parse_series("(" * (deepest + 1) + "t" + ")" * (deepest + 1), K)
        assert exc.value.line == 1
        with pytest.raises(ParseError, match="nests deeper"):
            parse_series("-" * MAX_NESTING + "t", K)
        # the depths that passed as recursion allowed still pass
        assert parse_series("(" * 150 + "t" + ")" * 150, K) == K.gen("t")
        assert parse_series("-" * 300 + "t", K) == K.gen("t")

    def test_nested_power_past_term_pairs_is_parse_error(self):
        # each level of a power of a power multiplies the terms; the
        # product that would pass the bound is refused before it runs
        proc = run_cli(["val", "--field", "laurent_tddt_coarse", "((t + s + 1)^16)^8"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        error = _json_error(proc)
        assert error["error"] == "parse"
        assert error["message"] == (f"a product of 2145 by 153 terms exceeds "
                                    f"{MAX_TERM_PAIRS} term pairs")

    def test_expression_past_term_pairs_budget_is_parse_error(self):
        # each product is under MAX_TERM_PAIRS, but the 64 products of
        # the outer power multiply 8,390,720 pairs in all
        proc = run_cli(["val", "--field", "laurent_ddt", "((t+1)^64)^64"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc) == {
            "error": "parse",
            "message": f"the products of one expression exceed {MAX_EXPR_TERM_PAIRS} term pairs"}

    @pytest.mark.parametrize("text, pairs", [
        ("(1 + t)^64", 4_160), ("((t + 1)^16)^16", 33_184), ("(1 + t)*(t - 1)*t^-1", 6),
    ])
    def test_term_pairs_budget_counts_every_product(self, text, pairs):
        K = laurent_ddt()
        spent = [0]
        assert lower_poly(parse_expr(text), K, spent) == parse_poly(text, K)
        assert spent == [pairs]

    def test_term_pairs_budget_admits_its_limit(self, monkeypatch):
        K = laurent_ddt()
        monkeypatch.setattr("vdfield.expr.MAX_EXPR_TERM_PAIRS", 4_160)
        assert parse_poly("(1 + t)^64", K) == parse_poly("(t + 1)^64", K)
        with pytest.raises(ParseError, match="exceed 4160 term pairs"):
            parse_poly("(1 + t)^64 * t", K)

    def test_term_pairs_bound_admits_its_limit(self):
        K = laurent_ddt()
        P = parse_poly(" + ".join(f"t^{k}" for k in range(600)), K)
        Q = parse_poly(" + ".join(f"t^{k}" for k in range(500)), K)
        assert 600 * 500 == MAX_TERM_PAIRS
        assert _times(P, Q, [0]) == P * Q
        R = P + parse_poly("t^-1", K)
        with pytest.raises(ParseError, match="601 by 500 terms"):
            _times(R, Q, [0])

    @pytest.mark.parametrize("digits, value", [
        ("0", 0), ("000", 0), ("16", 16), ("0016", 16), ("17", None), ("9" * 5000, None),
    ])
    def test_bounded_decimal(self, digits, value):
        assert bounded_decimal(digits, 16) == value

    def test_bounds_admit_their_limit(self):
        # the bound itself is accepted: checked on the argument, without a solve
        assert load_field(f"log_fragment({MAX_DEPTH})").rank == MAX_DEPTH + 1
        assert load_field(f"transseries_fragment(00{MAX_DEPTH})").rank == MAX_DEPTH + 2
        K = laurent_ddt()
        P = parse_poly(f"(1 + t)^{MAX_POWER}", K)
        assert len(P.terms[(0,)].terms) == MAX_POWER + 1
        assert parse_poly(f"Y^({MAX_ORDER})", K).order == MAX_ORDER
        assert parse_poly(f"Y^(00{MAX_ORDER})", K).order == MAX_ORDER
        assert parse_poly("Y" + "'" * MAX_ORDER, K).order == MAX_ORDER

    @pytest.mark.parametrize("text", [
        f"Y^({MAX_ORDER + 1})",
        f"Y^({'9' * 20})",
        f"t*Y^(00{MAX_ORDER + 1})",
        "Y" + "'" * (MAX_ORDER + 1),
    ], ids=["order", "huge-order", "zero-padded", "apostrophes"])
    def test_derivative_order_above_bound_is_parse_error(self, text):
        # checked on the text, before any polynomial of that order exists
        with pytest.raises(ParseError, match="derivative order exceeds"):
            parse_expr(text)

    def test_derivative_order_above_bound_exits_3(self):
        proc = run_cli(["ndeg", "--field", "laurent_ddt", f"Y^({MAX_ORDER + 1}) + t*Y"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc)["error"] == "parse"

    @pytest.mark.parametrize("text", [
        "9" * 5000 + "*t",
        "t^" + "9" * 5000,
        "t^1/" + "9" * 5000,
    ], ids=["literal", "exponent", "denominator"])
    def test_number_literal_too_long_for_int_is_parse_error(self, text):
        with pytest.raises(ParseError, match="5000 digits"):
            parse_expr(text)
        proc = run_cli(["val", "--field", "laurent_ddt", text])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert _json_error(proc)["error"] == "parse"

    @pytest.mark.parametrize("args", [
        ["solve"],
        ["solve", "--depth", "abc"],
        ["val", "--field", "laurent_ddt"],
        ["val", "--field", "laurent_ddt", "t", "--bogus"],
        ["nosuch"],
        [],
    ], ids=["missing-depth", "non-integer-depth", "missing-expr", "unknown-option",
            "unknown-command", "no-command"])
    def test_malformed_command_line_is_one_json_line(self, args):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert _json_error(proc)["error"] == "contract"

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="recorded with Python 3.11, whose argparse words errors so")
    @pytest.mark.parametrize("args, message", [
        ([], "vdf: the following arguments are required: command"),
        (["nosuch"], "vdf: argument command: invalid choice: 'nosuch' (choose from 'val', "
         "'ddeg', 'ndeg', 'breakpoints', 'conj', 'eval', 'gamma-der', 's-der', 'coarsen', "
         "'probe', 'solve', 'demo', 'check-bll')"),
        (["--bogus", "val"], "vdf val: the following arguments are required: --field, expr"),
        (["val"], "vdf val: the following arguments are required: --field, expr"),
        (["val", "--field", "laurent_ddt"], "vdf val: the following arguments are required: expr"),
        (["solve", "--depth", "x"], "vdf solve: argument --depth: invalid int value: 'x'"),
        (["conj", "--field", "laurent_ddt", "Y", "--kind", "bad", "--by", "1"],
         "vdf conj: argument --kind: invalid choice: 'bad' (choose from 'add', 'mul', 'comp')"),
    ], ids=["no-command", "unknown-command", "option-first", "missing-field", "missing-expr",
            "non-integer-depth", "unknown-kind"])
    def test_command_line_error_lines_are_pinned(self, args, message):
        # each line as the parser with every subcommand built wrote it: a
        # parser built with only the named subcommand must write the same
        proc = run_cli(args)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == json.dumps({"error": "contract", "message": message}) + "\n"

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
    def test_help_still_exits_0(self, args):
        proc = run_cli(args)
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: vdf")
        assert proc.stderr == b""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="recorded with Python 3.11, whose argparse lays out help as recorded")
class TestHelp:
    """The command surface, byte for byte: the --help text of vdf and of
    each subcommand at COLUMNS=80, as recorded in tests/data/cli_help.jsonl."""

    def test_every_command_is_recorded(self):
        assert [case["argv"] for case in HELP] == [["--help"]] + [[n, "--help"] for n in COMMANDS]

    @pytest.mark.parametrize("case", HELP, ids=[" ".join(c["argv"]) for c in HELP])
    def test_help_unchanged(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            run(case["argv"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == case["stdout"]


class TestGolden:
    """Every subcommand, byte for byte: argv, exit code and stdout as
    recorded in tests/data/cli_golden.jsonl."""

    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[f"{n}-{c['argv'][0]}" for n, c in enumerate(GOLDEN)]
    )
    def test_output_unchanged(self, case, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        code = run(case["argv"])
        assert code == case["exit"]
        assert capsys.readouterr().out == case["stdout"]


    @pytest.mark.parametrize("case", DEEP, ids=[" ".join(c["argv"]) for c in DEEP])
    def test_deep_solver_output_unchanged(self, case, capsys):
        # the solver drivers at depths 16 to 64, where a line's stdout runs
        # to 74 KB: tests/data/cli_golden_deep.jsonl keeps its exit code,
        # byte length and SHA-256
        code = run(case["argv"])
        out = capsys.readouterr().out.encode()
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
            case["exit"], case["bytes"], case["sha256"])

    def test_each_field_subcommand_reads_its_field_once(self, capsys, monkeypatch):
        # run reads --field through the module attribute, so a wrapper
        # there (a tracer's, say) sees every read
        monkeypatch.chdir(REPO)
        calls = []
        monkeypatch.setattr(cli, "load_field",
                            lambda source: calls.append(source) or load_field(source))
        first = {}
        for case in GOLDEN:
            if case["exit"] == 0:
                first.setdefault(case["argv"][0], case["argv"])
        assert set(first) == set(COMMANDS)
        counted = {}
        for name, argv in first.items():
            calls.clear()
            assert run(argv) == 0
            counted[name] = len(calls)
        expect = {name: int(cli._FIELD in options) for name, (_, _, options) in COMMANDS.items()}
        assert sum(expect.values()) == 10
        assert counted == expect


# -- fuzzing the command line -------------------------------------------------------

_CONFIG = "<config>"  # replaced by the path of a generated config file
_FIELDS = ["laurent_ddt", "laurent_tddt_coarse", "configs/laurent.json",
           "configs/tddt.json", "transseries_fragment(1)", "log_fragment(0)",
           "transseries_fragment(x)", "nosuch.json", _CONFIG]
_garbage = st.text(alphabet="tsY'^*+-/()0123456789 e_xl,.", max_size=12)
_exprs = st.one_of(_asts.map(print_expr), _garbage,
                   st.tuples(_asts.map(print_expr), _garbage).map("".join))
# every subcommand and option; "-h"/"--help" are left out (they print
# the usage text, tested above)
_tokens = st.one_of(
    st.sampled_from(["val", "ddeg", "ndeg", "breakpoints", "conj", "eval",
                     "gamma-der", "s-der", "coarsen", "probe", "solve", "demo",
                     "check-bll", "--field", "--at", "--kind", "--by", "--beta",
                     "--samples", "--seed", "--depth", "--op", "--a0", "--a1",
                     "--rhs", "--tau", "--max-iter", "--c", "--prefix-len",
                     "--bogus", "add", "mul", "comp", "A", "B", "custom", "-1",
                     "0", "1", "2", "1/0", "abc", "", "Y", "t", "Y'", "t*Y"]),
    st.sampled_from(_FIELDS),
    _garbage,
)
_config_docs = st.one_of(
    st.fixed_dictionaries({
        "rank": st.one_of(st.integers(-1, 3), st.just("1"), st.just(1.5), st.none()),
        "generators": st.lists(st.fixed_dictionaries({
            "name": st.sampled_from(["t", "s", "", "t t"]),
            "value": st.lists(st.sampled_from(["1", "-1", "0", "1/2", "1/0", "x", 1]),
                              max_size=3),
            "logder": st.one_of(_exprs, st.integers(-2, 2)),
        }), max_size=3),
    }, optional={"shift": st.lists(st.sampled_from(["-1", "0", "5", "abc"]),
                                   max_size=2),
                 "name": st.text(max_size=5)}).map(json.dumps),
    st.text(max_size=30),
)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    """Whatever the command line, expression or config file, vdf exits
    0, 2 or 3 and prints exactly one JSON line: on stdout for 0, on
    stderr otherwise."""

    @given(argv=st.one_of(
        st.tuples(st.sampled_from(["val", "ddeg", "eval"]), st.sampled_from(_FIELDS),
                  _exprs, _exprs)
        .map(lambda c: [c[0], "--field", c[1], c[2]]
             + (["--at", c[3]] if c[0] == "eval" else [])),
        st.lists(_tokens, max_size=6),
    ), config=_config_docs)
    @example(argv=["eval", "--field", "laurent_ddt", "Y", "--at", "3^10000"], config="")
    @example(argv=["eval", "--field", "laurent_ddt", "Y",
                   "--at", "3^2700*3^2700*3^2700*3^2700"], config="")
    @settings(max_examples=250, deadline=None)
    def test_exit_code_and_one_json_line(self, argv, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.json"
            path.write_text(config)
            argv = [str(path) if a == _CONFIG else a for a in argv]
            with contextlib.chdir(REPO):
                code, out, err = _run_in_process(argv)
        assert code in (0, 2, 3)
        stream, silent = (out, err) if code == 0 else (err, out)
        assert silent == ""
        lines = stream.splitlines()
        assert len(lines) == 1 and stream.endswith("\n"), stream
        json.loads(lines[0])
