"""The contract of every record class: construction, equality, hash
(or unhashability), repr and frozen-ness as @dataclass gave them, so the
plain classes that replaced the decorator change nothing a caller sees.
The classes are found by walking Record's subclasses, so a new record
class must be pinned here."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from vdfield.cli import field_from_config
from vdfield.coarsen import Coarsening, coarsen
from vdfield.diffpoly import dominant
from vdfield.errors import VdfError
from vdfield.expr import (
    DY,
    Add,
    Lit,
    Mul,
    Neg,
    Pow,
    Sym,
    Token,
    parse_expr,
    parse_poly,
    parse_series,
)
from vdfield.gridseries import (
    Generator,
    Monomial,
    laurent_ddt,
    laurent_tddt_coarse,
    transseries_fragment,
)
from vdfield.hsolve import LinearOperator, SolveTrace, op_A
from vdfield.newton import CutDegreeCertificate, PcSequence, gamma_der
from vdfield.records import FrozenRecord, Record
from vdfield.valgroup import ConvexSubgroup, Cut, GroupElement


def _op():
    return op_A(transseries_fragment(1), 1)


def _dominant():
    return dominant(parse_poly("t*Y'^2 + t*Y*Y' + t^2", laurent_ddt()))


def _pc():
    K = laurent_ddt()
    return PcSequence([parse_series("t", K), parse_series("t + t^2", K)])


# (build, the repr the @dataclass classes printed, an unequal instance)
FROZEN = {
    "ConvexSubgroup": (lambda: ConvexSubgroup(3, 1),
                       "ConvexSubgroup(ambient_rank=3, prefix_len=1)",
                       ConvexSubgroup(3, 2)),
    "Cut": (lambda: Cut(2, (1, F(-1, 2)), False),
            "Cut(proj_2 < (1, -1/2), rank 2)",
            Cut(2, (1, F(-1, 2)), True)),
    "Lit": (lambda: Lit(F(3, 2)), "Lit(value=Fraction(3, 2))", Lit(F(3))),
    "Sym": (lambda: Sym("t"), "Sym(name='t')", Sym("s")),
    "DY": (lambda: DY(2), "DY(order=2)", DY(1)),
    "Pow": (lambda: Pow(Sym("t"), F(-1)),
            "Pow(base=Sym(name='t'), exponent=Fraction(-1, 1))",
            Pow(Sym("t"), F(1))),
    "Neg": (lambda: Neg(DY(0)), "Neg(operand=DY(order=0))", Neg(DY(1))),
    "Mul": (lambda: Mul((Lit(F(2)), Sym("t"))),
            "Mul(factors=(Lit(value=Fraction(2, 1)), Sym(name='t')))",
            Mul((Sym("t"), Lit(F(2))))),
    "Add": (lambda: Add((Sym("t"), Neg(Lit(F(1))))),
            "Add(terms=(Sym(name='t'), Neg(operand=Lit(value=Fraction(1, 1)))))",
            Add((Sym("t"), Lit(F(1))))),
    "LinearOperator": (_op,
                       "LinearOperator(a0=-1*l0^-1 + -1*l0^-1*l1^-1 + O((0, 1, 2)), a1=1)",
                       None),
    "Monomial": (lambda: Monomial([1, F(1, 2)]), "Monomial('1', '1/2')", Monomial([1, 0])),
}

MUTABLE = {
    "Generator": (lambda: Generator("t", GroupElement([1])),
                  "Generator(name='t', value=(1), logder=None)",
                  Generator("s", GroupElement([1]))),
    "DominantData": (_dominant,
                     "DominantData(ddeg=2, dwt=2, D=(t)*Y'^2 + (t)*Y*Y', W=(t)*Y'^2, "
                     "dominant_part={(0, 2): Fraction(1, 1), (1, 1): Fraction(1, 1)})",
                     None),
    "Token": (lambda: Token("num", "12", 1, 0),
              "Token(kind='num', text='12', line=1, col=0)",
              Token("num", "12", 1, 1)),
    "PcSequence": (_pc, "PcSequence(elements=[t, t + t^2], window=3)", None),
    "CutDegreeCertificate": (lambda: CutDegreeCertificate(1, 0, 3, [2, 1, 1, 1]),
                             "CutDegreeCertificate(value=1, stabilized_at=0, window=3, "
                             "history=[2, 1, 1, 1])",
                             CutDegreeCertificate(1, 0, 3, [1, 1, 1])),
    "Coarsening": (lambda: coarsen(laurent_tddt_coarse(), 1),
                   "Coarsening(base=FieldInstance(laurent_tddt_coarse, rank 2), "
                   "delta=ConvexSubgroup(ambient_rank=2, prefix_len=1), "
                   "residue_field=FieldInstance(laurent_tddt_coarse/delta1, rank 1))",
                   None),
    "SolveTrace": (SolveTrace,
                   "SolveTrace(residual_valuations=[], iterates=[], "
                   "termination='max_iter', gap=None)",
                   SolveTrace(termination="reached_tau")),
}


FIELDS = {
    "ConvexSubgroup": ("ambient_rank", "prefix_len"),
    "Cut": ("ambient_rank", "bound", "inclusive"),
    "Lit": ("value",), "Sym": ("name",), "DY": ("order",),
    "Pow": ("base", "exponent"), "Neg": ("operand",), "Mul": ("factors",),
    "Add": ("terms",), "LinearOperator": ("a0", "a1"),
    "Generator": ("name", "value", "logder"),
    "DominantData": ("ddeg", "dwt", "D", "W", "dominant_part"),
    "Token": ("kind", "text", "line", "col"),
    "PcSequence": ("elements", "window"),
    "CutDegreeCertificate": ("value", "stabilized_at", "window", "history"),
    "Coarsening": ("base", "delta", "residue_field"),
    "SolveTrace": ("residual_valuations", "iterates", "termination", "gap"),
    "Monomial": ("exponents",),
}


def _record_classes():
    """name -> class, for every subclass of Record at any depth that
    the library defines."""
    found, stack = {}, [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls is not FrozenRecord and cls.__module__.startswith("vdfield."):
                found[cls.__qualname__] = cls
    return found


RECORDS = _record_classes()


def _astuple(name, record):
    return tuple(getattr(record, f) for f in FIELDS[name])


def test_every_record_class_is_pinned():
    assert len(RECORDS) == 18
    assert set(RECORDS) == set(FIELDS) == set(FROZEN) | set(MUTABLE)
    assert not set(FROZEN) & set(MUTABLE)
    for name, cls in RECORDS.items():
        assert cls._fields == FIELDS[name]
        assert issubclass(cls, FrozenRecord) == (name in FROZEN)


def _bad_calls(name):
    """(call, the TypeError it must raise) for each way of calling the
    class name that a Python function would refuse."""
    cls, fields = RECORDS[name], FIELDS[name]
    every = dict.fromkeys(fields)
    calls = [
        (lambda: cls(*[None] * (len(fields) + 1)), "takes"),
        (lambda: cls(**every, no_such_field=None), "unexpected keyword argument 'no_such_field'"),
        (lambda: cls(None, **every), f"multiple values for argument '{fields[0]}'"),
    ]
    first_default = len(fields) - len(cls._defaults)
    for f in fields[:first_default]:
        rest = {g: None for g in fields if g != f}
        calls.append((lambda rest=rest: cls(**rest), f"missing .*'{f}'"))
    return calls


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_call_that_does_not_fit_the_fields_raises_type_error(name):
    for call, message in _bad_calls(name):
        with pytest.raises(TypeError, match=message):
            call()


@pytest.mark.parametrize("name", sorted(FROZEN) + sorted(MUTABLE))
def test_repr_and_equality(name):
    build, text, other = {**FROZEN, **MUTABLE}[name]
    a, b = build(), build()
    assert repr(a) == text
    assert a == a
    if other is not None:
        assert a != other and not a == other
    # a record never equals a tuple of its fields or another record class
    assert a != _astuple(name, a)
    assert a.__eq__(object()) is NotImplemented
    if name != "Coarsening":  # its residue field is a new instance per call
        assert a == b


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_their_fields_and_refuse_assignment(name):
    build, _, _ = FROZEN[name]
    a, b = build(), build()
    assert hash(a) == hash(b) == hash(_astuple(name, a))
    for f in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == b


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_are_unhashable(name):
    build, _, _ = MUTABLE[name]
    with pytest.raises(TypeError):
        hash(build())


def test_ast_nodes_of_equal_fields_and_different_classes_differ():
    assert DY(1) != Lit(F(1))
    assert Neg(Sym("t")) != Add((Sym("t"),))
    assert parse_expr("t^-1/2 - 2*Y''") == Add((
        Pow(Sym("t"), F(-1, 2)), Neg(Mul((Lit(F(2)), DY(2))))))


def test_keyword_construction_and_defaults():
    assert Cut(ambient_rank=2) == Cut(2)
    assert Cut(2, inclusive=False) == Cut(2, (), False)
    g = Generator(name="t", value=GroupElement([1]))
    assert g.logder is None
    g.logder = laurent_ddt().one()
    assert repr(g) == "Generator(name='t', value=(1), logder=1)"
    assert _pc().window == 3
    t1, t2 = SolveTrace(), SolveTrace()
    t1.residual_valuations.append(GroupElement([1]))
    assert t2.residual_valuations == []  # a fresh list per trace
    half = coarsen(laurent_tddt_coarse(), 1)
    again = Coarsening(base=half.base, delta=half.delta, residue_field=half.residue_field)
    assert again == half and again.k == 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_field_by_keyword_builds_the_record_built_by_position(name):
    cls = RECORDS[name]
    values = _astuple(name, {**FROZEN, **MUTABLE}[name][0]())
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[name], values)))
    assert by_keyword == by_position
    assert repr(by_keyword) == repr(by_position)
    assert _astuple(name, by_keyword) == _astuple(name, by_position)


def test_the_binder_is_made_once_per_class_and_speaks_for_it():
    Cut(ambient_rank=2)
    binder = vars(Cut)["_binder"]
    assert Cut(ambient_rank=3, inclusive=False) == Cut(3, (), False)
    assert vars(Cut)["_binder"] is binder
    with pytest.raises(TypeError) as missing:
        Cut()
    assert str(missing.value) == "Cut() missing 1 required positional argument: 'ambient_rank'"
    with pytest.raises(TypeError) as extra:
        Cut(1, (), True, None)
    # Python counts the binder's cls among the positional arguments
    assert str(extra.value) == "Cut() takes from 2 to 4 positional arguments but 5 were given"


def test_the_workload_paths_build_no_binder(monkeypatch):
    # all-positional calls and trailing defaults (Cut(k, bound),
    # Generator(name, value)) are assigned without one
    for cls in (Cut, Generator):
        monkeypatch.delattr(cls, "_binder", raising=False)
    fresh = transseries_fragment.__wrapped__(3)
    assert isinstance(gamma_der(fresh), Cut)
    with open(Path(__file__).resolve().parents[1] / "configs" / "tddt.json") as fh:
        config = field_from_config(json.load(fh))
    assert config.generators and all(isinstance(g, Generator) for g in config.generators)
    assert "_binder" not in vars(Cut) and "_binder" not in vars(Generator)


def test_convex_subgroup_checks_its_prefix():
    with pytest.raises(VdfError, match=r"prefix_len 3 outside \[0, 2\]"):
        ConvexSubgroup(2, 3)


def test_linear_operator_keeps_its_cached_properties():
    A = _op()
    assert A.seed_offsets is A.seed_offsets
    assert A.responses is A.responses
    assert set(vars(A)) >= {"seed_offsets", "responses"}
    K = A.field
    with pytest.raises(VdfError, match="a1 must be nonzero"):
        LinearOperator(K.one(), K.zero_series())


def test_tokens_stay_mutable():
    tok = Token("num", "12", 1, 0)
    tok.col = 4
    assert tok == Token("num", "12", 1, 4)
