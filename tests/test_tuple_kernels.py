"""The compiled tuple kernels of valgroup and gridseries against their generic forms,
at every length from 0 (the field Q) to 66 (transseries_fragment(64)),
on negative ints and ints beyond 2^64."""

import gc
import random
import weakref
from operator import add, mul, neg, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdfield.diffpoly import rational_field
from vdfield.gridseries import (
    _ADD,
    _DOT,
    _FLOOR,
    _SCALE,
    _dot_kernel,
    _tuple_kernel,
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    transseries_fragment,
)
from vdfield.valgroup import _NEG, _SUB

LENGTHS = range(67)
BIG = 2 ** 70
ints = st.integers(-BIG, BIG) | st.sampled_from([0, 1, -1, 2 ** 64, -(2 ** 64) - 1])
nonzero = ints.filter(bool)


def _generic(term, a, b=None, row=None):
    """What the kernel of term computes, by the generic forms it replaced."""
    if term == _ADD:
        return tuple(map(add, a, b))
    if term == _SCALE:
        return tuple(x * b for x in a)
    if term == _FLOOR:
        return tuple(x // b for x in a)
    if term == _SUB:
        return tuple(map(sub, a, b))
    if term == _NEG:
        return tuple(map(neg, a))
    return sum(map(mul, a, row))


@st.composite
def vectors(draw, count):
    n = draw(st.sampled_from(LENGTHS))
    return [tuple(draw(st.lists(ints, min_size=n, max_size=n))) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(vectors(2))
@example([(2 ** 64,), (-(2 ** 65),)])
@example([(), ()])
def test_adder(pair):
    a, b = pair
    got = _tuple_kernel(len(a), _ADD)(a, b)
    assert type(got) is tuple and got == _generic(_ADD, a, b)


@settings(max_examples=100, deadline=None)
@given(vectors(2))
@example([(2 ** 64,), (-(2 ** 65),)])
@example([(), ()])
def test_subtracter_and_negator(pair):
    a, b = pair
    for term, got in ((_SUB, _tuple_kernel(len(a), _SUB)(a, b)), (_NEG, _tuple_kernel(len(a), _NEG)(a))):
        assert type(got) is tuple and got == _generic(term, a, b)


@settings(max_examples=100, deadline=None)
@given(vectors(1), ints)
@example([(3, -(2 ** 66))], -(2 ** 64) - 1)
def test_scaler(one, m):
    (a,) = one
    got = _tuple_kernel(len(a), _SCALE)(a, m)
    assert type(got) is tuple and got == _generic(_SCALE, a, m)


@settings(max_examples=100, deadline=None)
@given(vectors(1), nonzero)
@example([(-7, 7, 2 ** 65 + 1)], -2)
def test_divider(one, g):
    (a,) = one
    got = _tuple_kernel(len(a), _FLOOR)(a, g)
    assert type(got) is tuple and got == _generic(_FLOOR, a, g)


@settings(max_examples=100, deadline=None)
@given(vectors(2), st.lists(st.booleans(), min_size=66, max_size=66))
@example([(2 ** 64, -3), (0, 0)], [True] * 66)
def test_dot(pair, kept):
    # rows of the value matrices are mostly zero
    k, row = pair[0], tuple(x if keep else 0 for x, keep in zip(pair[1], kept))
    assert _dot_kernel(row)(k) == _generic(_DOT, k, row=row)


@pytest.mark.parametrize("n", LENGTHS)
def test_every_length(n):
    rng = random.Random(n)
    pick = lambda: rng.choice([-1, 1]) * rng.randrange(2 ** 72)  # noqa: E731
    a, b = (tuple(pick() for _ in range(n)) for _ in "ab")
    m, row = pick() or 1, tuple(rng.choice([0, pick()]) for _ in range(n))
    assert _tuple_kernel(n, _ADD)(a, b) == _generic(_ADD, a, b)
    assert _tuple_kernel(n, _SCALE)(a, m) == _generic(_SCALE, a, m)
    assert _tuple_kernel(n, _FLOOR)(a, m) == _generic(_FLOOR, a, m)
    assert _tuple_kernel(n, _SUB)(a, b) == _generic(_SUB, a, b)
    assert _tuple_kernel(n, _NEG)(a) == _generic(_NEG, a)
    assert _dot_kernel(row)(a) == _generic(_DOT, a, row=row)


def test_a_row_entry_must_be_an_int():
    # the compiled source is made from ints only
    for entry in ("0); import os; (0", 1.5):
        with pytest.raises(ValueError):
            _dot_kernel((entry,))


@pytest.mark.parametrize("make", [rational_field, laurent_ddt, laurent_tddt_coarse,
                                  lambda: log_fragment(64), lambda: transseries_fragment(64)],
                         ids=["Q", "laurent_ddt", "laurent_tddt_coarse", "log_fragment(64)",
                              "transseries_fragment(64)"])
def test_a_field_keeps_the_kernels_of_its_rank(make):
    K = make()
    assert K._add is _tuple_kernel(K.rank, _ADD)
    assert K._scale is _tuple_kernel(K.rank, _SCALE)
    D, rows = K._euler_rows()
    rng = random.Random(K.rank)
    for dot, row in zip(K._thetas, rows, strict=True):
        k = tuple(rng.randrange(-BIG, BIG) for _ in range(K.rank))
        assert dot(k) == _generic(_DOT, k, row=row)


def test_a_fields_dots_go_with_it():
    # a field keeps its dots in _thetas, and no cache keeps them past it
    K = transseries_fragment.__wrapped__(3)
    K._euler_rows()
    dots = [weakref.ref(dot) for dot in K._thetas]
    del K
    gc.collect()
    assert [ref() for ref in dots] == [None] * len(dots)
