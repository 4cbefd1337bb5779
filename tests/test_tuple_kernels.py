"""The compiled tuple kernels of valgroup and the dot of gridseries against their
generic forms, at every length from 0 (the field Q) to 66
(transseries_fragment(64)), on negative ints and ints beyond 2^64."""

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
    _FLOOR,
    _SCALE,
    _dot,
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
_DOT = "a[{0}] * {1:d}"  # the dot's per-coordinate template: {1} is a column entry


def _pairs(row):
    """The nonzero (position, entry) pairs of a dense column."""
    return [(j, e) for j, e in enumerate(row) if e]


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
    assert _dot(k, _pairs(row)) == _generic(_DOT, k, row=row)


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
    assert _dot(a, _pairs(row)) == _generic(_DOT, a, row=row)


@pytest.mark.parametrize("make", [rational_field, laurent_ddt, laurent_tddt_coarse,
                                  lambda: log_fragment(64), lambda: transseries_fragment(64)],
                         ids=["Q", "laurent_ddt", "laurent_tddt_coarse", "log_fragment(64)",
                              "transseries_fragment(64)"])
def test_a_field_keeps_the_kernels_of_its_rank(make):
    K = make()
    assert K._add is _tuple_kernel(K.rank, _ADD)
    assert K._scale is _tuple_kernel(K.rank, _SCALE)
    D, cols = K._euler_rows()[:2]
    assert len(cols) == K.rank
    rng = random.Random(K.rank)
    for col in cols:
        assert all(e for _, e in col) and sorted(col) == col
        row = [0] * K.rank
        for j, e in col:
            row[j] = e
        k = tuple(rng.randrange(-BIG, BIG) for _ in range(K.rank))
        assert _dot(k, col) == _generic(_DOT, k, row=row)


def test_a_field_goes_with_its_value_matrix():
    # a field keeps its value matrix itself, and no cache keeps the field
    # past its last reference once it has derived and been embedded into
    K, L = transseries_fragment.__wrapped__(3), log_fragment.__wrapped__(3)
    K._euler_rows()
    (K.gen("e_x") * K.gen("l1", 2)).derive()
    L.gen("l2").embed_into(K)
    assert K._euler is not None and L._euler is not None
    fields = [weakref.ref(K), weakref.ref(L)]
    del K, L
    gc.collect()
    assert [ref() for ref in fields] == [None, None]
