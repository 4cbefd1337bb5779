"""Shared random generators and comparison helpers, and the test-only
references moved out of src/: same_terms, word_coefficient and complexity."""

import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from vdfield.diffpoly import DiffPoly, gauss_val, mi_degree
from vdfield.errors import VdfError
from vdfield.gridseries import FieldInstance, Generator, Monomial
from vdfield.valgroup import GroupElement

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

# The tests import vdfield from src/ (pyproject sets pytest's pythonpath);
# the `python -m vdfield.cli` processes they start must find it there too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def rat(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_value(K, rng, lo=-4, hi=4):
    return GroupElement([rat(rng, lo, hi) for _ in range(K.rank)])


def random_positive_value(K, rng, max_num=5):
    p = rng.randrange(K.rank)
    coords = [Fraction(0)] * K.rank
    coords[p] = Fraction(rng.randint(1, max_num), rng.randint(1, 3))
    for j in range(p + 1, K.rank):
        coords[j] = rat(rng, -5, 5)
    return GroupElement(coords)


def random_series(K, rng, nterms=3, lo=-4, hi=4, nonzero=True):
    out = K.zero_series()
    for _ in range(nterms):
        c = rat(rng, -5, 5)
        out = out + K.monomial_series(K.monomial_of_value(random_value(K, rng, lo, hi)), c)
    if nonzero and not out.terms:
        out = out + K.one()
    return out


def random_small_series(K, rng, nterms=2):
    """Nonzero series with valuation > 0."""
    out = K.zero_series()
    for _ in range(nterms):
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
        out = out + K.monomial_series(
            K.monomial_of_value(random_positive_value(K, rng)), c
        )
    if not out.terms:
        out = K.monomial_series(K.monomial_of_value(random_positive_value(K, rng)))
    return out


def random_bounded_series(K, rng, nterms=2):
    """Series with valuation >= 0 (an element of the valuation ring)."""
    out = K.constant(rat(rng, -3, 3))
    out = out + random_small_series(K, rng, nterms)
    return out


def random_unit_series(K, rng, nterms=2):
    """Series with valuation exactly 0."""
    c = Fraction(rng.randint(1, 4), rng.randint(1, 2)) * rng.choice([1, -1])
    return K.constant(c) + random_small_series(K, rng, nterms)


def random_multi_index(rng, order, max_degree):
    idx = [0] * (order + 1)
    budget = rng.randint(0, max_degree)
    for _ in range(budget):
        idx[rng.randrange(order + 1)] += 1
    return tuple(idx)


def random_poly(K, rng, order=2, max_degree=3, nterms=3, coeff_terms=2):
    terms = {}
    for _ in range(nterms):
        i = random_multi_index(rng, order, max_degree)
        c = random_series(K, rng, nterms=coeff_terms)
        terms[i] = terms.get(i, K.zero_series()) + c
    P = DiffPoly(K, terms, order)
    if P.is_zero():
        P = DiffPoly.variable(K, 0)
    return P


def assert_normal(v):
    """v has the coordinates of GroupElement(v.coords), of the same types:
    an integral coordinate is an int, never a Fraction of denominator 1."""
    want = GroupElement(v.coords).coords
    assert v.coords == want and list(map(type, v.coords)) == list(map(type, want))


def same_terms(f, g):
    """Term-by-term equality of two series, ignoring the truncation levels."""
    f._check_field(g)
    return (f.den, f.cden, f.terms) == (g.den, g.cden, g.terms)


def complexity(P):
    """(order, degree in the top derivative, total degree) of P."""
    r = P.true_order()
    s = max((i[r] if r < len(i) else 0 for i in P.terms), default=0)
    return (r, s, max(map(mi_degree, P.terms)))


def word_coefficient(P, word):
    """Coefficient of P in the word decomposition P = sum P_[sigma] Y^[sigma],
    where P_[sigma] is permutation invariant: the multi-index
    coefficient split evenly across the distinct orderings."""
    word = tuple(word)
    d = len(word)
    idx = [0] * (P.order + 1)
    for s in word:
        if type(s) is not int or s < 0:
            raise VdfError(f"word letter {s!r} < 0 or not an int: a letter is a derivative order")
        if s > P.order:
            return P.field.zero_series()
        idx[s] += 1
    c = P.terms.get(tuple(idx))
    if c is None:
        return P.field.zero_series()
    mult = math.factorial(d)
    for m in idx:
        mult //= math.factorial(m)
    return c.scale(Fraction(1, mult))


def series_prec(f, g):
    """f strictly smaller than g: v(f) > v(g)."""
    return f.valuation() > g.valuation()


def poly_sim(A, B):
    """A ~ B: the difference sits strictly above A."""
    diff = A - B
    if diff.is_zero():
        return True
    return gauss_val(diff) > gauss_val(A)


_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_exponents = st.sampled_from([Fraction(q) for q in ("0", "0", "1", "-1", "1/2", "-3/2", "2")])


@st.composite
def triangular_fields(draw):
    """A field of rank 1-4 with square triangular generator values and
    exact logders of one or two terms, a fifth of them flat."""
    rank = draw(st.integers(1, 4))
    gens = [Generator(f"g{i}", GroupElement(
        [0] * i + [draw(_entries.filter(bool))] + [draw(_entries) for _ in range(rank - i - 1)]))
        for i in range(rank)]
    K = FieldInstance(rank, gens, name="drawn")
    for g in K.generators:
        g.logder = K.zero_series()
        if draw(st.integers(0, 4)):
            for _ in range(draw(st.integers(1, 2))):
                mono = Monomial([draw(_exponents) for _ in range(rank)])
                g.logder = g.logder + K.monomial_series(mono, draw(_entries.filter(bool)))
    return K


@pytest.fixture
def rng():
    return random.Random(20240817)
