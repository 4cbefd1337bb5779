"""The metamorphic truncation oracle.

Every operation runs twice: on exact inputs, and on the same inputs
truncated.  Whatever the truncated run returns must agree with the exact
run on every term below the tau it claims, and the exact run must be
known there.  A truncated run may refuse (a VdfError: no known term to
invert, an indeterminate valuation, an unreachable target); a refusal
claims nothing.

Terms are read only through `sorted_terms`, `truncated` and `tau`, never
through the keys of `Series.terms`, so the oracle does not depend on how
a series stores its terms.  The same draws pin the types of the
coordinates that results report (TestCoordinateTypes).
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdfield.diffpoly import DiffPoly, add_conj, comp_conj, evaluate, mul_conj
from vdfield.errors import VdfError
from vdfield.gridseries import (
    FieldInstance,
    Generator,
    Series,
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    transseries_fragment,
)
from vdfield.newton import gamma_der
from vdfield.valgroup import INFINITY, Cut, GroupElement


@functools.lru_cache(maxsize=None)
def tau_only_logder():
    """Rank 1, t of value (1), t-logder O(t^-1): a logder known only
    modulo its tau.  The filling t^-1 gives (t^5)' = 5 t^4, so nothing
    may read this derivation as flat."""
    K = FieldInstance(1, [Generator("t", GroupElement([1]))], name="tau_only_logder")
    K.generators[0].logder = Series(K, {}, GroupElement([-1]))
    return K


FIELDS = [laurent_ddt, laurent_tddt_coarse,
          *[functools.partial(transseries_fragment, n) for n in range(3)],
          *[functools.partial(log_fragment, n) for n in range(3)],
          tau_only_logder]

_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
    lambda c: c != 0)
_halves = [Fraction(k, 2) for k in range(9)]


@functools.lru_cache(maxsize=None)
def _embedding_target(K):
    """A larger field with K's generators: the exp-log fragment over a
    flat one, else K with an infinitesimal flat generator adjoined."""
    if K.name.startswith("log_fragment"):
        return transseries_fragment(K.rank - 1)
    return K.with_flat_generator()


@st.composite
def _line(draw, K):
    """(f, ft, step): f is an exact series of 1-4 terms at lead + q*step
    for halves q (q = 0 always, so v(f) = lead, of any sign); ft is f
    truncated at lead + s*step, also a half s in [0, 4].  Inverting
    along such a line always reaches a target of whole steps."""
    n = K.rank
    lead = GroupElement([draw(_small) for _ in range(n)])
    p = draw(st.integers(0, n - 1))
    step = GroupElement(
        [0] * p
        + [draw(st.fractions(min_value=Fraction(1, 3), max_value=2,
                             max_denominator=3))]
        + [draw(_small) for _ in range(n - p - 1)]
    )
    qs = draw(st.lists(st.sampled_from(_halves[1:7]), max_size=3, unique=True))
    f = K.zero_series()
    for q in [0] + qs:
        f = f + K.monomial_series(K.monomial_of_value(lead + step.scale(q)),
                                  draw(_coeffs))
    return f, f.truncated(lead + step.scale(draw(st.sampled_from(_halves)))), step


@st.composite
def _maybe_truncated(draw, K):
    """(f, f or a truncation of f)."""
    f, ft, _ = draw(_line(K))
    return f, draw(st.sampled_from([f, ft]))


@st.composite
def _poly(draw, K):
    """(P, Pt): P of order 0-2 with 1-3 terms of degree at most 3 and
    exact line coefficients; Pt has the same terms, each coefficient
    exact or truncated."""
    order = draw(st.integers(0, 2))
    exact, cut = {}, {}
    for _ in range(draw(st.integers(1, 3))):
        idx = [0] * (order + 1)
        for _ in range(draw(st.integers(0, 3))):
            idx[draw(st.integers(0, order))] += 1
        c, ct = draw(_maybe_truncated(K))
        exact[tuple(idx)], cut[tuple(idx)] = c, ct
    return DiffPoly(K, exact, order), DiffPoly(K, cut, order)


@dataclass
class Inputs:
    f: Series
    g: Series
    P: DiffPoly
    n: int
    target: object  # None, or whole steps of f's line


def _invert(x, got):
    """On the truncated inputs (got is None), f.invert(target); on the
    exact ones, f inverted to got's truncation (exactly, for one term)."""
    if got is None:
        return x.f.invert(x.target)
    if len(x.f.sorted_terms()) == 1:
        return x.f.invert()
    return x.f.invert(got.tau + x.f.valuation())


def _logder(x, got):
    """As _invert, for f.logder(target)."""
    if got is None:
        return x.f.logder(x.target)
    if len(x.f.sorted_terms()) == 1:
        return x.f.logder()
    return x.f.logder(got.tau)


# op(x, got) runs one operation on the inputs x.  got is None on the
# truncated run; on the exact run it is the truncated run's result, from
# which invert and logder take the exact run's target.
OPERATIONS = {
    "add": lambda x, got: x.f + x.g,
    "mul": lambda x, got: x.f * x.g,
    "power": lambda x, got: x.f.power(x.n),
    "derive": lambda x, got: x.f.derive(),
    "invert": _invert,
    "logder": _logder,
    "embed_into": lambda x, got: x.f.embed_into(_embedding_target(x.f.field)),
    "evaluate": lambda x, got: evaluate(x.P, x.f),
    "add_conj": lambda x, got: add_conj(x.P, x.f),
    "mul_conj": lambda x, got: mul_conj(x.P, x.f),
    "comp_conj": lambda x, got: comp_conj(x.P, x.f),
}


def _assert_agree(exact, got):
    """got's terms are exact's below got.tau, and exact is known there."""
    assert got.tau <= exact.tau, (exact, got)
    assert exact.truncated(got.tau).sorted_terms() == got.sorted_terms(), (exact, got)


def _run(name, data):
    """Operation name on drawn inputs, truncated and then exact:
    (exact, got), or None when the truncated run refuses."""
    K = data.draw(st.sampled_from(FIELDS))()
    f, ft, step = data.draw(_line(K))
    # draw only what the operation reads
    g = gt = P = Pt = n = target = None
    if name in ("add", "mul"):
        g, gt = data.draw(_maybe_truncated(K))
    elif name in ("evaluate", "add_conj", "mul_conj", "comp_conj"):
        P, Pt = data.draw(_poly(K))
    elif name == "power":
        n = data.draw(st.integers(0, 4))
    elif name in ("invert", "logder"):
        k = data.draw(st.sampled_from([None, 1, 2, 3]))
        target = None if k is None else step.scale(k)
    op = OPERATIONS[name]
    try:
        got = op(Inputs(ft, gt, Pt, n, target), None)
    except VdfError:
        return None  # a refusal claims nothing
    return op(Inputs(f, g, P, n, target), got), got


class TestTruncationOracle:
    @pytest.mark.parametrize("name", list(OPERATIONS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_run_agrees_below_its_tau(self, name, data):
        ran = _run(name, data)
        if ran is None:
            return
        exact, got = ran
        if isinstance(exact, DiffPoly):
            assert exact.order == got.order
            for i in set(exact.terms) | set(got.terms):
                _assert_agree(exact.coefficient(i), got.coefficient(i))
        else:
            _assert_agree(exact, got)


# -- the types of coordinates ------------------------------------------------


def _series_of(result):
    """result itself, or the coefficients of a DiffPoly."""
    return list(result.terms.values()) if isinstance(result, DiffPoly) else [result]


def _reported_values(f):
    """Every value f reports: its terms' values, tau, val_or_tau and,
    where it is known, the valuation (+infinity left out)."""
    terms = [v for v, _ in f.sorted_terms()]
    values = terms + [f.tau, f.val_or_tau()]
    if terms or f.tau is INFINITY:
        values.append(f.valuation())
    return [v for v in values if v is not INFINITY]


def _assert_rational(x):
    """x is an int or a Fraction: never a float, nor a bool."""
    assert type(x) in (int, Fraction), (type(x), x)


def _assert_value_coordinate(x):
    """x is a rational, stored as an int when it is an integer."""
    _assert_rational(x)
    assert type(x) is int or x.denominator != 1, x


class TestCoordinateTypes:
    """On the oracle's drawn inputs, every coordinate a result reports
    is exact, and an integral value coordinate is an int: an int and its
    Fraction hash and print alike, but a float does not."""

    @pytest.mark.parametrize("name", list(OPERATIONS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_integral_value_coordinates_are_ints(self, name, data):
        ran = _run(name, data)
        if ran is None:
            return
        for f in (f for result in ran for f in _series_of(result)):
            K = f.field
            values = _reported_values(f) + [K.derivation_shift]
            cuts = [Cut(v.rank, v.coords) for v in values]
            try:
                cuts.append(gamma_der(K))
            except VdfError:
                pass  # a logder known only modulo its tau
            cuts += [cut.shift_by_prefix(values[-1]) for cut in cuts]
            for v in values:
                for x in v.coords:
                    _assert_value_coordinate(x)
                for q in K.monomial_of_value(v).exponents:
                    _assert_rational(q)
            for cut in cuts:
                for b in cut.bound:
                    _assert_value_coordinate(b)
