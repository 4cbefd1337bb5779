import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    random_series,
    random_small_series,
    random_value,
    rat,
    same_terms,
    triangular_fields,
)
from test_truncation import (
    FIELDS,
    _embedding_target,
    _line,
    _maybe_truncated,
    tau_only_logder,
)
from vdfield.errors import (
    ConfigError,
    IndeterminateValuation,
    RankMismatch,
    TruncationUnreachable,
    VdfError,
)
from vdfield.gridseries import (
    FieldInstance,
    Generator,
    Monomial,
    Series,
    laurent_ddt,
    laurent_tddt_coarse,
    _lattice_key,
    _sum_series,
    embed_value,
    log_fragment,
    monomial_strings,
    series_terms,
    transseries_fragment,
    val_strings,
)
from vdfield.coarsen import coarsen
from vdfield.diffpoly import (
    DiffPoly,
    add_conj,
    comp_conj,
    mul_conj,
    rational_field,
    substitute,
)
from vdfield.expr import parse_series
from vdfield.hsolve import lambda_series
from vdfield.newton import gamma_der
from vdfield.valgroup import GroupElement, INFINITY, _coord, unit, zero

SMALL_DER_FIELDS = [laurent_tddt_coarse, lambda: transseries_fragment(2)]
ALL_FIELDS = [laurent_ddt, laurent_tddt_coarse,
              lambda: transseries_fragment(2), lambda: log_fragment(2)]


class TestRingOps:
    def test_add_simple(self):
        K = laurent_ddt()
        t = K.gen("t")
        f = t + t.power(2)
        assert f.valuation() == GroupElement([1])
        assert len(f.terms) == 2

    def test_product_difference_of_squares(self):
        K = laurent_ddt()
        t = K.gen("t")
        assert (K.one() + t) * (K.one() - t) == K.one() - t.power(2)

    def test_truncated_add_drops_tail(self):
        K = laurent_ddt()
        t = K.gen("t")
        f = Series(K, {Monomial([1]): Fraction(1)}, GroupElement([3]))
        g = K.gen("t", 3) + K.gen("t", 4)
        s = f + g
        # terms at or above tau never appear
        assert s.tau == GroupElement([3])
        assert s.sorted_terms() == [(GroupElement([1]), Fraction(1))]

    def test_mul_truncation_bound(self):
        K = laurent_ddt()
        t = K.gen("t")
        f = (K.one() + t).truncated(GroupElement([3]))
        g = K.gen("t", -1) + K.one()
        p = f * g
        assert p.tau == GroupElement([2])  # min(3 + v(g), inf + v(f)) = 3 - 1

    def test_mul_all_unknown_operand(self):
        K = laurent_ddt()
        unknown = Series(K, {}, GroupElement([2]))
        g = K.gen("t", -1) + K.one()
        p = unknown * g
        assert not p.terms
        assert p.tau == GroupElement([1])

    def test_true_zero_multiplication(self):
        K = laurent_ddt()
        unknown = Series(K, {}, GroupElement([2]))
        assert (K.zero_series() * unknown).is_true_zero()

    def test_scale_zero_is_exact(self):
        K = laurent_ddt()
        f = K.gen("t").truncated(GroupElement([5]))
        assert f.scale(0).is_true_zero()


def _exactly(f: Series):
    return f.field, f.terms, f.den, f.cden, f.tau


def _power_cases(K, rng):
    """Exact and truncated series of K, and its true zero (Q's single
    value 0 leaves no room for a truncation above it)."""
    out = [K.zero_series(), K.one(), K.constant(Fraction(-3, 2))]
    if K.rank:
        for _ in range(3):
            f = random_series(K, rng, nterms=2, lo=-2, hi=2)
            out += [f, f.truncated(f.valuation() + random_value(K, rng, 1, 3)),
                    Series(K, {}, random_value(K, rng, -2, 2))]
    return out


class TestPowerAndOne:
    """power by square-and-multiply with no product by one(), and the
    product's shortcut for a factor that is exactly one, against the
    general path (the shortcut switched off)."""

    FIELDS = ALL_FIELDS + [rational_field]

    @staticmethod
    def _general(monkeypatch):
        monkeypatch.setattr(Series, "_is_one", lambda self: False)

    @pytest.mark.parametrize("make", FIELDS)
    def test_power_zero_and_one(self, make, rng):
        K = make()
        for f in _power_cases(K, rng):
            assert _exactly(f.power(0)) == _exactly(K.one())
            assert f.power(1) is f

    @pytest.mark.parametrize("make", FIELDS)
    def test_power_is_the_n_fold_product_from_one(self, make, rng, monkeypatch):
        K = make()
        cases = _power_cases(K, rng)
        got = {(k, n): f.power(n) for k, f in enumerate(cases) for n in range(7)}
        self._general(monkeypatch)
        for k, f in enumerate(cases):
            want = K.one()
            for n in range(7):
                assert _exactly(got[k, n]) == _exactly(want), (f, n)
                want = want * f

    @pytest.mark.parametrize("make", FIELDS)
    def test_a_factor_of_exactly_one_returns_the_other(self, make, rng, monkeypatch):
        K = make()
        cases = _power_cases(K, rng)
        for f in cases:
            if not f.is_true_zero():
                assert f * K.one() is f
                # with two exact ones the left factor comes back
                assert K.one() * f is f or f._is_one()
        self._general(monkeypatch)
        for f in cases:
            assert _exactly(f * K.one()) == _exactly(K.one() * f) == _exactly(f)

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_a_truncated_one_takes_the_general_path(self, make, rng, monkeypatch):
        K = make()
        near_one = K.one().truncated(random_value(K, rng, 1, 3))
        assert near_one.sorted_terms() == K.one().sorted_terms()
        assert not near_one._is_one() and K.one()._is_one()
        cases = [f for f in _power_cases(K, rng) if not f.is_true_zero()]
        got = [(f * near_one, near_one * f) for f in cases]
        for f, (right, left) in zip(cases, got):
            assert right is not f and left is not f
            assert right.tau == min(f.tau, near_one.tau + f.val_or_tau())
        self._general(monkeypatch)
        for f, (right, left) in zip(cases, got):
            assert _exactly(right) == _exactly(f * near_one)
            assert _exactly(left) == _exactly(near_one * f)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, False, "2", -1])
    def test_a_power_that_is_no_int_from_0_is_refused(self, n):
        # power(2.5) once gave f^3 and power(True) gave f
        K = laurent_ddt()
        with pytest.raises(VdfError, match=r"^power .* is no int >= 0: "
                                           r"negative powers go through invert\(\)$"):
            (K.one() + K.gen("t")).power(n)

    def test_one_of_another_field_is_refused(self):
        K, L = laurent_ddt(), laurent_tddt_coarse()
        for f in (K.gen("t"), K.one()):
            with pytest.raises(VdfError):
                f * L.one()
            with pytest.raises(VdfError):
                L.one() * f


class TestValuation:
    def test_graded_example(self):
        K = laurent_tddt_coarse()
        f = K.monomial_series(
            K.monomial_from_dict({"t": -1, "s": 1}), Fraction(3, 2)
        )
        assert f.valuation() == GroupElement([-1, 1])

    def test_true_zero(self):
        K = laurent_ddt()
        assert K.zero_series().valuation() is INFINITY

    def test_indeterminate(self):
        K = laurent_ddt()
        f = Series(K, {}, GroupElement([5]))
        with pytest.raises(IndeterminateValuation):
            f.valuation()


class TestDerive:
    def test_laurent_power(self):
        K = laurent_ddt()
        assert K.gen("t", 3).derive() == K.gen("t", 2).scale(3)

    def test_monomial_rules(self, rng):
        M = transseries_fragment(4)
        for _ in range(200):
            r = rat(rng, -5, 5)
            if r == 0:
                continue
            # (e^(rx))' = r e^(rx)
            e = M.gen("e_x", r)
            assert e.derive() == e.scale(r)
            # (l0^r)' = r l0^(r-1)
            l0r = M.gen("l0", r)
            assert l0r.derive() == M.gen("l0", r - 1).scale(r)
            # (l_(n+1)^r)' = r l_(n+1)^(r-1) (l0...ln)^-1
            n = rng.randint(0, 3)
            ln1 = M.gen(f"l{n + 1}", r)
            expect = {f"l{j}": -1 for j in range(n + 1)}
            expect[f"l{n + 1}"] = r - 1
            assert ln1.derive() == M.monomial_series(
                M.monomial_from_dict(expect), r
            )

    def test_derive_l1_example(self):
        M = transseries_fragment(2)
        assert M.gen("l1").derive() == M.gen("l0", -1)

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_leibniz(self, make, rng):
        K = make()
        for _ in range(75):  # 75 x 4 fields = 300 pairs
            f = random_series(K, rng, nterms=2, lo=-3, hi=3)
            g = random_series(K, rng, nterms=2, lo=-3, hi=3)
            assert (f * g).derive() == f.derive() * g + f * g.derive()

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_valuation_shift_bound(self, make, rng):
        K = make()
        s = K.derivation_shift
        for _ in range(100):
            f = random_series(K, rng, nterms=3)
            df = f.derive()
            if df.is_true_zero():
                continue
            assert df.val_or_tau() >= f.valuation() + s

    def test_asymptotic_law(self, rng):
        # f < g  iff  f' < g' among infinitesimals of the fragment
        M = transseries_fragment(6)
        checked = 0
        while checked < 200:
            f = random_small_series(M, rng)
            g = random_small_series(M, rng)
            df, dg = f.derive(), g.derive()
            if not df.terms or not dg.terms:
                continue
            checked += 1
            assert (f.valuation() > g.valuation()) == (
                df.valuation() > dg.valuation()
            )

    def test_logder_bounded_in_fragment(self, rng):
        M = transseries_fragment(4)
        for _ in range(100):
            mono = M.monomial_of_value(random_value(M, rng))
            ld = M.logder_of_value(M.monomial_value(mono))
            if ld.terms:
                assert ld.valuation() >= zero(M.rank)


class TestLambdaIdentity:
    @pytest.mark.parametrize("depth", range(0, 9))
    def test_derive_log_sum_matches_lambda(self, depth):
        L = log_fragment(depth + 1)
        total = L.zero_series()
        for n in range(1, depth + 2):
            total = total + L.gen(f"l{n}")
        assert same_terms(total.derive(), lambda_series(depth, L))


class TestLogderInvert:
    def test_logder_t(self):
        K = laurent_ddt()
        assert K.gen("t").logder() == K.gen("t", -1)

    def test_logder_l0(self):
        M = transseries_fragment(1)
        assert M.gen("l0").logder() == M.gen("l0", -1)

    def test_logder_product_rule_on_monomials(self, rng):
        M = transseries_fragment(3)
        assert M.gen("e_x").logder() + M.gen("l0").logder() == (
            (M.gen("e_x") * M.gen("l0")).logder()
        )
        assert (M.gen("e_x") * M.gen("l0")).logder() == M.one() + M.gen("l0", -1)
        for _ in range(50):
            a = M.monomial_series(M.monomial_of_value(random_value(M, rng)),
                                  rat(rng, 1, 5))
            b = M.monomial_series(M.monomial_of_value(random_value(M, rng)),
                                  rat(rng, 1, 5))
            lhs = (a * b).logder()
            assert lhs == a.logder() + b.logder()

    def test_invert_geometric(self):
        K = laurent_ddt()
        t = K.gen("t")
        inv = (K.one() - t).invert(GroupElement([4]))
        assert same_terms(inv, K.one() + t + t.power(2) + t.power(3))
        assert inv.tau == GroupElement([4])

    def test_invert_monomial_exact(self):
        K = laurent_ddt()
        assert K.gen("t").invert() == K.gen("t", -1)
        assert K.gen("t").invert().tau is INFINITY

    def test_invert_self_check(self, rng):
        K = laurent_ddt()
        t = K.gen("t")
        f = K.constant(2) + t
        tau = GroupElement([5])
        r = f.invert(tau) * f - K.one()
        assert r.val_or_tau() >= tau
        for _ in range(30):
            g = K.constant(rng.randint(1, 5)) + t.scale(rat(rng)) \
                + t.power(2).scale(rat(rng))
            tau = GroupElement([rng.randint(2, 7)])
            err = g.invert(tau) * g - K.one()
            assert err.val_or_tau() >= tau

    def test_invert_unreachable(self):
        K = laurent_tddt_coarse()
        f = K.one() - K.gen("s")
        with pytest.raises(TruncationUnreachable):
            f.invert(GroupElement([1, 0]))


class TestFieldStructure:
    def test_value_exponent_round_trip(self, rng):
        for make in ALL_FIELDS:
            K = make()
            for _ in range(50):
                gamma = random_value(K, rng)
                mono = K.monomial_of_value(gamma)
                assert K.monomial_value(mono) == gamma

    def test_embedding_preserves_arithmetic(self, rng):
        L = log_fragment(2)
        M = transseries_fragment(2)
        for _ in range(30):
            f = random_series(L, rng)
            g = random_series(L, rng)
            assert (f * g).embed_into(M) == f.embed_into(M) * g.embed_into(M)
            assert (f + g).embed_into(M) == f.embed_into(M) + g.embed_into(M)

    def test_zero_logders(self):
        # psi_floor is +infinity, and the shift falls back to zero
        K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                              Generator("s", GroupElement([0, 1]))])
        for g in K.generators:
            g.logder = K.zero_series()
        assert K.psi_floor(0) is INFINITY and K.psi_floor(1) is INFINITY
        assert K.derivation_shift == zero(2)

    def test_logder_known_only_modulo_its_tau_is_not_flat(self):
        # t-logder = O(t^-1) may be filled by t^-1: no psi-level, no cut,
        # and the shift and the derivative's tau are bounded by that tau
        K = tau_only_logder.__wrapped__()
        with pytest.raises(IndeterminateValuation):
            K.psi_level(0)
        with pytest.raises(IndeterminateValuation):
            gamma_der(K)
        assert K.derivation_shift == GroupElement([-1])
        d = Series(K, {}, GroupElement([5])).derive()
        assert not d.terms and d.tau == GroupElement([4])

    @pytest.mark.parametrize("make", ALL_FIELDS)
    def test_derive_with_no_terms(self, make):
        # the sum of no parts is the true zero, truncated only by the tail
        K = make()
        assert K.zero_series().derive().is_true_zero()
        tau = GroupElement([Fraction(1, 2)] * K.rank)
        d = Series(K, {}, tau).derive()
        assert not d.terms and d.tau == tau + K.derivation_shift

    def test_flat_extension(self):
        K = laurent_ddt()
        ext = K.with_flat_generator()
        assert ext.rank == 2
        eps = ext.gen("_eps")
        assert eps.derive().is_true_zero()
        assert ext.monomial_value(ext.monomial_from_dict({"_eps": 1})) == \
            GroupElement([0, 1])


# -- truncated non-units: the invert / logder contracts ----------------------------

_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
    lambda c: c != 0)


@st.composite
def _truncated_non_units(draw):
    """(f, target): f has 2-4 terms, a nonzero valuation and a finite
    tau; its other terms and its tau sit at rational multiples of a
    positive step above the leading value, and the target is 1-3 steps,
    so the geometric expansion can always reach it."""
    K = draw(st.sampled_from(ALL_FIELDS))()
    n = K.rank
    lead = GroupElement([draw(_small) for _ in range(n)])
    assume(not lead.is_zero())
    p = draw(st.integers(0, n - 1))
    step = GroupElement(
        [0] * p
        + [draw(st.fractions(min_value=Fraction(1, 3), max_value=2,
                             max_denominator=3))]
        + [draw(_small) for _ in range(n - p - 1)]
    )
    qs = draw(st.lists(st.sampled_from([Fraction(k, 2) for k in range(1, 7)]),
                       min_size=1, max_size=3, unique=True))
    terms = {K.monomial_of_value(lead): draw(_coeffs)}
    for q in qs:
        terms[K.monomial_of_value(lead + step.scale(q))] = draw(_coeffs)
    f = Series(K, terms, lead + step.scale(4))
    return f, step.scale(draw(st.integers(1, 3)))


class TestTruncatedNonUnits:
    @given(_truncated_non_units())
    @settings(max_examples=300, deadline=None)
    def test_invert_contract(self, case):
        f, tau = case
        assert (f * f.invert(tau) - f.field.one()).val_or_tau() >= tau

    @given(_truncated_non_units())
    @settings(max_examples=200, deadline=None)
    def test_logder_exact_below_tau(self, case):
        f, tau = case
        assert not (f * f.logder(tau) - f.derive()).terms

    def test_roadmap_repro(self):
        # v(u) = -1: the unit part must be expanded to tau, not tau + v
        K = laurent_ddt()
        u = K.gen("t", -1).scale(Fraction(3, 2)) - K.gen("t", Fraction(1, 3)) \
            - K.gen("t", Fraction(2, 3)).scale(Fraction(5, 2))
        tau = GroupElement([Fraction(7, 3)])
        assert (u * u.invert(tau) - K.one()).val_or_tau() >= tau
        ld = u.logder(GroupElement([Fraction(4, 3)]))
        assert ld.coefficient(K.monomial_from_dict({"t": Fraction(1, 3)})) \
            == Fraction(-8, 9)


# -- one-pass sums against repeated + ----------------------------------------------


def _ref_monomial_logder(K: FieldInstance, mono: Monomial) -> Series:
    out = K.zero_series()
    for q, g in zip(mono.exponents, K.generators):
        if q != 0:
            out = out + g.logder.scale(q)
    return out


def _ref_derive(f: Series) -> Series:
    K = f.field
    out = K.zero_series()
    for v, c in f.sorted_terms():
        mono = K.monomial_of_value(v)
        out = out + K.monomial_series(mono, c) * _ref_monomial_logder(K, mono)
    if f.tau is not INFINITY:
        out = out.truncated(f.tau + K.derivation_shift)
    return out


def _ref_exponents(K: FieldInstance, gamma: GroupElement) -> tuple:
    """Invert the triangular exponent-to-value map: exponent i is
    the residual at coordinate i over v(g_i)'s, skipping zero
    residuals and zero generator entries.  The per-call Fraction solve,
    kept here as the oracle of the field's rows."""
    if gamma.rank != K.rank:
        raise RankMismatch(f"value rank {gamma.rank} != field rank {K.rank}")
    exps = [Fraction(0)] * K.rank
    residual = list(gamma.coords)
    for i, g in enumerate(K.generators):
        if residual[i]:
            # in Fraction: two int coordinates would divide to a float
            q = exps[i] = Fraction(residual[i]) / g.value.coords[i]
            for j in range(i + 1, K.rank):
                x = g.value.coords[j]
                if x:
                    residual[j] -= q * x
    return tuple(exps)


def _ref_monomial_value(K: FieldInstance, mono: Monomial) -> GroupElement:
    """sum q_i * v(g_i), over the nonzero exponents and entries.  The
    Fraction sum over every coordinate of every generator, kept here as
    the oracle of monomial_value."""
    coords = [0] * K.rank
    for q, g in zip(mono.exponents, K.generators):
        if q:
            for j, x in enumerate(g.value.coords):
                if x:
                    coords[j] += q * x
    return GroupElement(coords)


def _off_diagonal_field(truncated: bool) -> FieldInstance:
    """Rank 3 with rational, off-diagonal generator values, so the
    inverse value matrix has a common denominator D != 1; the logders
    have two terms, and with truncated those of a and c are known only
    below a finite tau."""
    K = FieldInstance(3, [
        Generator("a", GroupElement([Fraction(3, 2), Fraction(-2, 5), 3])),
        Generator("b", GroupElement([0, Fraction(-2, 3), Fraction(1, 4)])),
        Generator("c", GroupElement([0, 0, Fraction(5, 7)]))], name="off_diagonal")
    a, b, c = K.generators
    a.logder = K.gen("b", -1).scale(3) + K.gen("c", Fraction(1, 2))
    b.logder = K.one() - K.gen("a", Fraction(-1, 3)).scale(Fraction(2, 5))
    c.logder = K.gen("a", -1) + K.gen("b", 2).scale(-4)
    if truncated:
        a.logder = a.logder.truncated(GroupElement([0, 1, 0]))
        c.logder = c.logder.truncated(GroupElement([-1, 2, Fraction(1, 3)]))
    return K


OFF_DIAGONAL_FIELDS = [lambda: _off_diagonal_field(False), lambda: _off_diagonal_field(True)]


class TestOnePassSums:
    @pytest.mark.parametrize("make", ALL_FIELDS + [lambda: transseries_fragment(6)]
                             + OFF_DIAGONAL_FIELDS)
    def test_derive_and_monomial_logder_match_repeated_add(self, make, rng):
        K = make()
        for _ in range(60):
            f = random_series(K, rng, nterms=rng.randint(1, 5))
            if rng.randrange(2):
                f = f.truncated(f.valuation() + random_value(K, rng, 0, 3))
            assert f.derive() == _ref_derive(f)
            for v, _ in f.sorted_terms():
                mono = K.monomial_of_value(v)
                assert K.logder_of_value(K.monomial_value(mono)) == _ref_monomial_logder(K, mono)

    def test_truncated_logders_keep_least_tau(self):
        # generator logders known only below a finite tau: the sum keeps
        # the least of them, as repeated + does
        K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                              Generator("s", GroupElement([0, 1]))])
        K.generators[0].logder = (K.one() + K.gen("s")).truncated(
            GroupElement([0, 2]))
        K.generators[1].logder = K.gen("t").truncated(GroupElement([3, 0]))
        mono = K.monomial_from_dict({"t": 2, "s": -1})
        assert K.logder_of_value(K.monomial_value(mono)) == _ref_monomial_logder(K, mono)
        assert K.logder_of_value(K.monomial_value(mono)).tau == GroupElement([0, 2])
        f = K.monomial_series(mono, 3) + K.gen("s", 2)
        assert f.derive() == _ref_derive(f)

    @pytest.mark.parametrize("make", ALL_FIELDS + OFF_DIAGONAL_FIELDS)
    def test_euler_rows_invert_the_value_matrix(self, make, rng):
        # exponent i of a term is its key dotted with row i, over D * den
        K = make()
        D, rows = _densified(K)
        assert (D, rows) == _ref_euler_rows(K)
        if make in OFF_DIAGONAL_FIELDS:
            assert D != 1 and any(r[j] for i, r in enumerate(rows) for j in range(i))
        for _ in range(30):
            f = random_series(K, rng, nterms=1)
            (key,) = f.terms
            exps = _ref_exponents(K, f.valuation())
            assert exps == tuple(Fraction(sum(map(operator.mul, key, r)), D * f.den)
                                 for r in rows)

    def test_a_missing_logder_refuses_only_where_its_exponent_is_used(self):
        K = FieldInstance(2, [Generator("t", GroupElement([1, Fraction(1, 2)])),
                              Generator("s", GroupElement([0, 1]))])
        K.generators[1].logder = K.gen("t", -1)
        f = K.gen("s", 2).scale(3) - K.gen("s", Fraction(-1, 3))
        assert f.derive() == _ref_derive(f)
        with pytest.raises(VdfError, match="generator t has no"):
            (f + K.gen("t")).derive()

    def test_one_message_for_a_missing_logder(self):
        K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                              Generator("s", GroupElement([0, 1]))])
        K.generators[1].logder = K.zero_series()
        refusals = [lambda: K.gen("t").derive(),
                    lambda: K.logder_of_value(K.monomial_value(K.monomial_from_dict({"t": 1}))),
                    lambda: coarsen(K, 0)]
        for refuse in refusals:
            with pytest.raises(VdfError, match="^generator t has no logder$"):
                refuse()

    def test_a_truncated_zero_logder(self, rng):
        # t's logder is known to be 0 only below (0, 2): theta_t(f) times it
        # has no term, and bounds the tau at v(theta_t(f)) + (0, 2)
        K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                              Generator("s", GroupElement([0, 1]))])
        K.generators[0].logder = Series(K, {}, GroupElement([0, 2]))
        K.generators[1].logder = K.gen("t", -1).scale(Fraction(2, 3))
        for _ in range(40):
            f = random_series(K, rng, nterms=rng.randint(1, 4))
            if rng.randrange(2):
                f = f.truncated(f.valuation() + random_value(K, rng, 0, 3))
            assert f.derive() == _ref_derive(f)
        f = K.gen("t", 2) + K.gen("s")
        assert f.derive().tau == GroupElement([2, 2])

    def test_a_missing_logder_between_used_generators(self, rng):
        # b has no logder; f has no b-exponent, so b's logder is never read
        K = _off_diagonal_field(False)
        K.generators[1].logder = None
        for _ in range(40):
            terms = {K.monomial_from_dict({"a": rat(rng), "c": rat(rng)}): rat(rng, 1, 5)
                     for _ in range(rng.randint(1, 4))}
            f = Series(K, terms, INFINITY)
            assert f.derive() == _ref_derive(f)

    def test_the_rank_0_field(self):
        Q = rational_field()
        for f in (Q.zero_series(), Q.one(), Q.constant(Fraction(-7, 3)),
                  Series(Q, {}, zero(0)), Q.constant(2).truncated(zero(0))):
            assert f.derive() == _ref_derive(f)
            assert not f.derive().terms


# -- products against the loop of the general path -----------------------------------


def _ref_mul(a: Series, b: Series) -> Series:
    """The product by the loop over all term pairs, with no shortcut for
    a single-term factor or one, and keys and numerators always brought
    to the common den and to their own cden."""
    K = a.field
    if a.is_true_zero() or b.is_true_zero():
        return K.zero_series()
    tau = INFINITY
    if a.tau is not INFINITY:
        tau = a.tau + b.val_or_tau()
    if b.tau is not INFINITY:
        tau = min(tau, b.tau + a.val_or_tau())
    den = math.lcm(a.den, b.den)
    right = list(b._terms_at(den, b.cden).items())
    terms = {}
    for k1, c1 in a._terms_at(den, a.cden).items():
        for k2, c2 in right:
            k = tuple(map(operator.add, k1, k2))
            s = terms.get(k)
            if s is None:
                terms[k] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    terms[k] = s
                else:
                    del terms[k]
    return Series(K, terms, tau, den, a.cden * b.cden)


def _product_cases(K, rng):
    """Single terms on integer and off-integer values, sums and
    differences of two of them (whose products cancel), longer series,
    their truncations, a truncated zero, the true zero and exactly one."""
    def term(integral):
        v = (GroupElement([rng.randint(-3, 3) for _ in range(K.rank)]) if integral
             else random_value(K, rng, -3, 3))
        return Series(K, {v: rat(rng, 1, 5) * rng.choice((1, -1))}, INFINITY)
    x, y, z = term(True), term(False), term(False)
    cases = [K.zero_series(), K.one(), K.constant(Fraction(-3, 2)), x, y, z,
             x + y, x - y, y + z, random_series(K, rng, nterms=4),
             Series(K, {}, random_value(K, rng, -2, 2))]
    for f in (y, x + y, cases[-2]):
        cases.append(f.truncated(f.valuation() + random_value(K, rng, 0, 3)))
    return cases


class TestProductReference:
    @pytest.mark.parametrize("make", ALL_FIELDS + OFF_DIAGONAL_FIELDS)
    def test_product_matches_the_reference_loop(self, make, rng):
        K = make()
        for _ in range(3):
            cases = _product_cases(K, rng)
            assert len({f.den for f in cases}) > 1
            for a in cases:
                for b in cases:
                    got, want = a * b, _ref_mul(a, b)
                    assert (got.terms, got.den, got.cden, got.tau) \
                        == (want.terms, want.den, want.cden, want.tau), (a, b)


# -- the one-pass residual update and the one-term constructor ------------------------


class TestOnePassUpdate:
    """z._plus_term_times(h, r), the solver's residual update, has the
    terms, den, cden and tau of z + h * r built by a product and a sum."""

    @staticmethod
    def _check(z, h, r):
        got, want = z._plus_term_times(h, r), z + h * r
        assert (got.terms, got.den, got.cden, got.tau) \
            == (want.terms, want.den, want.cden, want.tau), (z, h, r)
        return got

    @pytest.mark.parametrize("make", ALL_FIELDS + OFF_DIAGONAL_FIELDS)
    def test_matches_the_product_and_sum(self, make, rng):
        K = make()
        for _ in range(3):
            cases = _product_cases(K, rng)
            # exact one-term h, among them a fractional value with a rational coefficient
            hs = [f for f in cases if len(f.terms) == 1 and f.tau is INFINITY]
            hs.append(K.term(GroupElement([Fraction(-2, 3)] * K.rank), Fraction(-5, 3)))
            assert len({f.den for f in cases}) > 1
            assert any(r.tau is INFINITY for r in cases) and any(r.tau is not INFINITY for r in cases)
            for h in hs:
                for r in cases:
                    for z in cases:
                        self._check(z, h, r)
                    # the update cancels every term of z
                    emptied = self._check(-(h * r), h, r)
                    assert not emptied.terms and emptied.tau == r.tau + h.valuation()


class TestOneTermConstructor:
    """FieldInstance.term(gamma, c) is Series(K, {gamma: c}, INFINITY)."""

    @pytest.mark.parametrize("make", ALL_FIELDS + [
        rational_field, lambda: transseries_fragment(16), lambda: log_fragment(16)])
    def test_matches_the_value_dict(self, make):
        K = make()
        pattern = [Fraction(1, 2), Fraction(-2, 3), 0, 3, -1]
        values = [zero(K.rank),
                  GroupElement([pattern[i % 5] for i in range(K.rank)]),
                  GroupElement([pattern[(i + 2) % 5] for i in range(K.rank)])]
        for gamma in values:
            for c in (1, -3, Fraction(-7, 2), Fraction(5, 4), 0):
                got, want = K.term(gamma, c), Series(K, {gamma: Fraction(c)}, INFINITY)
                assert (got.terms, got.den, got.cden, got.tau) \
                    == (want.terms, want.den, want.cden, want.tau), (gamma, c)
                assert got == want and got.valuation() == want.valuation()
        # the constant 0, built like any constant, is the true zero
        z = K.constant(0)
        assert (z.terms, z.den, z.cden, z.tau) == ({}, 1, 1, INFINITY) and z == K.zero_series()

    def test_rank_mismatch(self):
        K = laurent_tddt_coarse()
        for gamma in (zero(1), zero(3)):
            with pytest.raises(RankMismatch):
                Series(K, {gamma: Fraction(1)}, INFINITY)
            with pytest.raises(RankMismatch):
                K.term(gamma)

    def test_each_key_and_coefficient_is_read_on_its_own(self):
        # each key a Monomial or a GroupElement, in either order, and each
        # coefficient any rational _coord reads, text included
        K = laurent_tddt_coarse()
        v, w = GroupElement([1, Fraction(1, 2)]), GroupElement([-1, 2])
        want = K.term(v, Fraction(1, 2)) + K.term(w, 3)
        for terms in ({v: "1/2", w: 3}, {K.monomial_of_value(v): Fraction(1, 2), w: "3"},
                      {w: Fraction(3), K.monomial_of_value(v): " 2/4 "}):
            got = Series(K, terms, INFINITY)
            assert (got.terms, got.den, got.cden) == (want.terms, want.den, want.cden), terms
        L = laurent_ddt()
        assert Series(L, {GroupElement([1]): "1/2"}, INFINITY) == L.term(unit(1, 0), Fraction(1, 2))

    @pytest.mark.parametrize("x, name", [(0.25, "float"), (1.0, "float"), (True, "bool")])
    def test_floats_and_bools_are_refused(self, x, name):
        K = laurent_ddt()
        v, f = unit(1, 0), K.one() + K.gen("t")
        for build in (lambda: K.term(v, x), lambda: K.constant(x), lambda: f.scale(x),
                      lambda: K.gen("t", x), lambda: Series(K, {v: x}, INFINITY),
                      lambda: Monomial([x])):
            with pytest.raises(TypeError, match=rf"^expected an int, Fraction or text, found {name} "):
                build()

    @pytest.mark.parametrize("x, shown", [("12", "str '12'"), (12, "int 12")])
    def test_exponents_are_no_text_and_no_number(self, x, shown):
        # read as GroupElement reads a vector: "12" was the exponents (1, 2)
        with pytest.raises(TypeError, match=f"^expected a sequence of rationals, found {shown}$"):
            Monomial(x)


# -- term dicts are shared, never mutated ---------------------------------------------


class TestSharedTermDicts:
    """An exact Series keeps the dict it is given, so a term dict may be
    shared between operands and results: no operation may change one."""

    @pytest.mark.parametrize("make", ALL_FIELDS + OFF_DIAGONAL_FIELDS)
    def test_no_operation_changes_an_operand(self, make, rng):
        K = make()
        cases = [f for f in _product_cases(K, rng) if f.terms]
        units = [K.one(), K.constant(3) + random_small_series(K, rng)]
        P = DiffPoly(K, {(2, 0): cases[3], (0, 1): cases[6], (1, 1): cases[-1]})
        kept = []

        def keep(*fs):
            kept.extend((f, dict(f.terms)) for f in fs)

        keep(*cases, *units, *P.terms.values())
        for a in cases:
            tau = a.val_or_tau() + random_value(K, rng, 1, 3)
            keep(-a, a.scale(Fraction(-2, 3)), a.power(2), a.power(3), a.truncated(tau),
                 a.derive(), a.invert(tau), a.logder(tau))
            for b in cases:
                keep(a + b, a - b, a * b)
        for u in units:
            images = [DiffPoly.from_coeff(K, u), DiffPoly.variable(K, 0) + DiffPoly.variable(K, 1)]
            for Q in (substitute(P, images), comp_conj(P, u), add_conj(P, u), mul_conj(P, u)):
                keep(*Q.terms.values())
        for f, terms in kept:
            assert f.terms == terms


# -- integer lattice keys --------------------------------------------------------


def _assert_lattice(f: Series):
    """f's keys are int tuples of the field's rank, and f.den is the
    least common denominator of f's values; f's coefficients are int
    numerators over f.cden, the least common denominator of the
    coefficients (1 for an empty series)."""
    assert type(f.den) is int and f.den >= 1
    for k in f.terms:
        assert type(k) is tuple and len(k) == f.field.rank
        assert all(type(x) is int for x in k)
    values = [v for v, _ in f.sorted_terms()]
    assert f.den == math.lcm(*(x.denominator for v in values for x in v.coords))
    assert type(f.cden) is int and f.cden >= 1
    assert all(type(c) is int for c in f.terms.values())
    assert math.gcd(f.cden, *f.terms.values()) == 1
    coeffs = [c for _, c in f.sorted_terms()]
    assert all(type(c) is Fraction for c in coeffs)
    assert f.cden == math.lcm(*(c.denominator for c in coeffs))


def _half(*coords):
    return GroupElement([Fraction(c) for c in coords])


class TestLattice:
    def test_products_and_sums_across_lattices(self):
        K = laurent_tddt_coarse()
        f = Series(K, {_half("1/2", 0): 1, _half(0, "3/2"): 2}, INFINITY)
        g = Series(K, {_half("1/3", 0): 3, _half(1, "-2/3"): -1}, INFINITY)
        assert (f.den, g.den) == (2, 3)
        expect = {}
        for v, c in f.sorted_terms():
            for w, d in g.sorted_terms():
                expect[v + w] = expect.get(v + w, 0) + c * d
        prod = f * g
        assert prod.den == 6
        assert prod.sorted_terms() == sorted(expect.items())
        assert (f + g).den == 6
        assert (f + g).sorted_terms() == sorted(f.sorted_terms() + g.sorted_terms())
        # what cancels leaves the coarser lattice of what remains
        assert (f + g) - f == g and ((f + g) - f).den == 3
        assert (f - f).den == 1 and (f - f).is_true_zero()
        for r in (prod, f + g, (f + g) - f, prod * prod, (f + g).power(3)):
            _assert_lattice(r)

    def test_equality_and_hash_ignore_the_lattice(self):
        K = laurent_tddt_coarse()
        t = K.gen("t")
        half, third = K.gen("t", Fraction(1, 2)), K.gen("t", Fraction(1, 3))
        for other in (half * half,                  # formed on the lattice 1/2
                      (t + third) - third,          # formed on 1/3
                      (t * half * third) * (half * third).invert()):
            assert other == t and hash(other) == hash(t)
            assert same_terms(other, t)
        tau = _half(2, "1/2")
        assert (half * half).truncated(tau) == t.truncated(tau)
        assert hash((half * half).truncated(tau)) == hash(t.truncated(tau))
        assert half * half != t.truncated(tau)

    def test_coefficients_are_ints_over_one_denominator(self):
        K = laurent_tddt_coarse()
        f = Series(K, {_half(1, 0): Fraction(1, 2), _half(0, 1): Fraction(-2, 3),
                       _half(2, 0): 5}, INFINITY)
        g = Series(K, {_half(0, 1): Fraction(1, 6), _half(1, 1): Fraction(3, 4)},
                   _half(3, 0))
        assert f.cden == 6 and f.terms == {(0, 1): -4, (1, 0): 3, (2, 0): 30}
        assert f.dominant_term() == (Fraction(-2, 3), _half(0, 1))
        assert type(f.dominant_term()[0]) is Fraction
        t2 = K.monomial_from_dict({"t": 2})
        assert type(f.coefficient(t2)) is Fraction and f.coefficient(t2) == 5
        assert type(g.coefficient(t2)) is Fraction and g.coefficient(t2) == 0
        # a value formed along different paths has one stored form
        for h in (f, g, f * g, (f + g).power(2)):
            back = h.scale(3).scale(Fraction(1, 3))
            assert back == h and hash(back) == hash(h)
            for other in (f, g, K.gen("s")):
                back, same = (h + other) - other, h.truncated(other.tau)
                assert back == same and hash(back) == hash(same)
        # terms of denominators 2 and 3 cancel back to an integer coefficient
        half_third = Series(K, {_half(1, 0): Fraction(1, 2)}, INFINITY) \
            + Series(K, {_half(1, 0): Fraction(1, 2), _half(0, 1): Fraction(1, 3)},
                     INFINITY) + Series(K, {_half(0, 1): Fraction(-1, 3)}, INFINITY)
        assert half_third == K.gen("t") and half_third.cden == 1
        assert half_third.terms == {(1, 0): 1}
        for r in (f, g, f * g, f + g, f - f, f.scale(Fraction(-7, 5)), -g,
                  g.truncated(_half(1, 0)), f.derive(), half_third, K.constant("-3/4")):
            _assert_lattice(r)

    def test_tau_off_the_lattice(self):
        K = laurent_tddt_coarse()
        f = Series(K, {_half(1, 5): 1, _half(2, -7): 1, _half(1, 0): 2},
                   _half("3/2", 0))
        assert f.den == 1
        assert [v for v, _ in f.sorted_terms()] == [_half(1, 0), _half(1, 5)]
        g = Series(K, {_half(1, 0): 1, _half(1, 1): 1}, _half(1, "1/2"))
        assert g.sorted_terms() == [(_half(1, 0), 1)]
        # a finer tau truncating a series on a coarser lattice, and a
        # product whose tau is on neither operand's lattice
        assert (K.gen("t") + K.gen("t", 2)).truncated(_half("4/3", 0)) == K.gen("t", 1) \
            .truncated(_half("4/3", 0))
        p = g * K.gen("s", Fraction(1, 3))
        assert p.tau == _half(1, "5/6") and p.sorted_terms() == [(_half(1, "1/3"), 1)]

    def test_term_exactly_at_tau_is_dropped(self):
        K = laurent_tddt_coarse()
        f = Series(K, {_half("1/2", 0): 1, _half(1, 0): 1}, _half("1/2", 0))
        assert not f.terms and f.tau == _half("1/2", 0)
        with pytest.raises(IndeterminateValuation):
            f.valuation()
        g = K.gen("t", Fraction(1, 2)) + K.gen("t")
        assert g.truncated(_half(1, 0)).sorted_terms() == [(_half("1/2", 0), 1)]
        assert (g * g).truncated(_half(1, 0)).sorted_terms() == []

    def test_wrong_rank_is_refused_at_the_boundary(self):
        # int-tuple keys of another length would compare and add silently
        K = laurent_tddt_coarse()
        with pytest.raises(RankMismatch):
            Series(K, {GroupElement([1]): 1}, INFINITY)
        with pytest.raises(RankMismatch):
            Series(K, {GroupElement([1, 0]): 1}, GroupElement([2]))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_keys_are_int_tuples_after_every_operation(self, data):
        K = data.draw(st.sampled_from(FIELDS))()
        f, ft, step = data.draw(_line(K))
        g, gt = data.draw(_maybe_truncated(K))
        results = [f * g, ft * gt, f + gt, ft - g, f.derive(), ft.derive(),
                   f.truncated(f.valuation() + step.scale(Fraction(3, 2))),
                   ft.embed_into(_embedding_target(K))]
        for op in (lambda h: h.invert(step.scale(2)), lambda h: h.logder(step.scale(2))):
            for h in (f, ft):
                try:
                    results.append(op(h))
                except VdfError:
                    pass  # a refused inversion has no keys to check
        for r in results:
            _assert_lattice(r)


def _fraction_lattice_key(gamma, den):
    """The lattice key by one Fraction product per coordinate: the
    reference for the integer arithmetic of _lattice_key."""
    return tuple(int(y) if y.denominator == 1 else y for y in (x * den for x in gamma.coords))


_key_coords = st.sampled_from([Fraction(0)]) | st.fractions(
    min_value=-6, max_value=6, max_denominator=12)


class TestLatticeKey:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_key_matches_the_fraction_reference(self, data):
        rank = data.draw(st.integers(1, 6))
        gamma = GroupElement(data.draw(st.lists(_key_coords, min_size=rank, max_size=rank)))
        den = data.draw(st.integers(1, 12))
        key = _lattice_key(gamma, den)
        expect = _fraction_lattice_key(gamma, den)
        assert key == expect
        assert [type(x) for x in key] == [type(x) for x in expect]
        # keys order as their values do, also against lattice keys at
        # and around the floor of each coordinate
        other = tuple(math.floor(x) + data.draw(st.integers(-1, 1)) for x in key)
        other_value = GroupElement([Fraction(x, den) for x in other])
        assert (key < other) == (gamma < other_value)
        assert (key == other) == (gamma == other_value)
        assert (key > other) == (gamma > other_value)

    @given(coords=st.lists(_key_coords, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_den_one_key_is_the_coordinates(self, coords):
        """Coordinates are ints and off-lattice Fractions, the den-1 key."""
        gamma = GroupElement(coords)
        key = _lattice_key(gamma, 1)
        assert key == gamma.coords == _fraction_lattice_key(gamma, 1)
        assert [type(x) for x in key] == [type(x) for x in gamma.coords] \
            == [type(x) for x in _fraction_lattice_key(gamma, 1)]


_mixed_coords = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))

EXPONENT_FIELDS = [laurent_ddt, laurent_tddt_coarse,
                   *[lambda n=n: transseries_fragment(n) for n in (0, 1, 2, 6, 16)],
                   *[lambda n=n: log_fragment(n) for n in (0, 1, 2, 6, 16)],
                   lambda: FieldInstance(0, [], name="rank_0"), *OFF_DIAGONAL_FIELDS]


class TestExponentMap:
    """monomial_of_value reads the field's rows; _ref_exponents solves
    the value matrix again per call, in Fraction.  They agree, and the
    Monomial holds each exponent in valgroup._coord's normal form: an int
    where integral, else a Fraction."""

    @staticmethod
    def _check(K, gamma):
        exps = K.monomial_of_value(gamma).exponents
        assert exps == _ref_exponents(K, gamma)
        assert [type(q) for q in exps] == [type(_coord(q)) for q in exps]
        assert K.monomial_value(K.monomial_of_value(gamma)) == gamma

    @pytest.mark.parametrize("make", EXPONENT_FIELDS)
    def test_rows_match_the_per_call_solve(self, make, rng):
        K = make()
        dens = [1, 2, 3, 4, 5, 6, 7, 12]
        for _ in range(40):
            self._check(K, GroupElement([Fraction(rng.randint(-9, 9), rng.choice(dens))
                                         for _ in range(K.rank)]))
        for i in range(K.rank):
            self._check(K, K.generators[i].value)

    @given(K=triangular_fields(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_per_call_solve_on_drawn_fields(self, K, data):
        for _ in range(5):
            self._check(K, GroupElement([data.draw(_mixed_coords) for _ in range(K.rank)]))

    def test_a_value_of_the_wrong_rank_is_refused(self):
        for K in (laurent_ddt(), transseries_fragment(2), FieldInstance(0, [])):
            with pytest.raises(RankMismatch, match="value rank"):
                K.monomial_of_value(zero(K.rank + 1))

    def test_embedding_refuses_a_used_generator_the_target_lacks(self):
        src = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                                Generator("s", GroupElement([0, Fraction(1, 2)]))])
        dst = FieldInstance(1, [Generator("t", GroupElement([3]))])
        assert embed_value(src, dst, GroupElement([Fraction(2, 3), 0])) == GroupElement([2])
        with pytest.raises(VdfError) as err:
            embed_value(src, dst, GroupElement([1, 1]))
        assert err.type is VdfError
        assert str(err.value) == "embedding uses a generator missing from the target field"

    @pytest.mark.parametrize("make", ALL_FIELDS + OFF_DIAGONAL_FIELDS)
    def test_embedding_into_the_own_field_gives_an_equal_series(self, make, rng):
        K = make()
        for _ in range(20):
            f = random_series(K, rng, nterms=rng.randint(1, 4))
            for g in (f, f.truncated(f.valuation() + random_value(K, rng, 0, 3))):
                e = g.embed_into(K)
                assert e.field is K and e == g
                assert (e.den, e.cden, e.terms, e.tau) == (g.den, g.cden, g.terms, g.tau)


class TestMonomialValue:
    """monomial_value reads generator i's entries from position i on and
    sums an integral exponent as an int; _ref_monomial_value sums every
    entry in Fraction.  Both give the same coordinates, of the same types."""

    @staticmethod
    def _check(K, mono):
        got, want = K.monomial_value(mono), _ref_monomial_value(K, mono)
        assert got.coords == want.coords
        assert list(map(type, got.coords)) == list(map(type, want.coords))

    @pytest.mark.parametrize("make", EXPONENT_FIELDS)
    def test_matches_the_fraction_sum(self, make, rng):
        K = make()
        exps = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]
        for _ in range(40):
            self._check(K, Monomial([rng.choice(exps) for _ in range(K.rank)]))
        for i in range(K.rank):
            self._check(K, Monomial([Fraction(int(j == i)) for j in range(K.rank)]))

    @given(K=triangular_fields(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_sum_on_drawn_fields(self, K, data):
        for _ in range(5):
            self._check(K, Monomial([data.draw(_mixed_coords) for _ in range(K.rank)]))

    def test_integral_sums_of_fractions_are_ints(self):
        K = FieldInstance(2, [Generator("a", GroupElement([Fraction(1, 2), Fraction(1, 3)])),
                              Generator("b", GroupElement([0, Fraction(2, 3)]))])
        v = K.monomial_value(Monomial([2, Fraction(1, 2)]))
        assert v.coords == (1, 1)
        assert list(map(type, v.coords)) == [int, int]


# -- the int value map against the Fraction code it replaced ---------------------------


def _ref_euler_rows(K: FieldInstance) -> tuple:
    """(D, rows) by back-substituting each unit value in Fraction, over
    every coordinate: the code the int back-substitution replaced, kept
    here as its oracle."""
    n, values = K.rank, [g.value.coords for g in K.generators]
    inv = [[0] * n for _ in range(n)]  # inv[j]: the exponents of unit value j
    for j, exps in enumerate(inv):
        residual = list(unit(n, j).coords)
        for i in range(j, n):
            if residual[i]:
                # in Fraction: two int coordinates would divide to a float
                q = exps[i] = Fraction(residual[i]) / values[i][i]
                for k in range(i + 1, n):
                    if values[i][k]:
                        residual[k] -= q * values[i][k]
    D = math.lcm(*(q.denominator for row in inv for q in row))
    rows = [tuple(int(row[i] * D) for row in inv) for i in range(n)]
    return D, rows


def _densified(K: FieldInstance) -> tuple:
    """(D, rows) of the field's sparse value matrix in _ref_euler_rows'
    dense shape (rows[i]: column i of the inverse), after checking that
    each column and each row of W holds its nonzero int entries in
    increasing position, and that W is E times the values, E least."""
    D, cols, E, W = K._euler_rows()
    assert len(cols) == len(W) == K.rank
    for pairs in cols + W:
        assert all(type(e) is int and e for _, e in pairs)
        assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})

    def dense(pairs):
        row = [0] * K.rank
        for j, e in pairs:
            row[j] = e
        return tuple(row)

    values = [g.value.coords for g in K.generators]
    assert E == math.lcm(*(x.denominator for v in values for x in v))
    assert [dense(w) for w in W] == [tuple(E * x for x in v) for v in values]
    return D, [dense(col) for col in cols]


def _ref_embed_value(src: FieldInstance, dst: FieldInstance, gamma: GroupElement):
    """The value in dst of src's exponents on the same-named generators,
    through a Monomial; exponents and values from the Fraction oracles."""
    powers = {g.name: q for g, q in zip(src.generators, _ref_exponents(src, gamma)) if q}
    if not powers.keys() <= dst._index.keys():
        raise VdfError("embedding uses a generator missing from the target field")
    return _ref_monomial_value(dst, dst.monomial_from_dict(powers))


def _ref_embed_into(f: Series, other: FieldInstance) -> Series:
    """Series.embed_into as a value and a Fraction coefficient per term."""
    K = f.field
    terms = {_ref_embed_value(K, other, v): c for v, c in f.sorted_terms()}
    tau = f.tau
    if tau is not INFINITY:
        tau = _ref_embed_value(K, other, tau)
    return Series(other, terms, tau)


def _ref_logder_of_value(K: FieldInstance, gamma: GroupElement) -> Series:
    """The logder of the monomial of value gamma: a Monomial of Fraction
    exponents, one scaled series per exponent, and their sum."""
    mono = Monomial(_ref_exponents(K, gamma))
    return _sum_series(K, [K._logder(i).scale(q) for i, q in enumerate(mono.exponents) if q])


def _ref_monomial_strings(K: FieldInstance, gamma: GroupElement) -> list:
    """[name, exponent] of the monomial of value gamma, from Fraction exponents."""
    return [[g.name, str(q)]
            for g, q in zip(K.generators, _ref_exponents(K, gamma)) if q != 0]


def _outcome(call, *args):
    """call(*args), or the type and message of the VdfError it raises."""
    try:
        out = call(*args)
    except VdfError as exc:
        return type(exc), str(exc)
    return (out.terms, out.den, out.cden, out.tau) if isinstance(out, Series) else out


def _embedding_pairs():
    """(source, target) field makers: each field of EXPONENT_FIELDS into
    itself with a flat generator adjoined, and log_fragment(n) into
    transseries_fragment(n)."""
    pairs = [(make, lambda make=make: make().with_flat_generator()) for make in EXPONENT_FIELDS]
    return pairs + [(lambda n=n: log_fragment(n), lambda n=n: transseries_fragment(n))
                    for n in (0, 1, 2, 6, 16)]


def _drawn_series(K, data, truncate: bool) -> Series:
    """1-4 terms of drawn values and coefficients, maybe truncated."""
    terms = {GroupElement([data.draw(_mixed_coords) for _ in range(K.rank)]):
             data.draw(st.fractions(-5, 5, max_denominator=4).filter(bool))
             for _ in range(data.draw(st.integers(1, 4)))}
    f = Series(K, terms, INFINITY)
    if truncate and f.terms:
        f = f.truncated(f.valuation() + GroupElement(
            [data.draw(st.fractions(0, 3, max_denominator=3)) for _ in range(K.rank)]))
    return f


class TestValueMapOracles:
    """The int value map (the field's value matrix as sparse ints: the
    columns of its inverse and the nonzero entries of W) against the
    Fraction code it replaced: _euler_rows,
    embed_into and embed_value, logder_of_value (also through a monomial), and
    the monomial names give the same results, of the same types."""

    @staticmethod
    def _check_values(K, values):
        assert _densified(K) == _ref_euler_rows(K)
        for gamma in values:
            assert monomial_strings(K, gamma) == _ref_monomial_strings(K, gamma)
            if all(g.logder is not None for g in K.generators):
                assert _outcome(K.logder_of_value, gamma) \
                    == _outcome(_ref_logder_of_value, K, gamma)
                mono = K.monomial_of_value(gamma)
                assert _outcome(lambda: K.logder_of_value(K.monomial_value(mono))) \
                    == _outcome(_ref_logder_of_value, K, gamma)

    @staticmethod
    def _check_embedding(f, dst):
        assert _outcome(f.embed_into, dst) == _outcome(_ref_embed_into, f, dst)
        for v, _ in f.sorted_terms():
            assert _outcome(embed_value, f.field, dst, v) \
                == _outcome(_ref_embed_value, f.field, dst, v)

    @pytest.mark.parametrize("make", EXPONENT_FIELDS)
    def test_rows_logders_and_names(self, make, rng):
        K = make()
        dens = [1, 2, 3, 4, 6]
        values = [GroupElement([Fraction(rng.randint(-9, 9), rng.choice(dens))
                                for _ in range(K.rank)]) for _ in range(30)]
        self._check_values(K, values + [g.value for g in K.generators])
        for _ in range(10):
            f = random_series(K, rng, nterms=rng.randint(1, 4)) if K.rank else K.constant(3)
            assert series_terms(f) == [{"coeff": str(c), "monomial": _ref_monomial_strings(K, v)}
                                       for v, c in f.sorted_terms()]

    @pytest.mark.parametrize("src, dst", _embedding_pairs())
    def test_embeddings(self, src, dst, rng):
        K, L = src(), dst()
        for _ in range(20):
            f = random_series(K, rng, nterms=rng.randint(1, 4)) if K.rank else K.constant(2)
            for g in (f, f.truncated(f.valuation() + random_value(K, rng, 0, 3))):
                self._check_embedding(g, L)
        self._check_embedding(K.zero_series(), L)

    @given(K=triangular_fields(), L=triangular_fields(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_on_drawn_fields(self, K, L, data):
        # non-unit diagonals and off-diagonal entries on both sides; L has
        # K's first min(rank) generator names, so an embedding that uses
        # one of K's later generators is refused by both
        values = [GroupElement([data.draw(_mixed_coords) for _ in range(K.rank)])
                  for _ in range(3)]
        self._check_values(K, values)
        for truncate in (False, True):
            f = _drawn_series(K, data, truncate)
            for dst in (K, K.with_flat_generator(), L):
                self._check_embedding(f, dst)

    def test_a_wrong_rank_is_refused_as_before(self):
        K, gamma = transseries_fragment(2), zero(5)
        for call in (K.logder_of_value, K.monomial_of_value, K.term,
                     lambda v: monomial_strings(K, v), lambda v: embed_value(K, K, v)):
            with pytest.raises(RankMismatch, match=r"^value rank 5 != field rank 4$"):
                call(gamma)


class TestMonomialExponents:
    """A Monomial keeps its exponents as valgroup._coord gives them, and
    compares and hashes as the Monomial of Fraction exponents did."""

    def test_types_equality_and_hash(self):
        given_ = [2, Fraction(4, 2), "6/3", Fraction(1, 2), "-3/6", 0, Fraction(0), "0"]
        mono = Monomial(given_)
        assert [type(q) for q in mono.exponents] == [int] * 3 + [Fraction] * 2 + [int] * 3
        fractions = tuple(Fraction(q) for q in given_)
        assert mono.exponents == fractions
        assert hash(mono) == hash((fractions,))
        assert mono == Monomial(fractions) and {mono: 1}[Monomial(fractions)] == 1
        assert repr(mono) == "Monomial('2', '2', '2', '1/2', '-1/2', '0', '0', '0')"

    @given(K=triangular_fields(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_constructors_give_normal_exponents(self, K, data):
        gamma = GroupElement([data.draw(_mixed_coords) for _ in range(K.rank)])
        powers = {g.name: data.draw(_mixed_coords) for g in K.generators}
        for mono in (K.monomial_of_value(gamma), K.monomial_from_dict(powers)):
            assert [type(q) for q in mono.exponents] == [type(_coord(q)) for q in mono.exponents]
        assert K.monomial_of_value(gamma).exponents == _ref_exponents(K, gamma)


class TestIntCoordinates:
    """A value coordinate that is an integer is an int, so every true
    division of one must go through Fraction: with generator value 2
    and gamma = (1,), the exponent is 1/2, not the float 0.5."""

    @staticmethod
    def _field():
        K = FieldInstance(1, [Generator("t", GroupElement([2]))], name="t_of_value_2")
        K.generators[0].logder = K.gen("t", -1)
        return K

    def test_exponent_of_a_half_step_is_a_fraction(self):
        K = self._field()
        assert type(K.generators[0].value.coords[0]) is int
        exps = K.monomial_of_value(GroupElement([1])).exponents
        assert exps == (Fraction(1, 2),) and type(exps[0]) is Fraction

    def test_euler_rows_build(self):
        K = self._field()
        assert _densified(K) == _ref_euler_rows(K) == (2, [(1,)])
        assert K._euler_rows() == (2, [[(0, 1)]], 1, [[(0, 2)]])

    def test_derive_is_the_term_by_term_product_rule(self):
        K = self._field()
        f = (K.gen("t", Fraction(1, 2)).scale(3) + K.gen("t", 2)
             - K.gen("t", -3).scale(5) + K.one())
        for g in (f, f.truncated(GroupElement([5]))):
            got, want = g.derive(), _ref_derive(g)
            assert got.sorted_terms() == want.sorted_terms()
            assert got.tau == want.tau

    def test_int_and_fraction_coordinates_render_alike(self):
        from_int, from_fraction = GroupElement([2]), GroupElement([Fraction(2)])
        assert val_strings(from_int) == val_strings(from_fraction) == ["2"]
        assert type(from_fraction.coords[0]) is int
        assert hash(from_int) == hash(GroupElement._raw((Fraction(2),)))

    def test_values_of_a_den_6_series_keep_int_and_fraction_coordinates(self):
        K = laurent_tddt_coarse()
        f = (K.term(GroupElement([Fraction(1, 2), Fraction(-2, 3)]), 1)
             + K.term(GroupElement([1, 2]), 3) + K.term(GroupElement([Fraction(3, 2), -4]), 5))
        assert f.den == 6
        values = [v for v, _ in f.sorted_terms()]
        assert values == [GroupElement([Fraction(1, 2), Fraction(-2, 3)]),
                          GroupElement([1, 2]), GroupElement([Fraction(3, 2), -4])]
        assert [[type(x) for x in v.coords] for v in values] \
            == [[Fraction, Fraction], [int, int], [Fraction, int]]
        v = f.valuation()
        assert v == values[0] and [type(x) for x in v.coords] == [Fraction, Fraction]


# -- the repr is the expression grammar ----------------------------------------------


@st.composite
def _exact_series(draw):
    """An exact series of 0-4 terms, with coefficients +-1 among others."""
    K = draw(st.sampled_from(ALL_FIELDS))()
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        value = GroupElement([draw(_small) for _ in range(K.rank)])
        terms[value] = draw(st.sampled_from([Fraction(1), Fraction(-1)]) | _coeffs)
    return Series(K, terms, INFINITY)


class TestRepr:
    @given(_exact_series())
    @settings(max_examples=200, deadline=None)
    def test_parse_series_reads_the_repr_back(self, f):
        assert parse_series(repr(f), f.field) == f

    @pytest.mark.parametrize("name", ["t", "_", "e_x", "x2", "\u00e9", "x\u00b2"])
    def test_any_grammar_name_reads_back(self, name):
        K = FieldInstance(2, [Generator("s", GroupElement([1, 0])),
                              Generator(name, GroupElement([0, 1]))])
        f = K.term(GroupElement([0, 1]), 3) + K.term(GroupElement([1, -2]), "1/2") + K.one()
        assert parse_series(repr(f), K) == f

    @pytest.mark.parametrize("name", ["2", "Y", "a b", "", "t'", "\u00b2x", "x-1"])
    def test_a_name_the_grammar_cannot_read_is_refused(self, name):
        # over a generator called 2, 3*m was printed 3*2 and read back as 6
        message = f"^generator name {re.escape(repr(name))}: a name is word characters, "
        with pytest.raises(ConfigError, match=message):
            FieldInstance(2, [Generator("s", GroupElement([1, 0])),
                              Generator(name, GroupElement([0, 1]))])

    def test_coefficients_and_truncation(self):
        K = laurent_ddt()
        assert repr(K.zero_series()) == "0"
        f = K.one() - K.gen("t") + K.gen("t", 2).scale(Fraction(3, 2))
        assert repr(f) == "1 + -1*t + 3/2*t^2"
        assert repr(f.truncated(GroupElement([2]))) == "1 + -1*t + O((2))"
