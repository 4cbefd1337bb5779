import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_normal,
    random_bounded_series,
    random_multi_index,
    random_poly,
    random_positive_value,
    random_series,
    random_small_series,
    random_unit_series,
    random_value,
    rat,
    triangular_fields,
)
from vdfield import newton
from vdfield.cli import field_from_config
from vdfield.coarsen import coarse_val, coarsen, coarsened_gamma_der
from vdfield.diffpoly import (
    DiffPoly,
    add_conj,
    comp_conj,
    ddeg,
    dominant,
    gauss_val,
    mi_degree,
    mi_weight,
    tropical_argmin,
)
from vdfield.errors import IndeterminateValuation, VdfError
from vdfield.gridseries import (
    FieldInstance,
    Generator,
    Monomial,
    Series,
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    transseries_fragment,
)
from vdfield.hsolve import lambda_series
from vdfield.newton import (
    PcSequence,
    breakpoints,
    flex_probe,
    gamma_der,
    ndeg,
    ndeg_geq,
    ndeg_in_cut,
    ndeg_prec,
    s_der,
    tropical_ddeg,
)
from vdfield.valgroup import (
    ALL,
    INFINITY,
    PREFIX,
    ConvexSubgroup,
    Cut,
    GroupElement,
    unit,
    with_infinitesimal,
    zero,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMALL_DER = [laurent_tddt_coarse, lambda: transseries_fragment(2)]


def yvars(K, n=3):
    return [DiffPoly.variable(K, j) for j in range(n)]


class TestTropical:
    def test_examples(self):
        K = laurent_ddt()
        Y, Yp, _ = yvars(K)
        P = Y * Y + Yp * DiffPoly.from_coeff(K, K.gen("t"))
        assert tropical_ddeg(P, GroupElement([Fraction(-1, 2)])) == 2
        assert tropical_ddeg(P, GroupElement([-2])) == 1
        assert tropical_ddeg(Y * DiffPoly.from_coeff(K, K.constant(5)), GroupElement([-9])) == 1

    def test_rejects_nonnegative(self):
        K = laurent_ddt()
        P = DiffPoly.variable(K, 0)
        with pytest.raises(VdfError):
            tropical_ddeg(P, zero(1))
        with pytest.raises(VdfError):
            tropical_ddeg(P, GroupElement([1]))

    def test_unknown_coefficient_certification(self):
        from vdfield.errors import IndeterminateValuation
        from vdfield.gridseries import Series

        K = laurent_ddt()
        Y = DiffPoly.variable(K, 0)
        unknown = Series(K, {}, GroupElement([2]))
        P = Y * DiffPoly.from_coeff(K, K.one()) + DiffPoly(K, {(2,): unknown})
        # near zero the unknown tail at valuation >= 2 cannot win
        assert tropical_ddeg(P, GroupElement([Fraction(-1, 2)])) == 1
        # an unknown tail with higher weight can win at deep gamma
        amb = DiffPoly(K, {(1, 0): K.one(), (0, 1): unknown}, order=1)
        assert tropical_ddeg(amb, GroupElement([Fraction(-1, 2)])) == 1
        with pytest.raises(IndeterminateValuation):
            tropical_ddeg(amb, GroupElement([-3]))

    def test_oracle_equivalence(self, rng):
        # tropical value == ddeg of the honest conjugate, in
        # small-derivation instances, on and off breakpoints
        for make in SMALL_DER:
            K = make()
            cases = 0
            while cases < 120:
                P = random_poly(K, rng, order=2, max_degree=3)
                gammas = [random_value(K, rng) for _ in range(3)]
                gammas += [b for b in breakpoints(P)[:2]]
                for gamma in gammas:
                    if not gamma < zero(K.rank):
                        continue
                    phi = K.monomial_series(K.monomial_of_value(gamma))
                    assert tropical_ddeg(P, gamma) == dominant(comp_conj(P, phi)).ddeg
                    cases += 1

    def test_breakpoint_example(self):
        K = laurent_ddt()
        Y, Yp, _ = yvars(K)
        P = Y * Y + Yp * DiffPoly.from_coeff(K, K.gen("t"))
        assert breakpoints(P) == [GroupElement([-1])]
        assert breakpoints(Y) == []

    def test_breakpoint_count_bound(self, rng):
        K = laurent_tddt_coarse()
        for _ in range(30):
            P = random_poly(K, rng, order=2, max_degree=3, nterms=4)
            n = len(P.terms)
            assert len(breakpoints(P)) <= n * (n - 1) // 2

    @given(K=triangular_fields(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_breakpoints_are_normal(self, K, seed):
        # built from the coordinates of scaled differences, not normalized again
        P = random_poly(K, random.Random(seed), order=2, max_degree=3, nterms=4)
        for b in breakpoints(P):
            assert_normal(b)

    def test_plateau_constant_between_breakpoints(self, rng):
        K = laurent_tddt_coarse()
        for _ in range(20):
            P = random_poly(K, rng, order=2, max_degree=3, nterms=4)
            bps = breakpoints(P)
            points = [GroupElement([-1, 0]) + (bps[0] if bps else zero(2))]
            intervals = []
            lo = None
            for b in bps + [zero(2)]:
                if lo is None:
                    intervals.append((b - GroupElement([2, 0]), b))
                else:
                    intervals.append((lo, b))
                lo = b
            for a, b in intervals:
                vals = set()
                for w in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    p = a + (b - a).scale(w)
                    if p < zero(2):
                        vals.add(tropical_ddeg(P, p))
                assert len(vals) <= 1


class TestGammaDer:
    def test_laurent(self):
        cut = gamma_der(laurent_ddt())
        assert cut == Cut(1, (-1,), inclusive=True)

    def test_tddt(self):
        cut = gamma_der(laurent_tddt_coarse())
        assert cut == Cut(2, (0,), inclusive=True)

    def test_transseries(self):
        for depth in (0, 2, 4):
            M = transseries_fragment(depth)
            cut = gamma_der(M)
            expect = M.monomial_value(
                M.monomial_from_dict({f"l{j}": -1 for j in range(depth + 1)})
            )
            assert cut.has_max() and cut.max_element() == expect

    def test_membership_oracle(self, rng):
        # 300-sample membership cross-check: gamma in the cut iff every
        # sampled small monomial has v(m') > gamma
        for make in [laurent_ddt, laurent_tddt_coarse, lambda: transseries_fragment(2)]:
            K = make()
            cut = gamma_der(K)
            smalls = []
            for _ in range(100):
                coords = [Fraction(0)] * K.rank
                p = rng.randrange(K.rank)
                coords[p] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for j in range(p + 1, K.rank):
                    coords[j] = rat(rng, -4, 4)
                smalls.append(GroupElement(coords))
            derivative_vals = []
            for delta in smalls:
                mono = K.monomial_of_value(delta)
                ld = K.logder_of_value(K.monomial_value(mono))
                if ld.terms:
                    derivative_vals.append(delta + ld.valuation())
            for _ in range(300):
                gamma = random_value(K, rng, lo=-6, hi=6)
                if cut.contains(gamma):
                    assert all(gamma < dv for dv in derivative_vals)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_a_flat_first_class_leaves_the_whole_group_to_the_next(self, rank):
        # g0 is flat and every later generator has logder 1: the fold
        # starts from the whole group, the depth-0 cut, and each class's
        # floor (0, ..., 0) replaces it; with g0 alone the field is flat
        K = _flat_first_field(rank)
        assert K.psi_level(0) is INFINITY
        for k in range(rank + 1):
            assert newton._analytic_cut(K, k) == _reference_analytic_cut(K, k)
        expect = Cut(1) if rank == 1 else Cut(rank, (0,) * rank)
        assert newton._analytic_cut(K, rank) == expect

    def test_zero_derivation_gives_the_whole_group(self):
        K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                              Generator("s", GroupElement([0, 1]))], name="flat")
        for g in K.generators:
            g.logder = K.zero_series()
        cut = gamma_der(K)
        assert cut == Cut(2) and cut.kind == "all"
        assert s_der(K).prefix_len == 0

    def test_s_der(self):
        assert s_der(laurent_ddt()).prefix_len == 1  # the trivial subgroup of Q
        assert s_der(laurent_tddt_coarse()).prefix_len == 1  # the coefficient block
        M = transseries_fragment(3)
        assert s_der(M).prefix_len == M.rank  # {0}

    def test_s_der_is_trivial_iff_cut_has_max(self):
        for make in [laurent_ddt, lambda: transseries_fragment(1),
                     lambda: log_fragment(2)]:
            K = make()
            cut = gamma_der(K)
            assert cut.has_max()
            assert s_der(K).prefix_len == K.rank


def _t_field(logder):
    """The rank-1 field on t of value (1) with t's logder logder(K)."""
    K = FieldInstance(1, [Generator("t", GroupElement([1]))])
    K.generators[0].logder = logder(K)
    return K


def _derived_data(K):
    """derivation_shift, the tau of a truncated derive, gamma_der and
    ndeg_geq at rank + 1, of Y*Y' + Y at (0, 1): 1 when der is zero, 2
    for d/dt."""
    f = (K.gen("t", 2) + K.gen("t", 3)).truncated(GroupElement([5]))
    P = DiffPoly(K, {(1, 1): K.one(), (1, 0): K.one()})
    return (K.derivation_shift, f.derive().tau, gamma_der(K),
            ndeg_geq(P, GroupElement([0, 1])))


class TestDerivedDataFollowsLogders:
    """Every cache of data that follows from the logders is built again
    when a logder is replaced after construction."""

    def test_a_replaced_logder_gives_a_fresh_fields_data(self):
        K = _t_field(lambda K: K.zero_series())
        assert _derived_data(K) == (GroupElement([0]), GroupElement([5]), Cut(1), 1)
        K.generators[0].logder = K.gen("t", -1)
        fresh = _derived_data(_t_field(lambda K: K.gen("t", -1)))
        assert fresh == (GroupElement([-1]), GroupElement([4]),
                         Cut(1, (-1,), inclusive=True), 2)
        assert _derived_data(K) == fresh

    def test_without_a_replacement_the_data_is_kept(self):
        K = _t_field(lambda K: K.gen("t", -1))
        assert gamma_der(K) is gamma_der(K)
        assert K.derivation_shift is K.derivation_shift
        builds = []
        assert K._derived("_probe", lambda: builds.append(1) or len(builds)) == 1
        assert K._derived("_probe", lambda: builds.append(1) or len(builds)) == 1
        K.generators[0].logder = K.gen("t", -1)  # an equal logder, but a new object
        assert K._derived("_probe", lambda: builds.append(1) or len(builds)) == 2


class TestNdeg:
    def test_laurent_example(self):
        K = laurent_ddt()
        Y, Yp, _ = yvars(K)
        P = Y * Y + Yp * DiffPoly.from_coeff(K, K.gen("t"))
        assert ndeg(P) == 2

    def test_linear_monic_with_bounded_root(self):
        K = laurent_ddt()
        Y = DiffPoly.variable(K, 0)
        for b in (K.one(), K.gen("t"), K.constant(2) + K.gen("t").scale(3)):
            assert ndeg(Y - DiffPoly.from_coeff(K, b)) == 1
        # complement: a root above the valuation ring is invisible
        assert ndeg(Y - DiffPoly.from_coeff(K, K.gen("t", -1))) == 0

    def test_product_additivity(self, rng):
        for make in [laurent_ddt] + SMALL_DER:
            K = make()
            for _ in range(30):
                P = random_poly(K, rng, order=1, max_degree=2)
                Q = random_poly(K, rng, order=1, max_degree=2)
                assert ndeg(P * Q) == ndeg(P) + ndeg(Q)

    def test_base_point_independence(self, rng):
        K = laurent_tddt_coarse()
        for _ in range(20):
            P = random_poly(K, rng, order=2, max_degree=3)
            d = ndeg(P)
            for base in (GroupElement([0, -4]), GroupElement([0, 2]),
                         GroupElement([-1, 1])):
                assert ndeg(P, base=base) == d

    def test_comp_conj_invariance(self, rng):
        # units leave the cut alone; a general conjugate is measured
        # against the shifted cut with twisted normalization
        for make in SMALL_DER:
            K = make()
            for _ in range(30):
                P = random_poly(K, rng, order=1, max_degree=2)
                f = random_unit_series(K, rng)
                assert ndeg(comp_conj(P, f)) == ndeg(P)
                mono = K.monomial_series(
                    K.monomial_of_value(random_value(K, rng)), rat(rng, 1, 3)
                )
                shifted = gamma_der(K).shift_by_prefix(mono.valuation())
                assert ndeg(comp_conj(P, mono), cut=shifted, twist=mono) == ndeg(P)

    def test_comp_conj_composition_law(self, rng):
        # (P^a)^b with twisted kernel coefficients equals P^(ab)
        for make in [laurent_ddt] + SMALL_DER:
            K = make()
            for _ in range(20):
                P = random_poly(K, rng, order=2, max_degree=3)
                a = K.monomial_series(
                    K.monomial_of_value(random_value(K, rng)), rat(rng, 1, 3)
                )
                b = random_unit_series(K, rng)
                lhs = comp_conj(comp_conj(P, a), b, twist=a)
                rhs = comp_conj(P, a * b)
                assert lhs == rhs

    def test_additive_invariance(self, rng):
        for make in SMALL_DER:
            K = make()
            for _ in range(30):
                P = random_poly(K, rng, order=1, max_degree=2)
                a = random_bounded_series(K, rng)
                assert ndeg(add_conj(P, a)) == ndeg(P)

    def test_no_max_eventual_oracle(self, rng):
        # the symbolic-top evaluation agrees with honest conjugations
        # deep inside the top coset of the cut
        K = laurent_tddt_coarse()
        for _ in range(25):
            P = random_poly(K, rng, order=2, max_degree=3)
            d = ndeg(P)
            deep = []
            for m in (7, 11, 15):
                phi = K.monomial_series(K.monomial_of_value(GroupElement([0, m])))
                deep.append(dominant(comp_conj(P, phi)).ddeg)
            if deep[0] == deep[1] == deep[2]:
                assert d == deep[-1], (P, d, deep)


class TestNdegGeqPrec:
    def test_geq_zero_example(self):
        K = laurent_ddt()
        Yp = DiffPoly.variable(K, 1)
        assert ndeg_geq(Yp, zero(1)) == ndeg(Yp) == 1

    def test_prec_example(self):
        K = laurent_ddt()
        P = DiffPoly.variable(K, 0) - DiffPoly.from_coeff(K, K.gen("t"))
        assert ndeg_prec(P, K.gen("t")) == 0
        assert ndeg_geq(P, GroupElement([1])) == 1

    def test_geq_nonincreasing(self, rng):
        for make in [laurent_ddt, laurent_tddt_coarse]:
            K = make()
            for _ in range(20):
                P = random_poly(K, rng, order=1, max_degree=2)
                base = random_value(K, rng)
                chain = [base]
                for _ in range(3):
                    chain.append(chain[-1] + random_small_series(K, rng).valuation())
                values = [ndeg_geq(P, γ) for γ in chain]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_prec_between_adjacent_geq(self, rng):
        K = laurent_ddt()
        for _ in range(20):
            P = random_poly(K, rng, order=1, max_degree=2)
            g = K.monomial_series(K.monomial_of_value(random_value(K, rng)))
            lo = ndeg_geq(P, g.valuation())
            hi = ndeg_prec(P, g)
            assert hi <= lo

    def test_prec_matches_limit_from_above(self, rng):
        # refine gamma downward toward v(g) along the least significant
        # coordinate; once two refinements agree they must equal the
        # symbolic one-sided value
        for make in [laurent_ddt, laurent_tddt_coarse]:
            K = make()
            last = K.rank - 1
            for _ in range(15):
                P = random_poly(K, rng, order=1, max_degree=2)
                vg = random_value(K, rng)
                g = K.monomial_series(K.monomial_of_value(vg))
                symbolic = ndeg_prec(P, g)
                prev = None
                den = 4
                while den <= 4096:
                    step = GroupElement(
                        [Fraction(0)] * last + [Fraction(1, den)]
                    )
                    cur = ndeg_geq(P, vg + step)
                    if prev is not None and cur == prev:
                        assert symbolic == cur, (P, vg, symbolic, cur)
                        break
                    prev = cur
                    den *= 8

    def test_cut_law_ndegdecr(self, rng):
        # v(b-a) >= alpha and beta >= alpha imply
        # ndeg_geq(P_{+b}, beta) <= ndeg_geq(P_{+a}, alpha)
        K = laurent_tddt_coarse()
        for _ in range(25):
            P = random_poly(K, rng, order=1, max_degree=2)
            a = random_series(K, rng, nterms=2)
            alpha = random_value(K, rng)
            b = a + K.monomial_series(K.monomial_of_value(alpha)) * \
                random_bounded_series(K, rng)
            beta = alpha + random_small_series(K, rng).valuation()
            lhs = ndeg_geq(add_conj(P, b), beta)
            rhs = ndeg_geq(add_conj(P, a), alpha)
            assert lhs <= rhs


# exponents of a monomial of log_fragment(5), over l0..l5
_LOG5_MONOMIALS = st.tuples(*[st.integers(-2, 2)] * 6)


class TestNdegInCut:
    def lambda_prefix(self, K, depth, count):
        out = []
        acc = K.zero_series()
        for k in range(count):
            acc = acc + K.monomial_series(
                K.monomial_from_dict({f"l{j}": -1 for j in range(k + 1)})
            )
            out.append(acc)
        return out

    def test_plain_variable_misses_the_cut(self):
        # Y vanishes only at 0, which the lambda partial sums stay away
        # from, so its degree in the cut is 0 (a monic affine polynomial
        # whose root tracks the sequence is the value-1 case below)
        L = log_fragment(6)
        seq = PcSequence(self.lambda_prefix(L, 6, 6), window=3)
        cert = ndeg_in_cut(DiffPoly.variable(L, 0), seq)
        assert cert.value == 0
        assert all(d == 0 for d in cert.history)

    def test_shifted_pseudolimit(self):
        L = log_fragment(8)
        lam = lambda_series(8, L)
        P = DiffPoly.variable(L, 0) - DiffPoly.from_coeff(L, lam)
        seq = PcSequence(self.lambda_prefix(L, 8, 7), window=3)
        cert = ndeg_in_cut(P, seq)
        assert cert.value == 1
        assert all(d == 1 for d in cert.history)

    @pytest.mark.parametrize("window", [0, -1, 1.5, True, "3", None])
    def test_a_window_that_is_no_int_from_1_is_refused(self, window):
        # the window is a count of degrees, so a bool is no window either
        L = log_fragment(8)
        P = DiffPoly.variable(L, 0) - DiffPoly.from_coeff(L, lambda_series(8, L))
        prefix = self.lambda_prefix(L, 8, 7)
        cert = ndeg_in_cut(P, PcSequence(prefix, window=1))
        assert (cert.value, cert.stabilized_at, cert.history) == (1, 0, [1])
        with pytest.raises(VdfError, match=r"^window .* is not an int >= 1$"):
            ndeg_in_cut(P, PcSequence(prefix, window=window))

    def test_constant_sequence_rejected(self):
        L = log_fragment(3)
        ones = [L.one(), L.one(), L.one(), L.one()]
        with pytest.raises(VdfError):
            ndeg_in_cut(DiffPoly.variable(L, 0), PcSequence(ones))

    def test_non_pc_rejected(self):
        L = log_fragment(3)
        worse = [L.one(), L.one() + L.gen("l0", -1),
                 L.one() + L.gen("l0", -1).scale(2), L.one() + L.gen("l0", -3)]
        with pytest.raises(VdfError):
            PcSequence(worse).gaps()

    def test_no_stabilization_reported(self):
        # a root pinned partway along the sequence flips the degree too
        # late for the window to close: the heuristic refuses to answer
        L = log_fragment(6)
        prefix = self.lambda_prefix(L, 6, 5)
        seq = PcSequence(prefix, window=4)
        deep = L.monomial_series(
            L.monomial_from_dict({f"l{j}": -2 for j in range(6)})
        )
        P = DiffPoly.variable(L, 0) - DiffPoly.from_coeff(L, prefix[1] + deep)
        with pytest.raises(VdfError, match="stabilization"):
            ndeg_in_cut(P, seq)

    def test_dpkell_upper_bound(self, rng):
        # the stabilized cut degree is a lower bound for each
        # ndeg_prec(P_{+a}, v) over admissible (a, v)
        depth = 8
        L = log_fragment(depth)
        prefix = self.lambda_prefix(L, depth, 7)
        for P in (DiffPoly.variable(L, 0),
                  DiffPoly.variable(L, 0) * DiffPoly.variable(L, 0),
                  DiffPoly.variable(L, 1) + DiffPoly.variable(L, 0)):
            seq = PcSequence(prefix, window=3)
            cert = ndeg_in_cut(P, seq)
            lam = lambda_series(depth, L)
            for j in (3, 4, 5):
                a = prefix[j]
                gap = (lam - a).valuation()
                v_mono = L.monomial_of_value(
                    gap - GroupElement([0] * (depth) + [1])
                )
                v = L.monomial_series(v_mono)
                # admissible: a - lambda strictly below v
                assert (a - lam).valuation() > v.valuation()
                assert cert.value <= ndeg_prec(add_conj(P, a), v)

    @settings(max_examples=150)
    @given(steps=st.lists(_LOG5_MONOMIALS, min_size=5, max_size=5, unique=True),
           coeffs=st.lists(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
                           min_size=6, max_size=6),
           j=st.integers(0, 5), deep=_LOG5_MONOMIALS, c=st.sampled_from([0, 1, Fraction(-1, 2)]),
           kind=st.sampled_from(["Y - a", "Y^2 - a", "Y' + Y - a", "Y'Y - a", "(Y - s)^2"]))
    def test_the_law_of_nested_balls(self, steps, coeffs, j, deep, c, kind):
        # along a pc-sequence the balls B(a_rho, gamma_rho) shrink, and the
        # Newton degree over a ball is at most that over any ball holding
        # it: ndeg_geq(P_{+a_rho}, gamma_rho) never rises with rho
        L = log_fragment(5)

        def term(exps, q):
            return L.monomial_series(L.monomial_from_dict(
                {f"l{i}": e for i, e in enumerate(exps) if e}), q)

        # a constant plus five terms by rising value: the gaps rise
        seq = [L.constant(coeffs[0])]
        for h in sorted(map(term, steps, coeffs[1:]), key=Series.valuation):
            seq.append(seq[-1] + h)
        Y, Y1 = DiffPoly.variable(L, 0), DiffPoly.variable(L, 1)
        a = DiffPoly.from_coeff(L, seq[j] + term(deep, c))
        s = DiffPoly.from_coeff(L, seq[-1])
        P = {"Y - a": Y - a, "Y^2 - a": Y * Y - a, "Y' + Y - a": Y1 + Y - a,
             "Y'Y - a": Y1 * Y - a, "(Y - s)^2": (Y - s) * (Y - s)}[kind]
        seq = PcSequence(seq, window=3)
        history = [ndeg_geq(add_conj(P, x), gamma) for x, gamma in zip(seq.elements, seq.gaps())]
        try:
            cert = ndeg_in_cut(P, seq)
        except VdfError as err:  # no window of 3 equal degrees: a legal answer
            assert f"(history {history})" in str(err)
        else:
            assert cert.history == history[:len(cert.history)]
        assert all(d >= e for d, e in zip(history, history[1:])), (kind, history)
        event("history " + ("constant" if len(set(history)) == 1 else "not constant"))
        event(f"degree {max(history)}")
        if kind == "(Y - s)^2":
            assert history == [2] * 5


class TestFlexProbe:
    def test_derivative_probe(self):
        K = laurent_ddt()
        classes = flex_probe(DiffPoly.variable(K, 1), GroupElement([5]), 80)
        assert len(classes) >= 10

    def test_degree_zero_rejected(self):
        K = laurent_ddt()
        P = DiffPoly.from_coeff(K, K.gen("t"))
        with pytest.raises(VdfError):
            flex_probe(P, GroupElement([5]), 10)

    def test_monotone_in_samples(self):
        K = laurent_ddt()
        P = DiffPoly.variable(K, 1)
        a = len(flex_probe(P, GroupElement([5]), 30))
        b = len(flex_probe(P, GroupElement([5]), 90))
        assert a <= b

    @pytest.mark.parametrize("count", [0, -3, True, 2.5, "5", None])
    def test_a_sample_count_that_is_no_int_of_at_least_one_is_refused(self, count):
        # 0 and -3 gave [], which reads as "no classes", and True counted as 1
        K = laurent_ddt()
        with pytest.raises(VdfError) as info:
            flex_probe(DiffPoly.variable(K, 1), GroupElement([5]), count)
        assert str(info.value) == f"sample_count {count!r} is not an int >= 1"

    @pytest.mark.parametrize("seed", [None, True, 2.5, "11"])
    def test_a_seed_that_is_no_int_is_refused(self, seed):
        # None seeded from the OS, so the probe no longer repeated
        K = laurent_ddt()
        with pytest.raises(VdfError) as info:
            flex_probe(DiffPoly.variable(K, 1), GroupElement([5]), 10, seed=seed)
        assert str(info.value) == f"seed {seed!r} is not an int"

    def test_the_same_seed_repeats_the_probe(self):
        K = laurent_ddt()
        P = DiffPoly.variable(K, 1)
        assert flex_probe(P, GroupElement([5]), 20, seed=-4) == flex_probe(
            P, GroupElement([5]), 20, seed=-4)


# -- the Gamma(der) sampling oracle: a test-side check of the analytic cut ------
#
# gamma_der returns the analytic cut, for the reason its docstring gives.
# This oracle samples monomials m < 1 and checks both directions: a probe
# in the cut lies below every sampled v(m'), and a probe outside it has a
# witness m < 1 with v(m') <= gamma.  Its witness search tries only
# gamma - psi_level(i) and its half, so it can miss a witness that exists;
# the property test below gives it the proof's witness as well.

# The sampling oracle's budget and seed.
ORACLE_SAMPLES = 200
ORACLE_SEED = 7


def _random_positive_value(field, rng):
    n = field.rank
    p = rng.randrange(n)
    coords = [Fraction(0)] * n
    coords[p] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    for j in range(p + 1, n):
        coords[j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return GroupElement(coords)


def _monomial_derivative_value(field, gamma):
    """v(m') for the monomial of value gamma, computed honestly from the
    generator logders; IndeterminateValuation when they cannot tell."""
    ld = field.logder_of_value(gamma)
    if ld.is_true_zero():
        return INFINITY
    return gamma + ld.valuation()


def _witness_outside(field, gamma):
    """Find a monomial m < 1 with v(m') <= gamma."""
    candidates = []
    for i in range(field.rank):
        lvl = field.psi_level(i)
        if lvl is not INFINITY:
            delta = gamma - lvl
            candidates.extend([delta, delta.scale(Fraction(1, 2))])
    for delta in candidates:
        if not zero(field.rank) < delta:
            continue
        dv = _monomial_derivative_value(field, delta)
        if dv <= gamma:
            return True
    return False


def _validate_gamma_der(field, cut, samples=ORACLE_SAMPLES, seed=ORACLE_SEED,
                        witness_outside=_witness_outside):
    """Raise VdfError unless cut passes the sampling oracle.

    It draws samples values delta > 0 and max(10, samples // 2) probes
    gamma from seed (two more at the bound of a prefix cut), computes
    v(m') once per delta, so an in-cut probe costs one comparison with
    the least v(m'), and an out-of-cut probe at most 2 * rank
    derivatives in its witness search: O(samples + probes) monomial
    derivatives.  Which cuts it accepts, and the message it raises (the
    first offending delta in sample order), are those of the nested loop
    _reference_validate."""
    rng = random.Random(seed)
    n = field.rank
    # Gamma = {0} at rank 0 has no positive value to sample
    small_values = [_random_positive_value(field, rng) for _ in range(samples if n else 0)]
    probes = []
    if cut.depth:
        b = cut.bound_element()
        probes.extend([b, b - _random_positive_value(field, rng)])
    for _ in range(max(10, samples // 2)):
        probes.append(GroupElement(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        ))
    derivative_values = [(delta, _monomial_derivative_value(field, delta))
                         for delta in small_values]
    least = min((dv for _, dv in derivative_values), default=INFINITY)
    for gamma in probes:
        if cut.contains(gamma):
            if gamma < least:
                continue
            for delta, dv in derivative_values:
                if not gamma < dv:
                    raise VdfError(
                        f"gamma_der validation failed: {gamma} in cut but "
                        f"v(m')={dv} for v(m)={delta}"
                    )
        elif not witness_outside(field, gamma):
            raise VdfError(
                f"gamma_der validation failed: no witness that {gamma} "
                "lies outside the cut"
            )


def _reference_validate(field, cut, samples, seed):
    """The (probe, sample) nested loop: v(m') recomputed for every pair.
    Kept here only as a reference for _validate_gamma_der."""
    rng = random.Random(seed)
    n = field.rank
    small_values = [_random_positive_value(field, rng)
                    for _ in range(samples)]
    probes = []
    if cut.kind == PREFIX:
        b = cut.bound_element()
        probes.extend([b, b - _random_positive_value(field, rng)])
    for _ in range(max(10, samples // 2)):
        probes.append(GroupElement(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        ))
    for gamma in probes:
        if cut.contains(gamma):
            for delta in small_values:
                dv = _monomial_derivative_value(field, delta)
                if not (dv is INFINITY or gamma < dv):
                    raise VdfError(
                        f"gamma_der validation failed: {gamma} in cut but "
                        f"v(m')={dv} for v(m)={delta}"
                    )
        elif not _witness_outside(field, gamma):
            raise VdfError(
                f"gamma_der validation failed: no witness that {gamma} "
                "lies outside the cut"
            )


def _outcome(validate, field, cut, samples, seed):
    """None when the cut is accepted, else the VdfError text."""
    try:
        validate(field, cut, samples, seed)
    except VdfError as exc:
        return str(exc)
    return None


def _config_field(name):
    return lambda: field_from_config(json.loads((CONFIGS / name).read_text()))


# Fresh instances: the lru_cache'd builders would share memos and the
# cached cut between tests.
FRESH_FIELDS = {
    "laurent_ddt": laurent_ddt.__wrapped__,
    "laurent_tddt_coarse": laurent_tddt_coarse.__wrapped__,
    **{f"transseries_fragment({n})":
       functools.partial(transseries_fragment.__wrapped__, n) for n in range(5)},
    **{f"log_fragment({n})":
       functools.partial(log_fragment.__wrapped__, n) for n in range(4)},
    "configs/laurent.json": _config_field("laurent.json"),
    "configs/tddt.json": _config_field("tddt.json"),
}
FAMILIES = ["laurent_ddt", "laurent_tddt_coarse", "transseries_fragment(2)",
            "log_fragment(2)"]


def _intersect_prefix(a: Cut, b: Cut) -> Cut:
    """Intersection of two inclusive prefix cuts (it is one of them);
    the whole group is the one of depth 0."""
    if a.depth > b.depth:
        a, b = b, a
    pb = b.bound[: a.depth]
    if pb <= a.bound:
        return b
    return a


def _reference_analytic_cut(K, k):
    """_analytic_cut as the intersection of one Cut per class p < k."""
    cut = Cut(k)
    for p in range(k):
        level = K.psi_floor(p)
        if level is not INFINITY:
            cut = _intersect_prefix(cut, Cut(k, level.coords[: p + 1], inclusive=True))
    return cut


def _flat_first_field(rank):
    """g0 flat, every later g_i with logder 1, values the unit vectors."""
    K = FieldInstance(rank, [Generator(f"g{i}", unit(rank, i)) for i in range(rank)],
                      name="flat_first")
    for i, g in enumerate(K.generators):
        g.logder = K.one() if i else K.zero_series()
    return K


def _shallower_field():
    """t of logder t^-1 (level (-1, 0)) and s of logder 1 (level (0, 0)):
    class 1's floor (0, 0) exceeds class 0's bound (-1)."""
    K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                          Generator("s", GroupElement([0, 1]))], name="shallower")
    K.generators[0].logder = K.gen("t", -1)
    K.generators[1].logder = K.one()
    return K


def _moved_bound(cut, step):
    """The cut with the last coordinate of its bound moved by step."""
    bound = cut.bound[:-1] + (cut.bound[-1] + step,)
    return Cut(cut.ambient_rank, bound, cut.inclusive)


class TestGammaDerOracle:
    @pytest.mark.parametrize("name", list(FRESH_FIELDS))
    @pytest.mark.parametrize("samples,seed", [(200, 7), (40, 1), (13, 2024)])
    def test_accepts_the_analytic_cut_like_the_nested_loop(
            self, name, samples, seed):
        K = FRESH_FIELDS[name]()
        cut = newton._analytic_cut(K, K.rank)
        assert _outcome(_reference_validate, K, cut, samples, seed) is None
        assert _outcome(_validate_gamma_der, K, cut, samples, seed) is None

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("mutant", ["raised", "all"])
    def test_rejects_a_cut_that_is_too_large(self, name, mutant):
        K = FRESH_FIELDS[name]()
        cut = newton._analytic_cut(K, K.rank)
        bad = _moved_bound(cut, 1) if mutant == "raised" else Cut(K.rank)
        expected = _outcome(_reference_validate, K, bad, 200, 7)
        assert expected is not None and " in cut but v(m')=" in expected
        assert _outcome(_validate_gamma_der, K, bad, 200, 7) == expected

    @pytest.mark.parametrize("name", ["laurent_ddt", "laurent_tddt_coarse"])
    def test_rejects_a_cut_that_is_too_small(self, name):
        K = FRESH_FIELDS[name]()
        bad = _moved_bound(newton._analytic_cut(K, K.rank), -1)
        expected = _outcome(_reference_validate, K, bad, 200, 7)
        assert expected is not None and "no witness that" in expected
        assert _outcome(_validate_gamma_der, K, bad, 200, 7) == expected

    @pytest.mark.parametrize("name", ["transseries_fragment(2)", "log_fragment(2)"])
    @pytest.mark.parametrize("mutant", ["lowered", "shallower"])
    @pytest.mark.parametrize("samples,seed", [(200, 7), (40, 1)])
    def test_agrees_on_cuts_the_sampling_cannot_tell_apart(
            self, name, mutant, samples, seed):
        K = FRESH_FIELDS[name]()
        cut = newton._analytic_cut(K, K.rank)
        bad = (_moved_bound(cut, -1) if mutant == "lowered"
               else Cut(K.rank, cut.bound[:-1], cut.inclusive))
        assert (_outcome(_validate_gamma_der, K, bad, samples, seed)
                == _outcome(_reference_validate, K, bad, samples, seed))

    @pytest.mark.parametrize("name", [*FRESH_FIELDS, "shallower"])
    def test_analytic_cut_matches_psi_floor_at_every_prefix(self, name):
        # the fold on bound tuples gives the intersection of the cuts of
        # psi_floor(p); in "shallower" class 1's floor exceeds class 0's
        # bound, so the cut keeps depth 1
        K = _shallower_field() if name == "shallower" else FRESH_FIELDS[name]()
        for k in range(K.rank + 1):
            assert newton._analytic_cut(K, k) == _reference_analytic_cut(K, k)
        if name == "shallower":
            assert newton._analytic_cut(K, 2) == Cut(2, (-1,))

    @given(K=triangular_fields())
    @settings(max_examples=100, deadline=None)
    def test_analytic_cut_matches_psi_floor_on_drawn_fields(self, K):
        for k in range(K.rank + 1):
            assert newton._analytic_cut(K, k) == _reference_analytic_cut(K, k)

    def test_a_coarse_cut_needs_the_floor_not_the_level(self):
        """Class p's constraint uses psi_floor(p), the least level at or
        after p, not psi_level(p).  g0 is flat (level +inf) and g1 has
        logder 1 (level (0, 0)).  Coarsened to the first coordinate, the
        witness m = g0^eps * g1 is small (v(m) = (eps, 1)), and m' = m has
        dotted value eps: so Gamma(der) is proj_1 <= (0), where the levels
        alone would give the whole group.  At k = rank the two agree."""
        K = FieldInstance(2, [Generator("g0", GroupElement([1, 0])),
                              Generator("g1", GroupElement([0, 1]))], name="flat_g0")
        K.generators[0].logder = K.zero_series()
        K.generators[1].logder = K.one()
        delta = ConvexSubgroup(2, 1)
        assert K.psi_level(0) is INFINITY
        assert newton._analytic_cut(K, 1) == Cut(1, (0,))
        assert coarsened_gamma_der(K, delta) == Cut(1, (0,))
        assert newton._analytic_cut(K, 2) == Cut(2, (0, 0))
        for eps in (Fraction(1), Fraction(1, 1000)):
            m = K.monomial_series(Monomial([eps, 1]))
            assert m.derive() == m
            assert coarse_val(m.derive(), delta) == GroupElement([eps])

    def test_derivative_count_is_linear(self, monkeypatch):
        """A machine-independent guard: the oracle computes v(m') once per
        sample, plus at most 2 * rank per probe in the witness search."""
        calls = 0
        honest = _monomial_derivative_value

        def counting(field, gamma):
            nonlocal calls
            calls += 1
            return honest(field, gamma)

        monkeypatch.setitem(globals(), "_monomial_derivative_value", counting)
        K = transseries_fragment.__wrapped__(2)
        _validate_gamma_der(K, gamma_der(K))
        probes = 2 + max(10, ORACLE_SAMPLES // 2)
        assert 0 < calls <= ORACLE_SAMPLES + 2 * K.rank * probes


def _proof_witness(field, gamma):
    """The witness of gamma_der's proof: for a class p with
    proj_(p+1) gamma > proj_(p+1) psi_floor(p), the monomial
    m = g_i^(+-eps) < 1 for the first i >= p with v(g_i-logder) =
    psi_floor(p), halving eps from 1 until v(m') <= gamma."""
    for p in range(field.rank):
        floor = field.psi_floor(p)
        if floor is INFINITY or gamma.coords[: p + 1] <= floor.coords[: p + 1]:
            continue
        i = next(i for i in range(p, field.rank) if field.psi_level(i) == floor)
        value = field.generators[i].value
        eps = Fraction(1 if value.coords[i] > 0 else -1)
        for _ in range(64):
            if _monomial_derivative_value(field, value.scale(eps)) <= gamma:
                return True
            eps /= 2
    return False


def _edge_probes(cut):
    """(inside, outside): the bound of an inclusive prefix cut, and the
    bound raised by 1, 1/5 and 1/64 in its last coordinate, each with a
    low and a high tail."""
    if cut.kind != PREFIX:
        return [], []
    tails = [(t,) * (cut.ambient_rank - cut.depth) for t in (-8, 8)]
    head, last = cut.bound[:-1], cut.bound[-1]
    inside = [GroupElement(cut.bound + tail) for tail in tails]
    outside = [GroupElement(head + (last + step,) + tail) for tail in tails
               for step in (Fraction(1), Fraction(1, 5), Fraction(1, 64))]
    return inside, outside


def _powers_near_one(field):
    """v(g_i^(+-eps)) < 1 for every generator and eps = 2^-k, k < 12:
    the monomials that come closest to the bound of the cut."""
    return [g.value.scale(Fraction(1 if g.value.coords[i] > 0 else -1, 2 ** k))
            for i, g in enumerate(field.generators) for k in range(12)]


# gamma_der and s_der of fresh copies, as printed before the oracle left
# the library: (bound of the inclusive prefix cut, prefix_len of S(der)).
GOLDEN_CUTS = {
    "laurent_ddt": ([-1], 1),
    "laurent_tddt_coarse": ([0], 1),
    "transseries_fragment(2)": ([0, 1, 1, 1], 4),
    "log_fragment(2)": ([1, 1, 1], 3),
    "configs/laurent.json": ([-1], 1),
    "configs/tddt.json": ([0], 1),
}


class TestGammaDerIsAnalytic:
    @pytest.mark.parametrize("name", list(GOLDEN_CUTS))
    def test_no_derivative_work(self, name, monkeypatch):
        K = FRESH_FIELDS[name]()

        def refuse(*args):
            raise AssertionError("gamma_der computed a logarithmic derivative")

        monkeypatch.setattr(FieldInstance, "logder_of_value", refuse)
        bound, prefix_len = GOLDEN_CUTS[name]
        assert gamma_der(K) == Cut(K.rank, bound, inclusive=True)
        assert s_der(K).prefix_len == prefix_len

    @pytest.mark.parametrize("depth", [*range(9), 16, 32, 64])
    @pytest.mark.parametrize("family", [transseries_fragment, log_fragment])
    def test_the_oracle_accepts_the_fragments(self, family, depth):
        K = family(depth)
        _validate_gamma_der(K, gamma_der(K))

    @given(K=triangular_fields())
    @settings(max_examples=100, deadline=None)
    def test_the_cut_is_gamma_der_of_drawn_fields_and_coarsenings(self, K):
        # coarsening at prefix 0 gives K back, so it starts at 1
        fields = [K]
        for k in range(1, K.rank + 1):
            try:
                fields.append(coarsen(K, k).residue_field)
            except VdfError:
                continue
        for L in fields:
            cut = gamma_der(L)
            # in the cut: below every sampled v(m'); outside: the proof's witness
            _validate_gamma_der(L, cut, witness_outside=_proof_witness)
            inside, outside = _edge_probes(cut)
            near = [_monomial_derivative_value(L, delta) for delta in _powers_near_one(L)]
            for gamma in inside:
                assert all(gamma < dv for dv in near), (L.generators, gamma)
            for gamma in outside:
                assert _proof_witness(L, gamma), (L.generators, gamma)


# -- the certified min-plus argmin against the two loops it replaced -------------


def _reference_profile(P):
    """(i, v(P_i), ||i||) over the coefficients with a known term, with
    the library's refusals of a zero polynomial and of one with no known term."""
    if P.is_zero():
        raise VdfError("the zero polynomial has no dominant or tropical data")
    out = [(i, c.valuation(), mi_weight(i)) for i, c in P.terms.items() if c.terms]
    if not out:
        raise IndeterminateValuation("no coefficient has a known term")
    return out


def _reference_unknown_tails(P):
    return [(c.tau, mi_weight(i)) for i, c in P.terms.items()
            if not c.terms and c.tau is not INFINITY]


def _refuse_tail(tau):
    raise IndeterminateValuation(
        f"a coefficient known only modulo {tau} could reach the minimum")


def _reference_tropical_argmin(P, key_of):
    """The indices minimizing key_of(v(P_i), ||i||), the keys built from
    GroupElement values, with its own certification against unknown
    tails.  Kept here only as a reference for diffpoly.tropical_argmin,
    which decides on int lattice keys."""
    best_key, argmin = None, []
    for i, v, w in _reference_profile(P):
        key = key_of(v, w)
        if best_key is None or key < best_key:
            best_key, argmin = key, [i]
        elif key == best_key:
            argmin.append(i)
    for tau, w in _reference_unknown_tails(P):
        if not best_key < key_of(tau, w):
            _refuse_tail(tau)
    return argmin


def _reference_gauss_val(P):
    best = min(v for _, v, _ in _reference_profile(P))
    for tau, _ in _reference_unknown_tails(P):
        if not best < tau:
            _refuse_tail(tau)
    return best


def _reference_dominant(P):
    """(ddeg, dwt) from the gaussian valuation's own argmin loop."""
    v = _reference_gauss_val(P)
    argmin = [i for i, c in P.terms.items() if c.terms and c.valuation() == v]
    return max(mi_degree(i) for i in argmin), max(mi_weight(i) for i in argmin)


def _reference_tropical_ddeg(P, gamma):
    return max(map(mi_degree, _reference_tropical_argmin(
        P, lambda v, w: (v.pad(gamma.rank) + gamma.scale(w)).coords)))


def _reference_top_tropical(Q, depth, bound):
    bound = tuple(bound)

    def key_of(v, w):
        prefix = tuple(c + w * b for c, b in zip(v.coords[:depth], bound))
        return (prefix, w, v.coords[depth:])

    return max(map(mi_degree, _reference_tropical_argmin(Q, key_of)))


def _reference_ndeg(P):
    K = P.field
    cut = gamma_der(K)
    if cut.kind == ALL:
        return _reference_top_tropical(P, 0, ())
    base = cut.bound_element()
    Q = comp_conj(P, Series(K, {base: Fraction(1)}, INFINITY))
    if cut.has_max() and base == cut.max_element():
        return _reference_dominant(Q)[0]
    shifted = cut.shift_by_prefix(base)
    return _reference_top_tropical(Q, shifted.depth, shifted.bound)


def _answer(fn, *args):
    """fn(*args), or VdfError when it raises one."""
    try:
        return fn(*args)
    except VdfError:
        return VdfError


def _partly_unknown(P, rng, truncate=True):
    """P with some coefficients replaced by O(tau), and (when truncate)
    some others cut at a random tau."""
    K = P.field
    terms = {}
    for i, c in P.terms.items():
        roll = rng.random()
        if roll < 0.25:
            c = Series(K, {}, random_value(K, rng))
        elif truncate and roll < 0.5:
            c = c.truncated(random_value(K, rng))
        terms[i] = c
    return DiffPoly(K, terms, P.order)


def _refusal(fn, *args):
    """fn(*args), or the type and message of the VdfError it raises."""
    try:
        return fn(*args)
    except VdfError as exc:
        return type(exc), str(exc)


# The dens of drawn coefficient values, and those of gamma and of the cut
# bounds: 13 and 17 put them off every coefficient's lattice.
COEFF_DENS = (1, 2, 3, 5, 12)
KEY_DENS = (1, 4, 13, 17)


def _on_lattice(K, rng, den, lo=-4, hi=4):
    return GroupElement([Fraction(rng.randint(lo * den, hi * den), den) for _ in range(K.rank)])


def _near(K, rng, v):
    """v, or v moved by a step off every drawn lattice, in its first
    coordinate or its last."""
    step = Fraction(rng.choice([-1, 1]), 11 * rng.choice(COEFF_DENS))
    return rng.choice([v, v, v + unit(K.rank, 0, step), v + unit(K.rank, K.rank - 1, step)])


def _mixed_lattice_poly(K, rng, shift):
    """An order-2 polynomial whose coefficients' values lie on lattices of
    different dens, with one or two more coefficients known only modulo a
    tau drawn near the least v(P_j) + ||j|| shift: tau + ||i|| shift is
    that least value, or a step off it."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        i = random_multi_index(rng, 2, 3)
        c = Series(K, {_on_lattice(K, rng, rng.choice(COEFF_DENS)): rat(rng, 1, 5)
                       for _ in range(rng.randint(1, 2))}, INFINITY)
        terms[i] = terms[i] + c if i in terms else c
    low, wj = min(((c.valuation() + shift.scale(mi_weight(j)), mi_weight(j))
                   for j, c in terms.items() if c.terms), default=(zero(K.rank), 0),
                  key=lambda pair: pair[0].coords)
    for _ in range(rng.randint(1, 2)):
        i = random_multi_index(rng, 2, 3)
        if i not in terms:
            terms[i] = Series(K, {}, _near(K, rng, low - shift.scale(mi_weight(i))))
    return DiffPoly(K, terms, 2)


class TestMinPlusArgmin:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_agrees_with_the_reference_loops(self, name):
        K = FRESH_FIELDS[name]()
        rng = random.Random(f"argmin-{name}")
        outcomes = set()
        for _ in range(25):
            P = _partly_unknown(random_poly(K, rng, order=2, max_degree=3, nterms=4), rng)
            got = _answer(dominant, P)
            got = got if got is VdfError else (got.ddeg, got.dwt)
            assert got == _answer(_reference_dominant, P)
            assert _answer(ddeg, P) == (got if got is VdfError else got[0])
            assert _answer(gauss_val, P) == _answer(_reference_gauss_val, P)
            for _ in range(3):
                gamma = random_value(K, rng)
                if gamma < zero(K.rank):
                    assert (_answer(tropical_ddeg, P, gamma)
                            == _answer(_reference_tropical_ddeg, P, gamma))
            assert _answer(ndeg, P) == _answer(_reference_ndeg, P)
            outcomes.add(got is VdfError)
        # both the answering and the refusing path were exercised
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name", FAMILIES)
    def test_int_keys_agree_with_value_keys_across_lattices(self, name):
        """The int lattice keys give the argmin, the gaussian valuation,
        the tropical degree at gamma and at the top of a cut, and each
        refusal with its message, of the GroupElement keys, when the
        coefficients' dens differ, gamma and the cut bound lie off their
        lattices, and coefficients known only modulo tau sit at or next to
        the minimum."""
        K = FRESH_FIELDS[name]()
        rng = random.Random(f"lattice-{name}")
        refusals = answers = 0
        for _ in range(40):
            gamma = -random_positive_value(K, rng).scale(Fraction(1, rng.choice(KEY_DENS)))
            bound = _on_lattice(K, rng, rng.choice(KEY_DENS))
            shift = rng.choice([zero(K.rank), gamma, bound])
            P = _mixed_lattice_poly(K, rng, shift)
            got = _refusal(tropical_argmin, P)
            assert got == _refusal(_reference_tropical_argmin, P, lambda v, w: v)
            assert _refusal(gauss_val, P) == _refusal(_reference_gauss_val, P)
            for g in (gamma, with_infinitesimal(gamma, rng.choice(["below", "above"]))):
                assert (_refusal(tropical_ddeg, P, g)
                        == _refusal(_reference_tropical_ddeg, P, g))
            for depth in range(K.rank + 1):
                b = bound.coords[:depth]
                assert (_refusal(newton._top_tropical, P, depth, b)
                        == _refusal(_reference_top_tropical, P, depth, b))
            refused = isinstance(got, tuple)
            refusals += refused and got[1].startswith("a coefficient known only modulo")
            answers += not refused
        # both the answering and the certification's refusing path were taken
        assert refusals and answers

    def test_zero_polynomial_is_refused_everywhere(self):
        K = laurent_ddt()
        Y = DiffPoly.variable(K, 0)
        for fn in (gauss_val, dominant, ddeg, ndeg, breakpoints):
            with pytest.raises(VdfError, match="zero polynomial"):
                fn(Y - Y)
        with pytest.raises(VdfError, match="zero polynomial"):
            tropical_ddeg(Y - Y, GroupElement([-1]))

    def test_no_known_coefficient_is_indeterminate(self):
        K = laurent_ddt()
        P = DiffPoly(K, {(1,): Series(K, {}, GroupElement([2]))})
        for fn in (gauss_val, dominant, ddeg, ndeg, breakpoints):
            with pytest.raises(IndeterminateValuation):
                fn(P)
        with pytest.raises(IndeterminateValuation):
            tropical_ddeg(P, GroupElement([-1]))


def _explicit_ndeg(P):
    """ndeg of P by today's path, the base or the cut passed explicitly:
    a conjugation of its own, no table held on the field."""
    cut = gamma_der(P.field)
    return ndeg(P, cut=cut) if cut.kind == ALL else ndeg(P, base=cut.bound_element())


def _held_tables(K):
    return {name for name in vars(K) if name.startswith("_ndeg_images_")}


class TestHeldNormalization:
    """ndeg with no base, cut or twist reads the images of its
    normalization, and their powers, from a table held on the field per
    order; it answers as a conjugation of its own does."""

    @pytest.mark.parametrize("name", list(FRESH_FIELDS))
    def test_equals_the_explicit_base_on_every_built_in_field(self, name):
        K = FRESH_FIELDS[name]()
        rng = random.Random(f"held-{name}")
        polys = [random_poly(K, rng, order=r, max_degree=4, nterms=3)
                 for r in (0, 1, 2, 3) for _ in range(4)]
        expected = [_answer(_explicit_ndeg, P) for P in polys]
        assert _held_tables(K) == set()
        # twice: the first pass fills the tables, the second reads them
        for _ in range(2):
            assert [_answer(ndeg, P) for P in polys] == expected
        if gamma_der(K).kind == PREFIX:
            assert _held_tables(K) == {f"_ndeg_images_{r}" for r in (0, 1, 2, 3)}

    @given(K=triangular_fields(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_explicit_base_on_drawn_fields(self, K, seed):
        rng = random.Random(seed)
        polys = [random_poly(K, rng, order=rng.randint(0, 2), max_degree=3) for _ in range(4)]
        expected = [_answer(_explicit_ndeg, P) for P in polys]
        for _ in range(2):
            assert [_answer(ndeg, P) for P in polys] == expected

    def test_a_replaced_logder_gives_a_fresh_fields_ndeg(self):
        # t' = t^(1-a) for the logders t^-a: Gamma(der) is v <= -a, and
        # phi0 = t^-a, so a table left from a = 1 would conjugate by t^-1
        rng = random.Random("held-logder")
        K = _t_field(lambda K: K.gen("t", -1))
        polys = [random_poly(K, rng, order=2, max_degree=3, nterms=4) for _ in range(30)]
        before = [ndeg(P) for P in polys]
        assert _held_tables(K) == {"_ndeg_images_2"}
        K.generators[0].logder = K.gen("t", -3)
        fresh = _t_field(lambda K: K.gen("t", -3))
        after = [ndeg(P) for P in polys]
        assert after == [ndeg(P.embed_into(fresh)) for P in polys]
        assert after == [_explicit_ndeg(P) for P in polys]
        assert after != before


def _three_term(K, c):
    """t^-5 Y + Y' + c Y''."""
    return DiffPoly(K, {(1, 0, 0): K.gen("t", -5), (0, 1, 0): K.one(),
                        (0, 0, 1): c}, order=2)


class TestBreakpointCertification:
    def test_unknown_coefficient_of_larger_weight_is_refused(self):
        K = laurent_ddt()
        t = K.gen("t")
        # each filling of the unknown coefficient moves the breakpoints
        assert breakpoints(_three_term(K, K.one())) == [
            GroupElement([-5]), GroupElement([Fraction(-5, 2)])]
        assert breakpoints(_three_term(K, t)) == [
            GroupElement([-5]), GroupElement([-3]), GroupElement([-1])]
        assert breakpoints(_three_term(K, K.gen("t", 7))) == [
            GroupElement([-7]), GroupElement([-6]), GroupElement([-5])]
        with pytest.raises(IndeterminateValuation):
            breakpoints(_three_term(K, Series(K, {}, zero(1))))

    def test_unknown_coefficient_that_cannot_cross_is_answered(self):
        K = laurent_ddt()
        for c in (Series(K, {}, zero(1)), K.one(), K.gen("t"), K.gen("t", 5)):
            P = DiffPoly(K, {(1, 0): c, (0, 1): K.gen("t", -3)}, order=1)
            assert breakpoints(P) == []

    def test_two_unknown_coefficients_of_different_weight_are_refused(self):
        K = laurent_ddt()
        P = DiffPoly(K, {(0, 0, 1): K.gen("t", -10), (1, 0, 0): K.one(),
                         (0, 1, 0): K.gen("t", 5)}, order=2)
        assert breakpoints(P) == [GroupElement([-5])]
        unknown = Series(K, {}, zero(1))
        P = DiffPoly(K, {(0, 0, 1): K.gen("t", -10), (1, 0, 0): unknown,
                         (0, 1, 0): unknown}, order=2)
        with pytest.raises(IndeterminateValuation):
            breakpoints(P)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_an_answer_holds_for_every_filling(self, name):
        K = FRESH_FIELDS[name]()
        rng = random.Random(f"breakpoints-{name}")
        answered = 0
        for _ in range(60):
            P = _partly_unknown(random_poly(K, rng, order=2, max_degree=3, nterms=4),
                                rng, truncate=False)
            try:
                bps = breakpoints(P)
            except IndeterminateValuation:
                continue
            if all(c.terms for c in P.terms.values()):
                continue
            answered += 1
            for _ in range(3):
                # an O(tau) coefficient is zero or has valuation >= tau
                filled = {}
                for i, c in P.terms.items():
                    if not c.terms and rng.random() < 0.8:
                        v = c.tau + (random_positive_value(K, rng)
                                     if rng.random() < 0.7 else zero(K.rank))
                        c = Series(K, {v: rat(rng, 1, 4)}, INFINITY)
                    filled[i] = c
                exact = DiffPoly(K, {i: c for i, c in filled.items() if c.terms},
                                 P.order)
                assert breakpoints(exact) == bps
        assert answered > 0


class TestPublicRefusals:
    """The refusals of ndeg, ndeg_geq, ndeg_prec and ndeg_in_cut that no
    other test reaches, with their messages."""

    def test_a_base_outside_the_cut_is_refused(self):
        K = laurent_ddt()  # Gamma(der) is v <= -1
        with pytest.raises(VdfError, match="^base point must lie in gamma_der$"):
            ndeg(DiffPoly.variable(K, 1), base=GroupElement([5]))

    def test_ndeg_geq_refuses_a_rank_that_is_neither_the_fields_nor_one_more(self):
        with pytest.raises(VdfError, match="^gamma rank 3 does not match field rank 1$"):
            ndeg_geq(DiffPoly.variable(laurent_ddt(), 1), zero(3))

    def test_ndeg_prec_of_zero_is_refused(self):
        K = laurent_ddt()
        with pytest.raises(VdfError, match="^ndeg_prec needs a nonzero comparison element$"):
            ndeg_prec(DiffPoly.variable(K, 1), K.zero_series())

    def test_a_window_longer_than_the_prefix_is_refused(self):
        K = laurent_ddt()
        t = K.gen("t")
        with pytest.raises(VdfError, match="^pc-sequence prefix shorter than the window$"):
            ndeg_in_cut(DiffPoly.variable(K, 1), PcSequence([t, t + t * t], window=3))
