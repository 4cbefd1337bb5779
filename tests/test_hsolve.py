import time
from fractions import Fraction

import pytest

from conftest import rat, random_series, random_value, same_terms
from vdfield import hsolve
from vdfield.diffpoly import evaluate
from vdfield.errors import ConfigError, IntegrationGap, NonDecreasingResidual, VdfError
from vdfield.gridseries import (
    FieldInstance,
    Generator,
    Series,
    _sum_series,
    embed_value,
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    transseries_fragment,
    val_strings,
)
from vdfield.hsolve import (
    LinearOperator,
    apply_op,
    asym_integrate,
    check_bll,
    demo_nonuniqueness,
    derivation_op,
    dominant_solve,
    lambda_series,
    op_A,
    op_B,
    operator_poly,
    psi_map,
    solve_linear,
)
from vdfield.newton import PcSequence, ndeg_geq, ndeg_in_cut
from vdfield.valgroup import INFINITY, GroupElement, unit, zero


def u_mono(K, k, coeff=1):
    """(l0 ... lk)^-1 as a series."""
    return K.monomial_series(
        K.monomial_from_dict({f"l{j}": -1 for j in range(k + 1)}), coeff
    )


class TestLambda:
    def test_first_term(self):
        L = log_fragment(0)
        assert same_terms(lambda_series(0), L.gen("l0", -1))

    def test_displayed_sum(self):
        L = log_fragment(2)
        lam = lambda_series(2)
        assert same_terms(lam, u_mono(L, 0) + u_mono(L, 1) + u_mono(L, 2))

    def test_truncation_past_last_term(self):
        L = log_fragment(2)
        lam = lambda_series(2)
        assert lam.tau == GroupElement([1, 1, 2])

    def test_derivative_of_log_tail(self):
        L = log_fragment(3)
        tail = L.gen("l1") + L.gen("l2") + L.gen("l3")
        assert same_terms(tail.derive(), lambda_series(2, L))


# -- the ladder against its Monomial-built reference ----------------------------


def _ref_rung_value(K, k):
    """v((l0...lk)^-1), through Monomial."""
    return K.monomial_value(K.monomial_from_dict({f"l{j}": -1 for j in range(k + 1)}))


def _ref_lambdas(K, depth):
    """lambda_series(d, K) for d = 0..depth as the ladder was first
    built: partial sums of the Monomial-built rungs, each truncated one
    grid step past its last rung."""
    out, lams = K.zero_series(), []
    for k in range(depth + 1):
        out = out + u_mono(K, k)
        lams.append(out.truncated(_ref_rung_value(K, k) + unit(K.rank, K.rank - 1, 1)))
    return lams


def _exactly(f):
    return f.terms, f.den, f.cden, f.tau


class TestLadderReference:
    @pytest.mark.parametrize("depth", [*range(17), 32, 64])
    @pytest.mark.parametrize("family", [transseries_fragment, log_fragment])
    def test_logders_and_lambdas(self, family, depth):
        K = family.__wrapped__(depth)
        head = K.rank - depth - 1
        if head:
            assert _exactly(K.generators[0].logder) == _exactly(K.one())
        for k in range(depth + 1):
            assert _exactly(K.generators[head + k].logder) == _exactly(u_mono(K, k))
        for d, want in enumerate(_ref_lambdas(K, depth)):
            assert _exactly(lambda_series(d, K)) == _exactly(want)

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_default_targets(self, depth):
        L, M = log_fragment(depth), transseries_fragment(depth)
        v_ex = M.monomial_value(M.monomial_from_dict({"e_x": 1}))
        tau_M = embed_value(L, M, _ref_rung_value(L, depth - 1))
        assert check_bll(depth)["required_bound"] == val_strings(tau_M + v_ex)
        demo = demo_nonuniqueness(depth, [Fraction(0), Fraction(1)])
        assert demo["tau"] == val_strings(_ref_rung_value(M, depth - 1) + v_ex)

    def test_a_depth_beyond_the_ladder_is_a_config_error(self):
        message = r"^unknown generator 'l4' in field 'log_fragment\(3\)'$"
        with pytest.raises(ConfigError, match=message):
            lambda_series(4, log_fragment(3))


def _ref_lambda_series(depth, field=None):
    """lambda_series as the sum of the rungs, then truncated: the code the
    one-dict ladder replaced, kept here as its oracle."""
    K = field if field is not None else log_fragment(depth)
    rungs = [K._logder(K.index_of(f"l{k}")) for k in range(depth + 1)]
    tau = rungs[-1].valuation() + unit(K.rank, K.rank - 1, 1)
    return _sum_series(K, rungs).truncated(tau)


def _ladders(K, depth):
    """lambda_series, op_A's a0 and op_B's a0, each with its reference
    (-lambda and one() - lambda), or the VdfError each raises."""
    def outcome(build):
        try:
            return _exactly(build())
        except VdfError as exc:
            return type(exc), str(exc)
    return [(outcome(got), outcome(want)) for got, want in [
        (lambda: lambda_series(depth, K), lambda: _ref_lambda_series(depth, K)),
        (lambda: op_A(K, depth).a0, lambda: -_ref_lambda_series(depth, K)),
        (lambda: op_B(K, depth).a0, lambda: K.one() - _ref_lambda_series(depth, K))]]


class TestOneDictLadder:
    @pytest.mark.parametrize("depth", [*range(9), 16, 32, 64])
    @pytest.mark.parametrize("family", [transseries_fragment, log_fragment])
    def test_matches_sum_truncate_and_negate(self, family, depth):
        for got, want in _ladders(family(depth), depth):
            assert got == want

    @pytest.mark.parametrize("family", [transseries_fragment, log_fragment])
    def test_on_replaced_rungs(self, family, rng):
        # rungs of rational coefficients on several lattices, sharing
        # values so that sums cancel, with a constant term, truncated, or
        # known only modulo a tau; a last rung of no term
        for _ in range(40):
            K = family.__wrapped__(3)
            head = K.rank - 4
            shared = random_series(K, rng, nterms=2)
            for k in range(4):
                ld = random_series(K, rng, nterms=rng.randint(1, 3))
                choice = rng.randrange(6)
                if choice == 0:
                    ld = ld + shared
                elif choice == 1:
                    ld = ld - shared + K.constant(rat(rng))
                elif choice == 2:
                    ld = ld.truncated(ld.valuation() + random_value(K, rng, 0, 3))
                elif choice == 3:
                    ld = Series(K, {}, random_value(K, rng))
                K.generators[head + k].logder = ld
            for depth in range(4):
                for got, want in _ladders(K, depth):
                    assert got == want


class TestPsi:
    def test_exponential_class(self):
        M = transseries_fragment(3)
        assert psi_map(M, M.gen("e_x").valuation()) == zero(5)

    def test_log_class(self):
        M = transseries_fragment(3)
        assert psi_map(M, M.gen("l0").valuation()) == \
            M.gen("l0", -1).valuation()

    def test_scaling_invariance(self, rng):
        M = transseries_fragment(3)
        count = 0
        while count < 100:
            g = random_value(M, rng)
            if g.is_zero():
                continue
            count += 1
            k = rng.randint(1, 5)
            assert psi_map(M, g.scale(k)) == psi_map(M, g)

    def test_zero_rejected(self):
        M = transseries_fragment(1)
        with pytest.raises(VdfError):
            psi_map(M, zero(3))

    def test_generator_logders_match_psi_table(self):
        # declared logders and the psi map tell the same story
        for K in (transseries_fragment(3), log_fragment(3)):
            for g in K.generators:
                if not g.logder.terms:
                    continue
                assert psi_map(K, g.value) == g.logder.valuation()


class TestAsymIntegrate:
    def test_exponential(self):
        M = transseries_fragment(2)
        assert asym_integrate(M.gen("e_x")) == M.gen("e_x")

    def test_log_inverse(self):
        M = transseries_fragment(2)
        assert asym_integrate(M.gen("l0", -1)) == M.gen("l1")

    def test_depth_gap(self):
        for depth in (0, 2, 4):
            M = transseries_fragment(depth)
            with pytest.raises(IntegrationGap):
                asym_integrate(u_mono(M, depth))

    def test_result_never_unit(self, rng):
        M = transseries_fragment(3)
        for _ in range(100):
            g = random_value(M, rng)
            if g.is_zero():
                continue
            f = M.monomial_series(M.monomial_of_value(g), rat(rng, 1, 5))
            try:
                If = asym_integrate(f)
            except IntegrationGap:
                continue
            assert not If.valuation().is_zero()

    def test_derivative_matches_dominant(self, rng):
        # (If)' ~ f on 300 random nonzero single-class inputs
        M = transseries_fragment(4)
        done = 0
        while done < 300:
            g = random_value(M, rng)
            if g.is_zero():
                continue
            f = M.monomial_series(M.monomial_of_value(g), rat(rng, 1, 7)) \
                + M.monomial_series(
                    M.monomial_of_value(g + GroupElement([0, 1, 0, 0, 0, 0])),
                    rat(rng, -3, 3),
                )
            try:
                If = asym_integrate(f)
            except IntegrationGap:
                continue
            done += 1
            diff = If.derive() - f
            if diff.terms:
                assert diff.valuation() > f.valuation()

    def test_flat_claim(self, rng):
        # classes with nonzero exponential part integrate within the
        # class: If =x= f
        M = transseries_fragment(4)
        done = 0
        while done < 120:
            g = random_value(M, rng)
            if g.coords[0] == 0:
                continue
            f = M.monomial_series(M.monomial_of_value(g), rat(rng, 1, 5))
            If = asym_integrate(f)
            done += 1
            assert If.valuation() == f.valuation()


class TestApply:
    def test_exponential_example(self):
        M = transseries_fragment(3)
        A = op_A(M, 3)
        ex = M.gen("e_x")
        assert apply_op(A, ex) == ex - lambda_series(3, M) * ex

    def test_derivation_of_constant(self):
        M = transseries_fragment(1)
        d = LinearOperator(M.zero_series(), M.one())
        assert apply_op(d, M.one()).is_true_zero()

    def test_exponential_shift_identity(self, rng):
        # A(y e_x) = B(y) e_x, the product-rule bridge between the
        # operators
        depth = 4
        M = transseries_fragment(depth)
        L = log_fragment(depth)
        A = op_A(M, depth)
        B = op_B(L, depth)
        ex = M.gen("e_x")
        for _ in range(40):
            y = L.zero_series()
            for _ in range(3):
                y = y + L.monomial_series(
                    L.monomial_of_value(random_value(L, rng)), rat(rng, -4, 4)
                )
            lhs = apply_op(A, y.embed_into(M) * ex)
            rhs = apply_op(B, y).embed_into(M) * ex
            assert lhs == rhs


class TestSolveLinear:
    def test_exponential_target_depth6(self):
        M = transseries_fragment(6)
        A = op_A(M, 6)
        exps = {f"l{j}": -1 for j in range(6)}
        exps["e_x"] = 1
        tau = M.monomial_value(M.monomial_from_dict(exps))
        y, trace = solve_linear(A, M.gen("e_x"), tau)
        assert trace.termination == "reached_tau"
        vals = trace.residual_valuations
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # the ladder climbs v(e_x), v(e_x/l0), v(e_x/(l0 l1)), ...
        assert vals[0] == M.gen("e_x").valuation()
        assert vals[1] == (M.gen("e_x") * M.gen("l0", -1)).valuation()
        assert vals[2] == (
            M.gen("e_x") * u_mono(M, 1)
        ).valuation()

    def test_first_step_example(self):
        M = transseries_fragment(3)
        A = op_A(M, 3)
        exps = {f"l{j}": -1 for j in range(3)}
        exps["e_x"] = 1
        tau = M.monomial_value(M.monomial_from_dict(exps))
        y, trace = solve_linear(A, M.gen("e_x"), tau, max_iter=2)
        # y1 = e_x, z1 = -lambda e_x
        assert trace.iterates[0] == M.gen("e_x")
        assert trace.residual_valuations[1] == (
            M.gen("e_x") * M.gen("l0", -1)
        ).valuation()

    def test_flat_solve_b(self):
        L = log_fragment(6)
        B = op_B(L, 6)
        tau = GroupElement([1, 1, 1, 1, 1, 1, 0])
        y, trace = solve_linear(B, L.one(), tau)
        assert trace.termination == "reached_tau"
        assert trace.iterates[0] == L.one()  # first step is the constant 1
        vals = trace.residual_valuations
        assert all(a < b for a, b in zip(vals, vals[1:]))
        res = apply_op(B, y) - L.one()
        assert res.val_or_tau() >= tau

    def test_flat_solve_against_linear_system(self):
        # coefficientwise oracle: solve B(y) = 1 on an explicit monomial
        # ansatz by exact Gaussian elimination and compare
        depth = 4
        L = log_fragment(depth)
        B = op_B(L, depth)
        tau = GroupElement([1] * depth + [0])
        y, trace = solve_linear(B, L.one(), tau)
        support = _reachable_support(L, depth, tau)
        oracle = _linear_system_solve(L, B, L.one(), support, tau)
        assert oracle is not None
        diff = y - oracle
        assert (not diff.terms) or diff.valuation() >= tau

    def test_consistency_recovery(self, rng):
        # solving against op(w) recovers w up to the certified tail
        depth = 4
        L = log_fragment(depth)
        B = op_B(L, depth)
        for _ in range(10):
            w = L.constant(rat(rng, -3, 3))
            for _ in range(2):
                w = w + L.monomial_series(
                    L.monomial_of_value(
                        GroupElement(
                            [Fraction(rng.randint(0, 2))]
                            + [rat(rng, 0, 2) for _ in range(depth)]
                        )
                    ),
                    rat(rng, -3, 3),
                )
            if not w.terms:
                continue
            g = apply_op(B, w)
            tau = GroupElement([2] + [0] * depth)
            y, trace = solve_linear(B, g, tau, max_iter=64)
            assert trace.termination in ("reached_tau", "truncation_exhausted")
            # recovery is certified to the level the residual reached;
            # the rhs carries the lambda truncation, so that level may
            # sit below the requested tau
            certified = trace.residual_valuations[-1]
            diff = y - w
            if diff.terms:
                assert diff.valuation() >= certified

    def test_exact_closure(self):
        # a polynomial antiderivative closes the equation exactly; the
        # final trace entry is the +infinity bound
        from vdfield.gridseries import laurent_ddt
        from vdfield.hsolve import derivation_op

        K = laurent_ddt()
        d = derivation_op(K)
        tau = GroupElement([10])
        y, trace = solve_linear(d, K.gen("t", 2).scale(3), tau)
        assert trace.termination == "reached_tau"
        assert y == K.gen("t", 3)
        assert trace.as_report()["residual_valuations"][-1] == "inf"

    def test_residual_gap_surfaces(self):
        # a flat constant right-hand side cannot be integrated against A
        M = transseries_fragment(3)
        A = op_A(M, 3)
        tau = GroupElement([1, 0, 0, 0, 0])
        y, trace = solve_linear(A, M.one(), tau)
        assert trace.termination == "integration_gap"
        assert trace.gap is not None

    def test_nondecreasing_rejected(self):
        # an operator outside the solver's contract: the step cannot
        # decrease the residual, which must be reported loudly
        L = log_fragment(3)
        lam = lambda_series(3, L)
        bad = LinearOperator(L.one() - lam, L.gen("l0"))
        tau = GroupElement([2, 0, 0, 0])
        try:
            y, trace = solve_linear(bad, L.one(), tau, max_iter=8)
        except (NonDecreasingResidual, IntegrationGap):
            return
        assert trace.termination in ("integration_gap", "max_iter", "reached_tau")

    def test_newton_degree_bridge(self, rng):
        # every computed solution certifies ndeg_geq(P, v(y)) >= 1 for
        # the operator polynomial P
        depth = 4
        L = log_fragment(depth)
        B = op_B(L, depth)
        tau = GroupElement([1] * depth + [0])
        y, trace = solve_linear(B, L.one(), tau)
        P = operator_poly(B, L.one())
        assert evaluate(P, y).val_or_tau() >= tau
        assert ndeg_geq(P, y.valuation()) >= 1
        M = transseries_fragment(depth)
        A = op_A(M, depth)
        exps = {f"l{j}": -1 for j in range(depth)}
        exps["e_x"] = 1
        tauA = M.monomial_value(M.monomial_from_dict(exps))
        yA, traceA = solve_linear(A, M.gen("e_x"), tauA)
        PA = operator_poly(A, M.gen("e_x"))
        assert ndeg_geq(PA, yA.valuation()) >= 1

    def test_no_unit_values(self, rng):
        # sampled shadow of the gap statement: A(y) is never a unit
        M = transseries_fragment(3)
        A = op_A(M, 3)
        for _ in range(150):
            y = M.zero_series()
            for _ in range(rng.randint(1, 3)):
                y = y + M.monomial_series(
                    M.monomial_of_value(random_value(M, rng)), rat(rng, -4, 4)
                )
            z = apply_op(A, y)
            if z.terms:
                assert not z.valuation().is_zero()


def _truncated_logder_field():
    """Rank 2, t of value (1,0) and s of value (0,1), with both logders
    known only below a finite tau: t-logder = 1 + s + O((0,2)) and
    s-logder = t + O((3,0))."""
    K = FieldInstance(2, [Generator("t", GroupElement([1, 0])),
                          Generator("s", GroupElement([0, 1]))], name="truncated_logders")
    K.generators[0].logder = (K.one() + K.gen("s")).truncated(GroupElement([0, 2]))
    K.generators[1].logder = K.gen("t").truncated(GroupElement([3, 0]))
    return K


def _random_operator(K, rng, truncate):
    """a0 + a1*der with two-term random parts; those named in truncate
    are cut one to four grid steps above their valuation."""
    def part(name):
        a = random_series(K, rng, nterms=2, lo=-2, hi=2)
        return a.truncated(a.valuation() + random_value(K, rng, 1, 4)) if name in truncate else a
    return LinearOperator(part("a0"), part("a1"))


class TestCarriedResidual:
    """The residual solve_linear carries from step to step equals
    op(y) - g recomputed from the iterate: same terms, den, cden and tau.
    Each step's carried product (-h) * op.responses[v(h)] equals
    apply_op(op, -h) in the same four."""

    @staticmethod
    def _solve_and_check(monkeypatch, op, g, tau, max_iter=64):
        # dominant_solve sees the carried residual of every step; the
        # iterate before step k is minus the sum of the first k answers
        seen = []
        original = hsolve.dominant_solve

        def recording(op_, z):
            h = original(op_, z)
            mh = -h
            assert mh * op_.responses[mh.valuation()] == apply_op(op_, mh)
            seen.append((z, h))
            return h

        monkeypatch.setattr(hsolve, "dominant_solve", recording)
        K = op.field
        y = K.zero_series()
        try:
            y_out, trace = solve_linear(op, g, tau, max_iter=max_iter)
        except (NonDecreasingResidual, IntegrationGap):
            trace = None
        for z, h in seen:
            expect = apply_op(op, y) - g
            assert z == expect
            y = y - h
        if trace is not None:
            assert y_out == y
            final = apply_op(op, y) - g
            if trace.termination != "max_iter":
                assert trace.residual_valuations[-1] == final.val_or_tau()
        return len(seen)

    @pytest.mark.parametrize("depth", range(3, 17))
    def test_op_a(self, monkeypatch, depth):
        M = transseries_fragment(depth)
        exps = {f"l{j}": -1 for j in range(depth)}
        exps["e_x"] = 1
        tau = M.monomial_value(M.monomial_from_dict(exps))
        steps = self._solve_and_check(monkeypatch, op_A(M, depth),
                                      M.gen("e_x").scale(Fraction(-3, 2)), tau)
        assert steps >= depth

    @pytest.mark.parametrize("depth", range(3, 17))
    def test_op_b(self, monkeypatch, depth):
        L = log_fragment(depth)
        tau = L.monomial_value(
            L.monomial_from_dict({f"l{j}": -1 for j in range(depth)}))
        steps = self._solve_and_check(monkeypatch, op_B(L, depth), L.one(), tau)
        assert steps >= depth

    def test_derivation_op(self, monkeypatch):
        K = laurent_ddt()
        t = K.gen("t")
        g = t.power(2).scale(3) + t.power(5) - K.gen("t", Fraction(-7, 2))
        assert self._solve_and_check(monkeypatch, derivation_op(K), g,
                                     GroupElement([10])) == 3
        M = transseries_fragment(3)
        g = M.gen("e_x") + M.gen("e_x") * M.gen("l0", -1) + M.gen("l0", -2)
        tau = GroupElement([1, 0, 0, 0, 0])
        assert self._solve_and_check(monkeypatch, derivation_op(M), g, tau) >= 2
        # t*d/dt: t^n s^k has response n, so each power of t takes one step
        K = laurent_tddt_coarse()
        t, s = K.gen("t"), K.gen("s")
        g = t.power(2).scale(3) + t.power(5) * s - K.gen("t", Fraction(-7, 2)) * s.power(2)
        assert self._solve_and_check(monkeypatch, derivation_op(K), g,
                                     GroupElement([10, 0])) == 3
        K = _truncated_logder_field()
        t, s = K.gen("t"), K.gen("s")
        g = t.power(2).scale(3) + t * s - K.gen("t", -3)
        assert self._solve_and_check(monkeypatch, derivation_op(K), g,
                                     GroupElement([4, 0])) >= 2

    @pytest.mark.parametrize("truncate", [("a0", "a1"), ("a0",), ("a1",), ()],
                             ids=["both", "a0", "a1", "neither"])
    @pytest.mark.parametrize("make", [laurent_ddt, laurent_tddt_coarse,
                                      _truncated_logder_field])
    def test_random_first_order_truncated_coefficients(self, monkeypatch, make, truncate, rng):
        K = make()
        total = 0
        for _ in range(40):
            op = _random_operator(K, rng, truncate)
            g = random_series(K, rng, nterms=3, lo=-3, hi=3)
            tau = g.valuation() + random_value(K, rng, 2, 6)
            total += self._solve_and_check(monkeypatch, op, g, tau, max_iter=12)
        assert total >= 40


def _reachable_support(L, depth, tau):
    """Values in the additive monoid of the lambda term values that lie
    below tau (plus 0): the monomials of the multiplicative monoid."""
    seen = {zero(L.rank)}
    frontier = [zero(L.rank)]
    gens = [L.monomial_value(L.monomial_from_dict({f"l{j}": -1 for j in range(k + 1)}))
            for k in range(depth + 1)]
    while frontier:
        m = frontier.pop()
        for g in gens:
            n = m + g
            if n in seen:
                continue
            if n < tau:
                seen.add(n)
                frontier.append(n)
    return sorted(seen, key=lambda m: m.coords)


def _linear_system_solve(L, op, rhs, support, tau):
    """Exact Gaussian elimination for op(y) = rhs on a monomial ansatz,
    matching coefficients of every monomial below tau."""
    images = [dict(apply_op(op, Series(L, {m: Fraction(1)}, INFINITY)).sorted_terms())
              for m in support]
    rhs_terms = dict(rhs.sorted_terms())
    rows = set()
    for img in images:
        for v in img:
            if v < tau:
                rows.add(v)
    for v in rhs_terms:
        rows.add(v)
    rows = sorted(rows)
    zero_c = Fraction(0)
    matrix = [
        [img.get(row, zero_c) for img in images] + [rhs_terms.get(row, zero_c)]
        for row in rows
    ]
    ncols = len(support)
    pivot_of_col = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        pv = matrix[r][c]
        matrix[r] = [x / pv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivot_of_col[c] = r
        r += 1
    for row in matrix[r:]:
        if row[-1] != 0:
            return None
    coeffs = {}
    for c, m in enumerate(support):
        if c in pivot_of_col:
            val = matrix[pivot_of_col[c]][-1]
            if val != 0:
                coeffs[m] = val
    return Series(L, coeffs, tau)


def _eager_dominant_solve(op, z):
    """The dominant_solve that built every seed beta - v(a1) - psi_level
    up front and deduplicated them with dict.fromkeys: the reference
    for the lazy seeds of hsolve.dominant_solve."""
    K = op.field
    if not z.terms:
        raise VdfError("dominant_solve needs a residual with a known term")
    c_target, beta = z.dominant_term()
    seeds = []
    if op.a0.terms:
        seeds.append(beta - op.a0.valuation())
    a1v = op.a1.valuation()
    for i in range(K.rank):
        lvl = K.psi_level(i)
        if lvl is not INFINITY:
            seeds.append(beta - a1v - lvl)
    pure_derivation = not op.a0.terms
    attempts = []
    seen = set()
    queue = list(dict.fromkeys(seeds))
    budget = 3 * K.rank + 6
    while queue and budget > 0:
        budget -= 1
        gamma = queue.pop(0)
        if gamma in seen:
            continue
        seen.add(gamma)
        if pure_derivation and gamma.is_zero():
            continue
        response = op.a0 + op.a1 * K.logder_of_value(K.monomial_value(K.monomial_of_value(gamma)))
        if not response.terms:
            attempts.append((gamma, response.tau))
            continue
        v_resp = response.valuation()
        if gamma + v_resp == beta:
            dom_c, _ = response.dominant_term()
            return Series(K, {gamma: c_target / dom_c}, INFINITY)
        attempts.append((gamma, v_resp))
        retry = beta - v_resp
        if retry not in seen:
            queue.append(retry)
    raise IntegrationGap(
        f"no single-term solution of op(h) ~ residual at value {beta}",
        attempts=attempts,
    )


class TestDominantSolveReference:
    """The lazy seeds try the same candidates, in the same order and
    under the same budget, as the eager queue: the same term comes back,
    or the same IntegrationGap with the same attempt trail."""

    @staticmethod
    def _same_step(op, z):
        try:
            expect = _eager_dominant_solve(op, z)
        except IntegrationGap as gap:
            with pytest.raises(IntegrationGap) as got:
                dominant_solve(op, z)
            assert got.value.attempts == gap.attempts
            assert all(isinstance(g, GroupElement) for g, _ in got.value.attempts)
            assert str(got.value) == str(gap)
            return gap
        assert dominant_solve(op, z) == expect
        return None

    def _check_every_step(self, monkeypatch):
        """Route hsolve's own calls of dominant_solve through _same_step;
        the returned list gets each step's gap, or None for a term."""
        steps = []

        def checking(op_, z):
            steps.append(self._same_step(op_, z))
            return dominant_solve(op_, z)

        monkeypatch.setattr(hsolve, "dominant_solve", checking)
        return steps

    def _checked_solve(self, monkeypatch, op, g, tau):
        steps = self._check_every_step(monkeypatch)
        _, trace = solve_linear(op, g, tau)
        return steps, trace

    @pytest.mark.parametrize("depth", range(3, 17))
    def test_op_a_residuals(self, monkeypatch, depth):
        M = transseries_fragment(depth)
        exps = {f"l{j}": -1 for j in range(depth)}
        exps["e_x"] = 1
        tau = M.monomial_value(M.monomial_from_dict(exps))
        steps, trace = self._checked_solve(
            monkeypatch, op_A(M, depth), M.gen("e_x").scale(Fraction(-3, 2)), tau)
        assert len(steps) >= depth and trace.termination == "reached_tau"

    @pytest.mark.parametrize("depth", range(3, 17))
    def test_op_b_residuals(self, monkeypatch, depth):
        L = log_fragment(depth)
        tau = L.monomial_value(
            L.monomial_from_dict({f"l{j}": -1 for j in range(depth)}))
        steps, trace = self._checked_solve(monkeypatch, op_B(L, depth), L.one(), tau)
        assert len(steps) >= depth and trace.termination == "reached_tau"

    def test_derivation_op_residuals(self, monkeypatch):
        K = laurent_ddt()
        t = K.gen("t")
        g = t.power(2).scale(3) + t.power(5) - K.gen("t", Fraction(-7, 2))
        steps, _ = self._checked_solve(monkeypatch, derivation_op(K), g,
                                       GroupElement([10]))
        assert len(steps) == 3
        M = transseries_fragment(3)
        g = M.gen("e_x") + M.gen("e_x") * M.gen("l0", -1) + M.gen("l0", -2)
        steps, _ = self._checked_solve(monkeypatch, derivation_op(M), g,
                                       GroupElement([1, 0, 0, 0, 0]))
        assert len(steps) >= 2

    @pytest.mark.parametrize("depth", [0, 2, 4, 8])
    def test_derivation_op_gap(self, depth):
        # integrating (l0...lN)^-1 needs l(N+1), one level past the fragment
        M = transseries_fragment(depth)
        gap = self._same_step(derivation_op(M), u_mono(M, depth))
        assert gap is not None and gap.attempts

    @pytest.mark.parametrize("depth", [3, 5, 9])
    def test_constant_residual_cascade(self, monkeypatch, depth):
        # the demo's flat constant against op_A, directly and through
        # every step demo_nonuniqueness takes
        M = transseries_fragment(depth)
        gap = self._same_step(op_A(M, depth), M.constant(2))
        assert gap is not None and len(gap.attempts) == depth + 2
        steps = self._check_every_step(monkeypatch)
        report = demo_nonuniqueness(depth, [Fraction(0), Fraction(1), Fraction(2)])
        assert report["differences"][0]["correction_monomials"]
        assert any(s is not None for s in steps)

    @staticmethod
    def _endless_retries(monkeypatch, M, beta):
        """Give M a monomial logder whose response to op_A at value gamma
        has value beta - gamma - e with e = (1, 0, ...): no candidate
        balances, and each retry gamma + e is new, so only the budget of
        3 * rank + 6 candidates ends the search."""
        e = unit(M.rank, 0, 1)

        def logder(gamma):
            return M.monomial_series(M.monomial_of_value(beta - gamma - e))

        monkeypatch.setattr(M, "logder_of_value", logder)

    def test_budget_runs_out(self, monkeypatch):
        M = transseries_fragment.__wrapped__(4)   # a fresh field to patch
        z = M.gen("e_x")
        self._endless_retries(monkeypatch, M, z.valuation())
        gap = self._same_step(op_A(M, 4), z)
        assert len(gap.attempts) == 3 * M.rank + 6

    def test_duplicate_seed_spends_no_budget(self, monkeypatch):
        # v(a0) = v(lambda) = psi_level(l0), so op_A's first and third
        # offsets agree: (0, 1, 0, 0, 0, 0) at depth 4
        M = transseries_fragment.__wrapped__(4)
        A = op_A(M, 4)
        assert A.seed_offsets[0] == A.seed_offsets[2] == GroupElement([0, 1, 0, 0, 0, 0])
        assert len(set(A.seed_offsets)) == len(A.seed_offsets) - 1
        z = M.gen("e_x")
        self._endless_retries(monkeypatch, M, z.valuation())
        with pytest.raises(IntegrationGap) as gap:
            dominant_solve(A, z)
        # every unit of budget went to a distinct attempt: the repeated
        # seed took none
        trail = [g for g, _ in gap.value.attempts]
        assert len(trail) == len(set(trail)) == 3 * M.rank + 6
        assert trail[:6] == [z.valuation() - off for off in dict.fromkeys(A.seed_offsets)]


class TestLinearOperator:
    def test_frozen(self):
        M = transseries_fragment(2)
        A = op_A(M, 2)
        with pytest.raises(AttributeError):
            A.a0 = M.one()
        assert same_terms(A.a0, -lambda_series(2, M))

    def test_seed_offsets_cached(self):
        M = transseries_fragment(2)
        A = op_A(M, 2)
        assert A.seed_offsets is A.seed_offsets
        # derivation_op has no a0 seed; its offsets are the psi levels
        D = derivation_op(M)
        assert D.seed_offsets == tuple(
            M.psi_level(i) for i in range(M.rank) if M.psi_level(i) is not INFINITY)

    def test_zero_a1_refused(self):
        M = transseries_fragment(2)
        with pytest.raises(VdfError, match="a1 must be nonzero"):
            LinearOperator(M.one(), M.zero_series())


def _op_a_problem(M, depth):
    exps = {f"l{j}": -1 for j in range(depth)}
    exps["e_x"] = 1
    return M.gen("e_x").scale(Fraction(-3, 2)), M.monomial_value(M.monomial_from_dict(exps))


def _op_b_problem(L, depth):
    return L.one(), L.monomial_value(L.monomial_from_dict({f"l{j}": -1 for j in range(depth)}))


class TestResponseMemo:
    """dominant_solve memoises each response on its operator: a later
    solve on the same operator finds the responses it needs already
    built and gives the answer and trace of a freshly built operator."""

    @staticmethod
    def _same_solve(got, expect):
        (y, trace), (y0, trace0) = got, expect
        assert y == y0
        assert trace.residual_valuations == trace0.residual_valuations
        assert trace.iterates == trace0.iterates
        assert trace.as_report() == trace0.as_report()

    @pytest.mark.parametrize("depth", [4, 10, 16])
    @pytest.mark.parametrize("build, field, problem", [
        (op_A, transseries_fragment, _op_a_problem),
        (op_B, log_fragment, _op_b_problem)])
    def test_second_solve_hits_the_memo(self, depth, build, field, problem):
        K = field(depth)
        g, tau = problem(K, depth)
        op = build(K, depth)
        assert op.responses == {}
        first = solve_linear(op, g, tau)
        filled = dict(op.responses)
        assert filled
        second = solve_linear(op, g, tau)
        # no response was built again: the same objects, and no new value
        assert op.responses.keys() == filled.keys()
        assert all(op.responses[v] is r for v, r in filled.items())
        fresh = build(K, depth)
        expect = solve_linear(fresh, g, tau)
        for got in (first, second):
            self._same_solve(got, expect)
        # each entry is the response the eager reference builds
        for gamma, response in filled.items():
            mono = K.monomial_of_value(gamma)
            assert response == op.a0 + op.a1 * K.logder_of_value(K.monomial_value(mono))

    def test_gap_trail_from_the_memo(self):
        # the demo's flat constant against op_A fails the same way twice
        M = transseries_fragment(5)
        A = op_A(M, 5)
        trails = []
        for op in (A, A, op_A(M, 5)):
            with pytest.raises(IntegrationGap) as gap:
                dominant_solve(op, M.constant(2))
            trails.append((str(gap.value), gap.value.attempts))
        assert trails[0] == trails[1] == trails[2]

    def test_operators_do_not_share_entries(self):
        M = transseries_fragment(4)
        A1, A2 = op_A(M, 4), op_A(M, 4)
        assert A1 == A2 and A1.responses is not A2.responses
        g, tau = _op_a_problem(M, 4)
        solve_linear(A1, g, tau)
        assert A1.responses and A2.responses == {}


class TestOperatorCachesFollowLogders:
    """seed_offsets and responses follow from the logders: once one is
    replaced, the same operator answers as a freshly built one does."""

    def test_a_replaced_logder_rebuilds_seed_offsets_and_responses(self):
        K = FieldInstance(1, [Generator("t", GroupElement([1]))])
        K.generators[0].logder = K.gen("t", -1)
        op = derivation_op(K)
        t2 = K.gen("t", 2)
        assert dominant_solve(op, t2) == K.gen("t", 3).scale(Fraction(1, 3))
        assert op.seed_offsets == (GroupElement([-1]),) and op.responses
        K.generators[0].logder = K.one()
        assert op.seed_offsets == (GroupElement([0]),)
        assert dominant_solve(op, t2) == t2.scale(Fraction(1, 2))
        assert dominant_solve(derivation_op(K), t2) == t2.scale(Fraction(1, 2))
        assert op.responses.keys() == {GroupElement([2])}


    def test_a_replaced_logder_rebuilds_balances_and_held_operators(self):
        K = FieldInstance(1, [Generator("t", GroupElement([1]))])
        K.generators[0].logder = K.gen("t", -1)
        op = derivation_op(K)
        t2 = K.gen("t", 2)
        assert dominant_solve(op, t2) == K.gen("t", 3).scale(Fraction(1, 3))
        assert op.balances == {GroupElement([2]): (GroupElement([3]), 3)}
        K.generators[0].logder = K.one()
        assert op.balances == {}
        assert dominant_solve(op, t2) == t2.scale(Fraction(1, 2))
        assert op.balances == {GroupElement([2]): (GroupElement([2]), 2)}
        # the drivers' operator of a field is built again, with empty memos
        M = transseries_fragment.__wrapped__(4)
        A = hsolve._held(op_A, M, 4)
        assert hsolve._held(op_A, M, 4) is A
        g, tau = _op_a_problem(M, 4)
        expect = solve_linear(A, g, tau)
        assert A.balances
        gen = M.generators[M.index_of("l2")]
        gen.logder = gen.logder.truncated(gen.logder.tau)  # an equal copy
        held = hsolve._held(op_A, M, 4)
        assert held is not A and held.responses == {} and held.balances == {}
        TestResponseMemo._same_solve(solve_linear(held, g, tau), expect)
        assert hsolve._held(op_A, M, 4) is held


class TestBalanceMemo:
    """dominant_solve memoises each success by the residual valuation
    beta: a later residual of value beta gets the term the search would
    find, with no search; a failure is searched again every time."""

    PROBLEMS = [(op_A, transseries_fragment, _op_a_problem),
                (op_B, log_fragment, _op_b_problem)]

    @pytest.mark.parametrize("depth", [4, 10, 16])
    @pytest.mark.parametrize("build, field, problem", PROBLEMS)
    def test_entries_are_what_a_fresh_search_returns(self, depth, build, field, problem):
        K = field(depth)
        g, tau = problem(K, depth)
        op = build(K, depth)
        assert op.balances == {}
        _, trace = solve_linear(op, g, tau)
        # one entry per step, as every step has a new residual valuation
        assert len(op.balances) == len(trace.iterates) >= depth
        c = Fraction(-5, 3)
        for beta, (gamma, d) in op.balances.items():
            z = K.term(beta, c)
            expect = _eager_dominant_solve(build(K, depth), z)
            assert expect == K.term(gamma, c / d)
            assert dominant_solve(build(K, depth), z) == expect
            assert dominant_solve(op, z) == expect

    @pytest.mark.parametrize("depth", [4, 10, 16])
    @pytest.mark.parametrize("build, field, problem", PROBLEMS)
    def test_second_solve_adds_no_entry(self, depth, build, field, problem):
        K = field(depth)
        g, tau = problem(K, depth)
        op = build(K, depth)
        first = solve_linear(op, g, tau)
        responses, balances = dict(op.responses), dict(op.balances)
        # the same residual valuations, other coefficients
        for rhs in (g, g.scale(Fraction(7, 3))):
            got = solve_linear(op, rhs, tau)
            assert op.balances == balances
            assert op.responses.keys() == responses.keys()
            assert all(op.responses[v] is r for v, r in responses.items())
            expect = solve_linear(build(K, depth), rhs, tau)
            TestResponseMemo._same_solve(got, expect)
        TestResponseMemo._same_solve(first, solve_linear(build(K, depth), g, tau))

    def test_a_gap_is_not_memoised(self):
        M = transseries_fragment(5)
        A = op_A(M, 5)
        g, tau = _op_a_problem(M, 5)
        solve_linear(A, g, tau)
        filled = dict(A.balances)
        trails = []
        for op in (A, A, op_A(M, 5)):
            with pytest.raises(IntegrationGap) as gap:
                dominant_solve(op, M.constant(2))
            trails.append((str(gap.value), gap.value.attempts))
        assert trails[0] == trails[1] == trails[2]
        assert A.balances == filled and zero(M.rank) not in A.balances


class TestHeldOperators:
    """check_bll and demo_nonuniqueness keep their operators on the
    built-in fields: a repeat call reuses their memos and reports as the
    first call did, and so does a call on fields built afresh."""

    DEPTHS = [3, 6, 9]

    @staticmethod
    def _reports(depth):
        return check_bll(depth), demo_nonuniqueness(depth, [Fraction(0), Fraction(-2, 5)])

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_repeat_calls_report_alike(self, depth):
        first = self._reports(depth)
        B = hsolve._held(op_B, log_fragment(depth), depth)
        A = hsolve._held(op_A, transseries_fragment(depth), depth)
        assert B.balances and A.balances
        balances = dict(B.balances), dict(A.balances)
        assert self._reports(depth) == first
        assert hsolve._held(op_B, log_fragment(depth), depth) is B
        assert (dict(B.balances), dict(A.balances)) == balances
        transseries_fragment.cache_clear()
        log_fragment.cache_clear()
        assert self._reports(depth) == first
        assert hsolve._held(op_B, log_fragment(depth), depth) is not B


class TestCheckBll:
    def test_depth6(self):
        rep = check_bll(6)
        assert rep["passed"]
        assert rep["flat_solve"]["termination"] == "reached_tau"

    def test_depth3_quick(self):
        import time

        t0 = time.perf_counter()
        rep = check_bll(3)
        assert rep["passed"]
        assert time.perf_counter() - t0 < 1.0

    def test_negative_control(self):
        # a deliberately early-truncated solve leaves the lift residual
        # below the required bound
        depth = 4
        L = log_fragment(depth)
        B = op_B(L, depth)
        tau = GroupElement([1] * depth + [0])
        y_short, _ = solve_linear(B, L.one(), tau, max_iter=2)
        M = transseries_fragment(depth)
        A = op_A(M, depth)
        lifted = y_short.embed_into(M) * M.gen("e_x")
        residual = apply_op(A, lifted) - M.gen("e_x")
        target = GroupElement([-1] + [1] * depth + [0])
        assert residual.terms
        assert not residual.valuation() >= target


class TestSolverIteratesArePcSequences:
    """The existence side of the paper on the solver: the iterates of a
    solve are a pc-sequence (Kaplansky 1942), and the operator minus its
    right-hand side, a linear P, has Newton degree 1 along it."""

    @pytest.mark.parametrize("depth", [4, 6, 8])
    @pytest.mark.parametrize("case", ["A, e_x", "A, e_x + 1", "B, 1"])
    def test_gaps_rise_and_the_newton_degree_is_1(self, case, depth):
        if case == "B, 1":
            K = log_fragment(depth)
            op, g = op_B(K, depth), K.one()
        else:
            K = transseries_fragment(depth)
            op, g = op_A(K, depth), K.gen("e_x") + K.constant(int(case.endswith("1")))
        # the default tau of vdf solve
        tau = K.derivation_shift + g.valuation() + unit(K.rank, 0)
        _, trace = solve_linear(op, g, tau)
        assert (trace.termination, len(trace.iterates)) == ("truncation_exhausted", depth + 2)
        seq = PcSequence(trace.iterates)
        gaps = seq.gaps()
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        cert = ndeg_in_cut(operator_poly(op, g), seq)
        assert (cert.value, cert.history) == (1, [1, 1, 1])


class TestDemo:
    @pytest.mark.parametrize("depth", [3, 4, 6, 8, 16])
    def test_the_cascade_is_the_whole_ladder(self, depth):
        # the uniqueness side: two constants give one residual trace and
        # one iterate, and the correction between them climbs every rung
        # l0, l0*l1, ..., l0*...*lN without closing at this depth
        rep = demo_nonuniqueness(depth, [Fraction(0), Fraction(5, 2)])
        first, second = rep["runs"]
        assert first["residual_valuations"] == second["residual_valuations"]
        diff = rep["differences"][0]
        assert diff["iterate_difference_terms"] == []
        assert diff["correction_monomials"] == [
            [[f"l{j}", "1"] for j in range(k + 1)] for k in range(depth + 1)]

    @pytest.mark.parametrize("depth", [3, 4, 5, 8])
    def test_one_level_deeper_the_cascade_gains_one_rung(self, depth):
        # the obstruction moves to depth N + 1 and never closes: the
        # cascade there is depth N's with the one rung l0*...*l(N+1) added
        def cascade(n):
            rep = demo_nonuniqueness(n, [Fraction(0), Fraction(5, 2)])
            return rep["differences"][0]["correction_monomials"]

        shallow, deep = cascade(depth), cascade(depth + 1)
        assert deep[:-1] == shallow
        assert deep[-1] == [[f"l{j}", "1"] for j in range(depth + 2)]

    def test_residual_ladder(self):
        rep = demo_nonuniqueness(4, [Fraction(0)])
        assert len(rep["runs"]) == 1
        vals = rep["runs"][0]["residual_valuations"]
        assert vals[1] == ["-1", "1", "0", "0", "0", "0"]
        assert vals[2] == ["-1", "1", "1", "0", "0", "0"]

    def test_difference_is_flat(self):
        rep = demo_nonuniqueness(4, [Fraction(0), Fraction(1)])
        diff = rep["differences"][0]
        # the computable iterates coincide; the discrepancy is the flat
        # constant, and the would-be correction lives in the log block
        assert diff["iterate_difference_terms"] == []
        assert diff["flat_discrepancy"][0]["monomial"] == []
        assert diff["correction_dominant"] == [["l0", "1"]]
        assert diff["correction_has_e_x_factor"] is False

    def test_rational_text_is_read_with_the_bound(self):
        # Fraction would expand the exponent before either solve ran
        start = time.perf_counter()
        with pytest.raises(ValueError, match="expected a rational, found '1e300000'"):
            demo_nonuniqueness(3, ["0", "1e300000"])
        assert time.perf_counter() - start < 1

    def test_rational_text_gives_the_report_of_its_fraction(self):
        assert demo_nonuniqueness(3, ["0", "5/2"]) \
            == demo_nonuniqueness(3, [Fraction(0), Fraction(5, 2)])

    def test_single_c_degenerates(self):
        rep = demo_nonuniqueness(3, [Fraction(0)])
        assert rep["differences"] == []
        assert rep["runs"][0]["termination"] == "reached_tau"
