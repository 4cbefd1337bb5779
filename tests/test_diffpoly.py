import gc
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    complexity,
    poly_sim,
    random_bounded_series,
    random_poly,
    random_series,
    random_small_series,
    random_unit_series,
    random_value,
    rat,
    word_coefficient,
)
from vdfield.cli import field_from_config
import vdfield.diffpoly as diffpoly_module
from vdfield.diffpoly import (
    DiffPoly,
    _evaluate_at,
    _pad,
    _sum_terms,
    add_conj,
    comp_conj,
    derivatives,
    dominant,
    evaluate,
    fnk,
    gauss_val,
    mi_degree,
    mi_weight,
    mul_conj,
    rational_field,
    substitute,
)
from vdfield.errors import IndeterminateValuation, VdfError
from vdfield.gridseries import (
    Series,
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    transseries_fragment,
)
from vdfield.expr import parse_poly, parse_series
from vdfield.newton import breakpoints
from vdfield.valgroup import GroupElement, zero


def chain_rule_images(phi, n):
    """Independent expansion of the n-th derivative over the twisted
    variables z_k: repeatedly apply d(c z_k) = c' z_k + (c phi) z_(k+1).
    Returns {k: coefficient}."""
    K = phi.field
    cur = {0: K.one()}
    for _ in range(n):
        new = {}
        for k, c in cur.items():
            dc = c.derive()
            if not dc.is_true_zero():
                new[k] = new.get(k, K.zero_series()) + dc
            bump = c * phi
            new[k + 1] = new.get(k + 1, K.zero_series()) + bump
        cur = {k: v for k, v in new.items() if not v.is_true_zero()}
    return cur


def conjugate_by_chain_rule(P, phi):
    """comp_conj computed without the F-kernel: images of each variable
    from the chain-rule expansion, then generic substitution."""
    K = P.field
    images = []
    for n in range(P.order + 1):
        coeffs = chain_rule_images(phi, n)
        images.append(
            DiffPoly(
                K,
                {
                    tuple(1 if j == k else 0 for j in range(P.order + 1)): c
                    for k, c in coeffs.items()
                },
                P.order,
            )
        )
    return substitute(P, images)


class TestMultiIndex:
    def test_degree_weight(self):
        i = (1, 0, 2)
        assert mi_degree(i) == 3
        assert mi_weight(i) == 4

    def test_complexity(self):
        K = laurent_ddt()
        Y = DiffPoly.variable(K, 0)
        Ypp = DiffPoly.variable(K, 2)
        P = Y * Ypp * Ypp + Y
        assert complexity(P) == (2, 2, 3)

    def test_spellings_of_one_index_are_one_term(self):
        # (1,) and (1, 0) both name Y: one term, coefficients summed
        K = laurent_ddt()
        t = K.gen("t")
        P = DiffPoly(K, {(1,): t, (1, 0): t})
        Q = DiffPoly(K, {(1,): t})
        assert P.terms == {(1,): t.scale(2)}
        assert repr(P) == "(2*t)*Y"
        assert P == Q * DiffPoly.from_coeff(K, K.constant(2)) and P != Q
        assert repr(P + Q) == "(3*t)*Y"
        assert (P + Q).terms == {(1,): t.scale(3)}
        # with a declared order, indices are padded or trimmed to it
        R = DiffPoly(K, {(0, 1): t, (0, 1, 0, 0): t, (1,): K.one()}, order=2)
        assert R.terms == {(0, 1, 0): t.scale(2), (1, 0, 0): K.one()}
        assert DiffPoly(K, {(1,): t, (1, 0): -t}).is_zero()

    def test_index_beyond_the_declared_order_rejected(self):
        K = laurent_ddt()
        with pytest.raises(VdfError):
            DiffPoly(K, {(0, 1): K.one()}, order=0)

    def test_a_word_letter_below_zero_is_refused(self):
        # a letter is an order of derivation: -1 must not read as the last order
        K = laurent_ddt()
        P = parse_poly("Y'", K)
        assert word_coefficient(P, [1]) == K.one()
        assert word_coefficient(P, [0]).is_true_zero() and word_coefficient(P, [2]).is_true_zero()
        for word in ([-1], [1, -1], [-2]):
            with pytest.raises(VdfError, match=r"^word letter -\d+ < 0"):
                word_coefficient(P, word)
        # nor may a letter that is no int pass as one, or escape as a TypeError
        for word in ([1.0], ["1"], [True]):
            with pytest.raises(VdfError, match=r"^word letter .* not an int"):
                word_coefficient(P, word)


class TestGaussVal:
    def test_example(self):
        K = laurent_ddt()
        P = DiffPoly.variable(K, 1) + (
            DiffPoly.variable(K, 0) * DiffPoly.variable(K, 0)
        ) * DiffPoly.from_coeff(K, K.gen("t"))
        assert gauss_val(P) == zero(1)

    def test_scalar_homogeneity(self, rng):
        K = laurent_ddt()
        for _ in range(30):
            P = random_poly(K, rng)
            c = random_series(K, rng, nterms=1)
            assert gauss_val(P * DiffPoly.from_coeff(K, c)) == c.valuation() + gauss_val(P)

    def test_product_additivity(self, rng):
        K = laurent_tddt_coarse()
        for _ in range(50):
            P = random_poly(K, rng, order=1, max_degree=2)
            Q = random_poly(K, rng, order=1, max_degree=2)
            assert gauss_val(P * Q) == gauss_val(P) + gauss_val(Q)

    def test_indeterminate_coefficient(self):
        K = laurent_ddt()
        unknown = Series(K, {}, GroupElement([-1]))
        P = DiffPoly(K, {(1,): K.one(), (2,): unknown})
        with pytest.raises(IndeterminateValuation):
            gauss_val(P)


class TestConjugations:
    def test_add_conj_example(self):
        K = laurent_ddt()
        Yp = DiffPoly.variable(K, 1)
        assert add_conj(Yp, K.gen("t")) == Yp + DiffPoly.from_coeff(K, K.one())

    def test_mul_conj_example(self):
        K = laurent_ddt()
        Y, Yp = DiffPoly.variable(K, 0), DiffPoly.variable(K, 1)
        assert mul_conj(Yp, K.gen("t")) == Yp * DiffPoly.from_coeff(K, K.gen("t")) + Y

    def test_identity_cases(self, rng):
        K = laurent_ddt()
        for _ in range(10):
            P = random_poly(K, rng)
            assert add_conj(P, K.zero_series()) == P
            assert mul_conj(P, K.one()) == P
            assert comp_conj(P, K.one()) == P

    def test_mul_conj_zero_rejected(self):
        K = laurent_ddt()
        with pytest.raises(VdfError):
            mul_conj(DiffPoly.variable(K, 0), K.zero_series())

    def test_additive_evaluation_identity(self, rng):
        K = laurent_ddt()
        for _ in range(40):
            P = random_poly(K, rng, order=2, max_degree=3)
            a = random_series(K, rng, nterms=2, lo=0, hi=3)
            b = random_series(K, rng, nterms=2, lo=0, hi=3)
            assert evaluate(add_conj(P, a), b) == evaluate(P, a + b)

    def test_multiplicative_evaluation_identity(self, rng):
        K = laurent_ddt()
        for _ in range(40):
            P = random_poly(K, rng, order=2, max_degree=3)
            a = random_series(K, rng, nterms=1)
            y = random_series(K, rng, nterms=2, lo=0, hi=3)
            assert evaluate(mul_conj(P, a), y) == evaluate(P, a * y)

    def test_conjugation_identities_in_fragment(self, rng):
        # the substitution machinery across a field with nontrivial
        # iterated-log derivatives
        M = transseries_fragment(2)
        for _ in range(25):
            P = random_poly(M, rng, order=2, max_degree=2, coeff_terms=1)
            a = random_series(M, rng, nterms=2, lo=0, hi=2)
            b = random_series(M, rng, nterms=1, lo=0, hi=2)
            assert evaluate(add_conj(P, a), b) == evaluate(P, a + b)
            g = M.monomial_series(
                M.monomial_of_value(random_value(M, rng)), rat(rng, 1, 3)
            )
            assert evaluate(mul_conj(P, g), b) == evaluate(P, g * b)


class TestFKernel:
    def test_base_values(self):
        Q = rational_field()
        X = DiffPoly.variable(Q, 0)
        Xp = DiffPoly.variable(Q, 1)
        assert fnk(0, 0) == DiffPoly.from_coeff(Q, Q.one())
        assert fnk(1, 0).is_zero() and fnk(3, 0).is_zero()
        assert fnk(1, 1) == X
        assert fnk(2, 1) == Xp
        assert fnk(2, 2) == X * X

    def test_f32_cross_check(self):
        Q = rational_field()
        X = DiffPoly.variable(Q, 0)
        Xp = DiffPoly.variable(Q, 1)
        assert fnk(3, 2) == X * Xp * DiffPoly.from_coeff(Q, Q.constant(3))

    def test_out_of_range(self):
        with pytest.raises(VdfError):
            fnk(2, 3)
        with pytest.raises(VdfError):
            fnk(1, -1)

    def test_memo_is_threadsafe_idempotent(self):
        import threading

        import vdfield.diffpoly as dp

        saved = dict(dp._fnk_memo)
        dp._fnk_memo.clear()
        try:
            results = [[None] * 8 for _ in range(6)]

            def worker(slot):
                for k in range(8):
                    results[slot][k] = fnk(7, k)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for row in results[1:]:
                assert row == results[0]
        finally:
            dp._fnk_memo.update(saved)

    def test_variable_conjugation_against_chain_rule(self, rng):
        K = laurent_ddt()
        for _ in range(25):
            phi = random_series(K, rng, nterms=2)
            for n in range(0, 5):
                lhs = comp_conj(DiffPoly.variable(K, n), phi)
                rhs_coeffs = chain_rule_images(phi, n)
                for k in range(n + 1):
                    idx = tuple(1 if j == k else 0 for j in range(n + 1))
                    got = lhs.coefficient(idx)
                    want = rhs_coeffs.get(k, K.zero_series())
                    assert got == want, (n, k)


BUILT_IN_FIELDS = [laurent_ddt, laurent_tddt_coarse, lambda: transseries_fragment(2),
                   lambda: log_fragment(2)]


class TestRationalKernel:
    """F(n, k) over Q evaluated in K, each product of derivative powers
    scaled by its rational coefficient, against the former path: F(n, k)
    embedded into K and evaluated with series coefficients."""

    @pytest.mark.parametrize("make", BUILT_IN_FIELDS)
    @pytest.mark.parametrize("shape", ["exact", "truncated", "twisted"])
    def test_matches_the_embedded_kernel(self, make, shape, rng):
        K = make()
        for _ in range(2):
            phi = random_series(K, rng, nterms=2, lo=-2, hi=2)
            twist = None
            if shape == "truncated":
                phi = phi.truncated(phi.valuation() + random_value(K, rng, 1, 3))
            elif shape == "twisted":
                twist = K.monomial_series(
                    K.monomial_of_value(random_value(K, rng, -2, 2)), rat(rng, 1, 3))
            for n in range(1, 7):
                der = derivatives(phi, n - 1, twist)
                for k in range(1, n + 1):
                    want = _evaluate_at(fnk(n, k).embed_into(K), der)
                    assert _evaluate_at(fnk(n, k), der) == want, (n, k)

    def test_comp_conj_builds_no_embedding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("comp_conj embedded a kernel polynomial")

        monkeypatch.setattr(DiffPoly, "embed_into", refuse)
        K = laurent_ddt()
        t = K.gen("t")
        P = DiffPoly.variable(K, 3) + DiffPoly.variable(K, 1) * DiffPoly.from_coeff(K, t)
        assert comp_conj(P, t) == conjugate_by_chain_rule(P, t)


# -- the term-list substitution against the DiffPoly-product one -------------


def _ref_mul(A, B):
    """DiffPoly.__mul__ as the zip product over padded indices."""
    order = A._align(B)
    right = [(_pad(j, order), d) for j, d in B.terms.items()]
    return _sum_terms(A.field, (
        (tuple(a + b for a, b in zip(_pad(i, order), j)), c * d)
        for i, c in A.terms.items() for j, d in right
    ), order)


def _ref_substitute(P, images):
    """substitute through DiffPoly products: each term of P, as a
    polynomial, times the cached DiffPoly power of each image it uses."""
    if len(images) < P.order + 1:
        raise VdfError("substitution needs an image for every variable")
    order = max([img.order for img in images] + [0])
    pow_cache = {}

    def img_pow(j, e):
        got = pow_cache.get((j, e))
        if got is None:
            got = images[j]
            for _ in range(e - 1):
                got = _ref_mul(got, images[j])
            pow_cache[(j, e)] = got
        return got

    pairs = []
    for i, c in P.terms.items():
        term = DiffPoly.from_coeff(P.field, c)
        for j, ij in enumerate(i):
            if ij:
                term = _ref_mul(term, img_pow(j, ij))
        pairs.extend((_pad(i, order), c) for i, c in term.terms.items())
    return _sum_terms(P.field, pairs, order)


def _assert_same_poly(got, want):
    """Equal order, the same indices in the same order (dominant's argmin
    follows it), and coefficients equal in terms, den, cden and tau."""
    assert got.field is want.field and got.order == want.order
    assert list(got.terms) == list(want.terms)
    for i, c in want.terms.items():
        d = got.terms[i]
        assert (d.terms, d.den, d.cden, d.tau) == (c.terms, c.den, c.cden, c.tau), i


def _maybe_cut(K, c, rng):
    """c, or c truncated above its valuation (above its tau if it has no term)."""
    if rng.random() < 0.5:
        return c
    return c.truncated(c.val_or_tau() + random_value(K, rng, 1, 3))


def _drawn_poly(K, rng, order, max_degree, nterms=3):
    P = random_poly(K, rng, order=order, max_degree=max_degree, nterms=nterms)
    return DiffPoly(K, {i: _maybe_cut(K, c, rng) for i, c in P.terms.items()}, P.order)


class TestSubstituteReference:
    """substitute on term lists, and DiffPoly.__mul__, against the
    DiffPoly-product substitution and zip product kept above."""

    @staticmethod
    def _images(monkeypatch, conj, P, a):
        """The images that conj(P, a) hands to substitute."""
        seen = []

        def record(Q, images):
            seen.append(images)
            return substitute(Q, images)

        with monkeypatch.context() as m:
            m.setattr(diffpoly_module, "substitute", record)
            conj(P, a)
        return seen[0]

    @pytest.mark.parametrize("make", BUILT_IN_FIELDS)
    @pytest.mark.parametrize("conj", [add_conj, mul_conj, comp_conj])
    def test_conjugation_images(self, make, conj, rng, monkeypatch):
        K = make()
        for _ in range(10):
            P = _drawn_poly(K, rng, rng.randint(0, 3), 4)
            a = _maybe_cut(K, random_series(K, rng, nterms=2, lo=-2, hi=2), rng)
            images = self._images(monkeypatch, conj, P, a)
            got = substitute(P, images)
            _assert_same_poly(got, _ref_substitute(P, images))
            _assert_same_poly(conj(P, a), got)

    @pytest.mark.parametrize("make", BUILT_IN_FIELDS)
    def test_non_affine_and_empty_images(self, make, rng):
        K = make()
        for _ in range(12):
            r = rng.randint(0, 3)
            P = _drawn_poly(K, rng, r, 4)
            images = [_drawn_poly(K, rng, r, 2, nterms=2) for _ in range(r + 1)]
            j = rng.randrange(r + 1)
            images[j] = DiffPoly(K, {}, r)
            if r:
                Y, Y1 = DiffPoly.variable(K, 0), DiffPoly.variable(K, 1)
                c = _maybe_cut(K, random_series(K, rng, nterms=2), rng)
                images[rng.choice([k for k in range(r + 1) if k != j])] = (
                    Y * Y1 * DiffPoly.from_coeff(K, c)
                    + DiffPoly.from_coeff(K, random_series(K, rng, nterms=1)))
            _assert_same_poly(substitute(P, images), _ref_substitute(P, images))

    @pytest.mark.parametrize("make", BUILT_IN_FIELDS)
    def test_leaves_no_reference_cycle(self, make, rng):
        """A call's image powers are freed when it returns: with the
        cyclic collector off, a call leaves nothing for gc.collect()."""
        K = make()
        for _ in range(6):
            r = rng.randint(0, 2)
            P = _drawn_poly(K, rng, r, 4) * _drawn_poly(K, rng, r, 2)
            images = [_drawn_poly(K, rng, r, 2, nterms=2) for _ in range(r + 1)]
            assert max(max(i) for i in P.terms) >= 2
            gc.collect()
            gc.disable()
            try:
                substitute(P, images)
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_a_truncated_non_affine_image_keeps_the_reference_tau(self):
        """Here multiplying each term by an image i_j times, instead of by
        its cached power, certifies the coefficients of Y'^2 and Y'^4 only
        below v = 6, not 7: the power's own sums cancel a term first."""
        K = laurent_ddt()

        def s(text, tau=None):
            f = parse_series(text, K)
            return f if tau is None else f.truncated(GroupElement([tau]))

        P = DiffPoly(K, {(3, 1, 0): s("-1", 2)}, 2)
        images = [DiffPoly(K, {(0, 0, 0): s("t - t^2", 4), (0, 1, 0): s("-t + t^2"),
                               (0, 2, 0): s("-t")}, 2),
                  DiffPoly(K, {(0, 0, 0): s("t", 3)}, 2),
                  DiffPoly(K, {(0, 0, 1): s("-1 - t", 3)}, 2)]
        got = substitute(P, images)
        _assert_same_poly(got, _ref_substitute(P, images))
        assert got.coefficient((0, 2, 0)).tau == GroupElement([7])
        assert got.coefficient((0, 4, 0)).tau == GroupElement([7])

    @pytest.mark.parametrize("make", BUILT_IN_FIELDS)
    def test_product_matches_the_zip_product(self, make, rng):
        K = make()
        for _ in range(12):
            A = _drawn_poly(K, rng, rng.randint(0, 3), 3)
            B = _drawn_poly(K, rng, rng.randint(0, 3), 3)
            _assert_same_poly(A * B, _ref_mul(A, B))

    def test_images_over_another_field_are_refused(self):
        K, L = laurent_ddt(), laurent_tddt_coarse()
        Y, Y1 = DiffPoly.variable(K, 0), DiffPoly.variable(K, 1)
        P = Y * Y1
        for foreign in (DiffPoly(L, {}, 1), DiffPoly.variable(L, 1)):
            for images in ([foreign, Y1], [Y, foreign]):
                for sub in (substitute, _ref_substitute):
                    with pytest.raises(VdfError):
                        sub(P, images)
            # also an image that no term of P uses
            with pytest.raises(VdfError):
                substitute(Y, [Y, foreign])


class TestCompConj:
    def test_first_order_example(self):
        K = laurent_ddt()
        Yp = DiffPoly.variable(K, 1)
        ti = K.gen("t", -1)
        assert comp_conj(Yp, ti) == Yp * DiffPoly.from_coeff(K, ti)

    def test_second_order_example(self):
        K = laurent_ddt()
        cc = comp_conj(DiffPoly.variable(K, 2), K.gen("t", -1))
        tm2 = K.gen("t", -2)
        want = (DiffPoly.variable(K, 2) * DiffPoly.from_coeff(K, tm2)
                + DiffPoly.variable(K, 1) * DiffPoly.from_coeff(K, -tm2))
        assert cc == want

    def test_oracle_equivalence_brute_force(self, rng):
        # full-polynomial cross-check against the chain-rule expansion
        K = laurent_tddt_coarse()
        for _ in range(100):
            P = random_poly(K, rng, order=min(3, 3), max_degree=3, nterms=3)
            phi = random_series(K, rng, nterms=2)
            assert comp_conj(P, phi) == conjugate_by_chain_rule(P, phi)

    def test_twisted_evaluation_identity(self, rng):
        K = laurent_ddt()
        for _ in range(30):
            P = random_poly(K, rng, order=2, max_degree=3)
            phi = K.monomial_series(
                K.monomial_of_value(random_value(K, rng)), rat(rng, 1, 4)
            )
            y = random_series(K, rng, nterms=2, lo=0, hi=3)
            assert evaluate(P, y) == evaluate(comp_conj(P, phi), y, twist=phi)

    def test_word_recombination_identity(self, rng):
        # coefficientwise cross-check of the conjugation in the word
        # indexing: (P^phi)_[sigma] = sum over tau >= sigma of
        # F^tau_sigma(phi) P_[tau]
        K = laurent_ddt()
        r = 2
        for _ in range(20):
            P = random_poly(K, rng, order=r, max_degree=2, nterms=3)
            phi = random_series(K, rng, nterms=2)
            Q = comp_conj(P, phi)
            degs = {mi_degree(i) for i in P.terms}
            for d in degs:
                if d == 0 or d > 3:
                    continue
                for sigma in itertools.combinations_with_replacement(range(r + 1), d):
                    total = K.zero_series()
                    for tau in itertools.product(
                        *[range(s, r + 1) for s in sigma]
                    ):
                        factor = K.one()
                        for tj, sj in zip(tau, sigma):
                            coeff = _fnk_at(K, tj, sj, phi)
                            factor = factor * coeff
                        total = total + factor * word_coefficient(P, tau)
                    assert word_coefficient(Q, sigma) == total


def _fnk_at(K, n, k, phi):
    if k > n:
        return K.zero_series()
    return evaluate(fnk(n, k).embed_into(K), phi)


class TestDominant:
    def test_examples(self):
        K = laurent_ddt()
        t = K.gen("t")
        Y, Yp, Ypp = (DiffPoly.variable(K, j) for j in range(3))
        d1 = dominant(Y * Y + Y * DiffPoly.from_coeff(K, t))
        assert (d1.ddeg, d1.D) == (2, Y * Y)
        d2 = dominant(Y * Y * DiffPoly.from_coeff(K, t) + Yp)
        assert (d2.ddeg, d2.dwt) == (1, 1)
        assert d2.D == Yp and d2.W == Yp
        d3 = dominant(Y * Ypp + Yp)
        assert (d3.ddeg, d3.dwt) == (2, 2)
        assert d3.W == Y * Ypp

    def test_dominant_part_residues(self):
        K = laurent_ddt()
        t = K.gen("t")
        Y = DiffPoly.variable(K, 0)
        P = Y * Y * DiffPoly.from_coeff(K, t.scale(3) + t.power(2)) + Y * DiffPoly.from_coeff(K, t)
        data = dominant(P)
        assert data.ddeg == 2
        assert data.dominant_part == {(2,): Fraction(3), (1,): Fraction(1)}

    # the two polynomials of the golden ddeg invocations, whose reports read "dwt": 0
    @pytest.mark.parametrize("config, text", [("laurent.json", "Y^2 + t*Y'"),
                                              ("tddt.json", "s*Y'^2 + t*Y*Y' - 2*Y^3")])
    def test_dwt_of_the_golden_ddeg_polynomials(self, config, text):
        with open(Path(__file__).resolve().parents[1] / "configs" / config) as fh:
            P = parse_poly(text, field_from_config(json.load(fh)))
        assert dominant(P).dwt == 0

    def test_invariants(self, rng):
        K = laurent_tddt_coarse()
        for _ in range(40):
            P = random_poly(K, rng, order=2, max_degree=3)
            data = dominant(P)
            assert max(map(mi_degree, data.D.terms)) == data.ddeg
            assert all(mi_weight(i) == data.dwt for i in data.W.terms)
            assert gauss_val(data.D) == gauss_val(data.W) == gauss_val(P)


class TestDegreeLaws:
    """Lemma-level dominant-degree laws in small-derivation fields."""

    def fields(self):
        return [laurent_tddt_coarse(), transseries_fragment(2)]

    def test_ddeg_product_additivity(self, rng):
        for K in self.fields():
            for _ in range(50):
                P = random_poly(K, rng, order=1, max_degree=2)
                Q = random_poly(K, rng, order=1, max_degree=2)
                assert dominant(P * Q).ddeg == dominant(P).ddeg + dominant(Q).ddeg

    def test_ddeg_additive_invariance(self, rng):
        for K in self.fields():
            for _ in range(50):
                P = random_poly(K, rng, order=2, max_degree=3)
                a = random_bounded_series(K, rng)
                assert dominant(add_conj(P, a)).ddeg == dominant(P).ddeg

    def test_ddeg_two_sided_conjugation(self, rng):
        for K in self.fields():
            for _ in range(40):
                P = random_poly(K, rng, order=1, max_degree=2)
                g = K.monomial_series(
                    K.monomial_of_value(random_value(K, rng)), rat(rng, 1, 3)
                )
                b = random_series(K, rng, nterms=2)
                a = b + g * random_bounded_series(K, rng)  # a - b <= g
                left = dominant(mul_conj(add_conj(P, a), g)).ddeg
                right = dominant(mul_conj(add_conj(P, b), g)).ddeg
                assert left == right

    def test_ddeg_multiplicative_monotone(self, rng):
        for K in self.fields():
            for _ in range(50):
                P = random_poly(K, rng, order=1, max_degree=2)
                vh = random_value(K, rng)
                delta = random_small_series(K, rng).valuation()
                g = K.monomial_series(K.monomial_of_value(vh + delta))  # g <= h
                h = K.monomial_series(K.monomial_of_value(vh))
                assert dominant(mul_conj(P, g)).ddeg <= dominant(mul_conj(P, h)).ddeg

    def test_ddeg_comp_conj_unit_invariance(self, rng):
        for K in self.fields():
            for _ in range(40):
                P = random_poly(K, rng, order=2, max_degree=3)
                phi = random_unit_series(K, rng)
                Q = comp_conj(P, phi)
                assert dominant(Q).ddeg == dominant(P).ddeg
                assert gauss_val(Q) == gauss_val(P)

    def test_val_conjugation_bound(self, rng):
        for K in self.fields():
            for _ in range(40):
                P = random_poly(K, rng, order=2, max_degree=3)
                phi = random_bounded_series(K, rng)
                if not phi.terms:
                    continue
                assert gauss_val(comp_conj(P, phi)) >= gauss_val(P)


class TestDconst:
    def test_dominant_part_of_shallow_conjugates(self, rng):
        # D(P^phi) ~ phi^w W(P) just below 0 (past every breakpoint)
        K = laurent_tddt_coarse()
        for _ in range(30):
            P = random_poly(K, rng, order=2, max_degree=3)
            data = dominant(P)
            w = data.dwt
            bps = [b for b in breakpoints(P)]
            alpha = bps[-1] if bps else GroupElement([-1, 0])
            vphi = alpha.scale(Fraction(1, 2))
            if not vphi < zero(2):
                vphi = GroupElement([0, -1])
            phi = K.monomial_series(K.monomial_of_value(vphi))
            Q = comp_conj(P, phi)
            lhs = dominant(Q).D
            rhs = data.W * DiffPoly.from_coeff(K, phi.power(w)) if w >= 0 else None
            assert poly_sim(lhs, rhs)
            assert dominant(Q).ddeg == data.ddeg
            assert dominant(Q).dwt == data.dwt
