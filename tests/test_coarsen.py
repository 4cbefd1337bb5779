from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_normal, rat, random_series, triangular_fields
from vdfield.coarsen import coarsen, coarsened_gamma_der, lift_val
from vdfield.errors import VdfError
from vdfield.gridseries import laurent_tddt_coarse, log_fragment, transseries_fragment
from vdfield.newton import gamma_der, s_der
from vdfield.valgroup import (
    INFINITY,
    ConvexSubgroup,
    GroupElement,
    cut_stabilizer,
    quotient_map,
    zero,
)


def random_tddt_ring_element(K, rng, min_order=0, nterms=3):
    """Element with every term's order coordinate >= min_order."""
    out = K.zero_series()
    for _ in range(nterms):
        a = Fraction(rng.randint(min_order, min_order + 4), rng.randint(1, 2))
        b = rat(rng, -5, 5)
        c = rat(rng, -4, 4)
        out = out + K.monomial_series(K.monomial_from_dict({"t": a, "s": b}), c)
    return out


class TestCoarseVal:
    def test_examples(self):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        s, t = K.gen("s"), K.gen("t")
        assert half.coarse_val(s * t.power(2)) == GroupElement([2])
        assert half.coarse_val(K.gen("s", -3)) == GroupElement([0])

    def test_homomorphism(self, rng):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        for _ in range(60):
            f = random_series(K, rng, nterms=1)
            g = random_series(K, rng, nterms=1)
            assert half.coarse_val(f * g) == half.coarse_val(f) + half.coarse_val(g)


class TestPrefixLen:
    @pytest.mark.parametrize("build", [laurent_tddt_coarse, lambda: transseries_fragment(2)],
                             ids=["tddt", "fragment"])
    def test_prefix_len_outside_the_rank_is_refused(self, build):
        # the range check is ConvexSubgroup's; coarsen keeps no copy of it
        K = build()
        for k in (-1, K.rank + 1):
            with pytest.raises(VdfError, match=rf"prefix_len {k} outside \[0, {K.rank}\]"):
                coarsen(K, k)
        assert coarsen(K, 0).residue_field.rank == K.rank
        assert coarsen(K, K.rank).residue_field.rank == 0


class TestResidue:
    def test_examples(self):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        R = half.residue_field
        f = K.gen("s").scale(2) + K.gen("t")
        assert half.residue(f) == R.gen("s").scale(2)
        assert not half.residue(K.gen("t")).terms

    def test_outside_ring_rejected(self):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        with pytest.raises(VdfError):
            half.residue(K.gen("t", -1))

    def test_a_series_of_another_field_is_refused(self):
        # log_fragment(3) has the rank of transseries_fragment(2): its keys
        # must not be sliced as if they were the base's
        half = coarsen(transseries_fragment(2), 1)
        for f in (log_fragment(3).gen("l1"), laurent_tddt_coarse().one(),
                  half.residue_field.one()):
            with pytest.raises(VdfError, match="^series belong to different field instances$"):
                half.residue(f)
        assert half.residue(transseries_fragment(2).gen("l1")) == half.residue_field.gen("l1")

    def test_ring_homomorphism(self, rng):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        for _ in range(80):
            f = random_tddt_ring_element(K, rng)
            g = random_tddt_ring_element(K, rng)
            assert half.residue(f * g) == half.residue(f) * half.residue(g)
            assert half.residue(f + g) == half.residue(f) + half.residue(g)

    def test_residue_valuation_is_delta_part(self, rng):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        for _ in range(40):
            b = rat(rng, -5, 5)
            f = K.monomial_series(K.monomial_from_dict({"s": b}), rat(rng, 1, 4)) \
                + random_tddt_ring_element(K, rng, min_order=1)
            assert half.coarse_val(f) == zero(1)
            assert half.residue(f).valuation() == GroupElement(
                [f.valuation().coords[1]]
            )


class TestLiftVal:
    def test_concat(self):
        assert lift_val(GroupElement([2]), GroupElement([-1])) == GroupElement([2, -1])

    def test_round_trip(self, rng):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        f = K.gen("s", -1) * K.gen("t").power(2)
        assert lift_val(half.coarse_val(f), half.unit_part_residue_val(f)) == \
            GroupElement([2, -1])
        for _ in range(100):
            f = random_series(K, rng, nterms=3)
            got = lift_val(half.coarse_val(f), half.unit_part_residue_val(f))
            assert got == f.valuation()

    def test_additive_on_products(self, rng):
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        for _ in range(50):
            f = random_series(K, rng, nterms=2)
            g = random_series(K, rng, nterms=2)
            fg = f * g
            got = lift_val(half.coarse_val(fg), half.unit_part_residue_val(fg))
            assert got == f.valuation() + g.valuation()


_coords = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))


class TestNormalForm:
    """lift_val, the residue generators' values and a residue's tau are
    built from other elements' coordinates and not normalized again; each
    has the coordinates of GroupElement(coords)."""

    @given(data=st.data())
    def test_lift_val(self, data):
        a, b = (GroupElement(data.draw(st.lists(_coords, max_size=4))) for _ in range(2))
        v = lift_val(a, b)
        assert_normal(v)
        assert v.coords == a.coords + b.coords

    @given(K=triangular_fields(), data=st.data())
    @settings(max_examples=60)
    def test_residue_values_and_tau(self, K, data):
        for g in K.generators:
            g.logder = K.zero_series()  # so every kept logder has a residue
        k = data.draw(st.integers(0, K.rank))
        half = coarsen(K, k)
        for g, h in zip(K.generators[k:], half.residue_field.generators):
            assert_normal(h.value)
            assert h.value.coords == g.value.coords[k:]
        tau = GroupElement([0] * k + [data.draw(_coords) for _ in range(K.rank - k)])
        r = half.residue(K.zero_series().truncated(tau))
        assert_normal(r.tau)
        assert r.tau.coords == tau.coords[k:]


class TestDerivationLemmas:
    def test_smallness_transfer(self, rng):
        # derivation small implies dotted-small: 200 samples across the
        # two small-derivation instances
        for make, k in ((laurent_tddt_coarse, 1), (lambda: transseries_fragment(3), 1)):
            K = make()
            half = coarsen(K, k)
            count = 0
            while count < 100:
                f = K.zero_series()
                for _ in range(2):
                    coords = [Fraction(rng.randint(1, 4), rng.randint(1, 2))]
                    coords += [rat(rng, -4, 4) for _ in range(K.rank - 1)]
                    f = f + K.monomial_series(
                        K.monomial_of_value(GroupElement(coords)), rat(rng, 1, 4)
                    )
                if not f.terms:
                    continue
                assert half.coarse_val(f) > zero(k)
                df = f.derive()
                if not df.terms:
                    continue
                count += 1
                assert half.coarse_val(df) > zero(k)

    def test_derdot_inequality(self, rng):
        # with Delta = S(der) in the coarse instance: derivatives of the
        # dotted valuation ring sit above the whole cut
        K = laurent_tddt_coarse()
        assert s_der(K).prefix_len == 1
        cut = gamma_der(K)
        for _ in range(200):
            f = random_tddt_ring_element(K, rng, min_order=0, nterms=2)
            df = f.derive()
            if not df.terms:
                continue
            v = df.valuation()
            for _ in range(100):
                gamma = GroupElement(
                    [-Fraction(rng.randint(0, 6), rng.randint(1, 3)),
                     rat(rng, -8, 8)]
                )
                assert cut.contains(gamma)
                assert v > gamma

    def test_skdelta_trivial_stabilizer(self):
        K = laurent_tddt_coarse()
        delta = ConvexSubgroup(2, s_der(K).prefix_len)
        dotted = coarsened_gamma_der(K, delta)
        assert dotted.has_max()
        assert cut_stabilizer(dotted).prefix_len == delta.prefix_len

    def test_projection_inclusion(self, rng):
        # pi Gamma(der) is contained in the coarsened Gamma(der)
        for make, k in ((laurent_tddt_coarse, 1), (lambda: transseries_fragment(2), 2)):
            K = make()
            cut = gamma_der(K)
            delta = ConvexSubgroup(K.rank, k)
            dotted = coarsened_gamma_der(K, delta)
            for _ in range(150):
                g = GroupElement(
                    [rat(rng, -6, 6) for _ in range(K.rank)]
                )
                if cut.contains(g):
                    assert dotted.contains(quotient_map(g, delta))

    def test_ring_nesting(self, rng):
        # the coarsened ring contains the ring; the coarsened maximal
        # ideal sits inside the maximal ideal
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        for _ in range(100):
            f = random_series(K, rng, nterms=2)
            v = f.valuation()
            if v >= zero(2):
                assert half.coarse_val(f) >= zero(1)
            if half.coarse_val(f) > zero(1):
                assert v > zero(2)

    def test_coarsened_cut_membership_oracle(self, rng):
        # dotted-cut membership against sampled dotted-small monomials
        for make, k in ((laurent_tddt_coarse, 1), (lambda: transseries_fragment(2), 2)):
            K = make()
            delta = ConvexSubgroup(K.rank, k)
            dotted = coarsened_gamma_der(K, delta)
            bounds = []
            for _ in range(80):
                # dotted-small: positive at a coordinate before k
                p = rng.randrange(k)
                coords = [Fraction(0)] * K.rank
                coords[p] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for j in range(p + 1, K.rank):
                    coords[j] = rat(rng, -4, 4)
                mono = K.monomial_of_value(GroupElement(coords))
                ld = K.monomial_logder(mono)
                if ld.terms:
                    bounds.append(
                        quotient_map(GroupElement(coords) + ld.valuation(), delta)
                    )
            for _ in range(200):
                g = GroupElement([rat(rng, -6, 6) for _ in range(k)])
                if dotted.contains(g):
                    assert all(g < b for b in bounds)

    def test_residue_field_derivation_consistent(self):
        # the residue presentation of the coarse instance is the flat
        # coefficient field with the zero derivation
        K = laurent_tddt_coarse()
        half = coarsen(K, 1)
        R = half.residue_field
        assert R.rank == 1
        assert R.generators[0].name == "s"
        assert not R.generators[0].logder.terms
        assert R.gen("s").derive().is_true_zero()


class TestTruncatedResidue:
    """residue of a truncated series decides on the first k coordinates
    of its tau: positive gives an exact residue, zero a residue truncated
    at the tau's tail, negative an error."""

    def setup_method(self):
        self.M = transseries_fragment(2)
        self.half = coarsen(self.M, 2)
        M = self.M
        self.f = M.gen("l1").scale(3) + M.gen("l2", -1) + M.gen("l0", -1)

    def _residue(self, tau):
        return self.half.residue(self.f.truncated(GroupElement(tau)))

    def test_positive_prefix_gives_an_exact_residue(self):
        R = self.half.residue_field
        expect = R.gen("l1").scale(3) + R.gen("l2", -1)
        # the prefix (0, 1) is positive although its first coordinate is 0
        for tau in ([0, 1, -5, -5], [1, -9, -9, -9], [Fraction(1, 2), 0, 0, 0]):
            got = self._residue(tau)
            assert got == expect
            assert got.tau == INFINITY

    def test_zero_prefix_truncates_at_the_tail(self):
        R = self.half.residue_field
        got = self._residue([0, 0, 2, 1])
        assert got.tau == GroupElement([2, 1])
        assert got.same_terms(R.gen("l1").scale(3) + R.gen("l2", -1))
        got = self._residue([0, 0, -1, 0])
        assert got.tau == GroupElement([-1, 0])
        assert not got.terms

    def test_negative_prefix_is_refused(self):
        for tau in ([0, -1, 9, 9], [-1, 5, 5, 5]):
            with pytest.raises(VdfError, match="truncation has negative dotted part"):
                self._residue(tau)

    def test_prefix_zero_keeps_the_whole_tau(self):
        K = laurent_tddt_coarse()
        tau = GroupElement([2, 0])
        got = coarsen(K, 0).residue(K.gen("s").truncated(tau))
        assert got.tau == tau
