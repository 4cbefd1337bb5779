import copy
import operator
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_normal
from vdfield.errors import RankMismatch, VdfError
from vdfield.valgroup import (
    ConvexSubgroup,
    Cut,
    GroupElement,
    INFINITY,
    _frac,
    cut_contains,
    cut_stabilizer,
    lex_cmp,
    quotient_map,
    unit,
    with_infinitesimal,
    zero,
)

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def elements(rank):
    return st.lists(fracs, min_size=rank, max_size=rank).map(GroupElement)


class TestArithmetic:
    """+, -, unary - and scale, on the compiled per-length kernels, equal
    coordinate-wise Fraction arithmetic; an integral coordinate is an int."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20).flatmap(lambda n: st.tuples(elements(n), elements(n))), fracs)
    def test_coordinatewise(self, pair, q):
        a, b = pair
        for got, want in ((a + b, [x + y for x, y in zip(a.coords, b.coords)]),
                          (a - b, [x - y for x, y in zip(a.coords, b.coords)]),
                          (-a, [-x for x in a.coords]),
                          (a.scale(q), [x * q for x in a.coords])):
            assert got.coords == tuple(want)
            assert [type(x) for x in got.coords] \
                == [int if Fraction(x).denominator == 1 else Fraction for x in want]

    def test_integral_results_are_ints(self):
        a = GroupElement([Fraction(1, 2), 3, Fraction(-2, 3)])
        b = GroupElement([Fraction(1, 2), 1, Fraction(1, 3)])
        for got, want, types in (
                (a + b, (1, 4, Fraction(-1, 3)), (int, int, Fraction)),
                (a - b, (0, 2, -1), (int, int, int)),
                (-a, (Fraction(-1, 2), -3, Fraction(2, 3)), (Fraction, int, Fraction)),
                (-(a + b), (-1, -4, Fraction(1, 3)), (int, int, Fraction)),
                (a.scale(2), (1, 6, Fraction(-4, 3)), (int, int, Fraction)),
                (a.scale(Fraction(3, 2)), (Fraction(3, 4), Fraction(9, 2), -1),
                 (Fraction, Fraction, int)),
                (a.scale(Fraction(6)), (3, 18, -4), (int, int, int))):
            assert got.coords == want
            assert tuple(map(type, got.coords)) == types

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            GroupElement([1]) + GroupElement([1, 2])
        with pytest.raises(RankMismatch):
            GroupElement([1, 2]) - GroupElement([1])

    def test_immutable(self):
        a = GroupElement([1, Fraction(1, 2)])
        with pytest.raises(AttributeError):
            a.coords = (0, 0)
        assert (a + a).coords == (2, 1) and type((a + a).coords[1]) is int


class TestLexOrder:
    def test_identity(self):
        assert lex_cmp(GroupElement([0, 0]), GroupElement([0, 0])) == 0

    def test_dominance(self):
        assert lex_cmp(GroupElement([1, -5]), GroupElement([0, 100])) == 1

    def test_second_coordinate(self):
        a = GroupElement([0, Fraction(1, 2)])
        b = GroupElement([0, Fraction(1, 3)])
        assert lex_cmp(a, b) == 1

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            lex_cmp(GroupElement([1]), GroupElement([1, 2]))

    @given(elements(3), elements(3), elements(3))
    def test_total_order_transitive(self, a, b, c):
        assert (a < b) or (b < a) or a == b
        if a < b and b < c:
            assert a < c

    @given(elements(3), elements(3))
    def test_antisymmetric(self, a, b):
        if a < b:
            assert not b < a

    @given(elements(2), elements(2), elements(2))
    def test_translation_invariance(self, a, b, c):
        if a < b:
            assert a + c < b + c

    @given(elements(2), st.integers(-5, 5).filter(lambda q: q != 0))
    def test_scaling_sign(self, a, q):
        if a > zero(2):
            assert (a.scale(q) > zero(2)) == (q > 0)

    def test_infinity(self):
        g = GroupElement([100, 100])
        assert g < INFINITY and INFINITY > g
        assert INFINITY + g is INFINITY
        assert INFINITY == INFINITY

    # [INFINITY < other, <=, >, >=]: +infinity lies above every element and
    # every int, and equals only itself
    @pytest.mark.parametrize("other, want", [(GroupElement([100, -3]), [False, False, True, True]),
                                             (INFINITY, [False, True, False, True]),
                                             (5, [False, False, True, True])])
    def test_infinity_orders_against_an_element_itself_and_an_int(self, other, want):
        ops = (operator.lt, operator.le, operator.gt, operator.ge)
        assert [op(INFINITY, other) for op in ops] == want
        # the reflected order: other < INFINITY is INFINITY > other, and so on
        assert [op(other, INFINITY) for op in ops] == want[2:] + want[:2]

    def test_infinity_is_one_instance_through_copy_and_pickle(self):
        assert copy.copy(INFINITY) is INFINITY
        assert copy.deepcopy([INFINITY])[0] is INFINITY
        assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY
        assert hash(INFINITY) == hash(copy.copy(INFINITY))

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_an_element_is_not_infinity_in_either_order(self, rank):
        # GroupElement.__eq__ leaves INFINITY to _Infinity.__eq__
        g = zero(rank)
        assert (g == INFINITY) is False and (INFINITY == g) is False
        assert (g != INFINITY) is True and (INFINITY != g) is True

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @given(data=st.data())
    def test_infinity_tops_and_absorbs_at_every_rank(self, rank, data):
        # what lets min, + and - run on taus without an INFINITY guard
        g = data.draw(elements(rank))
        assert g + INFINITY is INFINITY and INFINITY + g is INFINITY
        assert INFINITY - g is INFINITY
        assert min(g, INFINITY) == g and min(INFINITY, g) == g
        assert INFINITY >= g and not INFINITY <= g
        assert min((), default=INFINITY) is INFINITY

    def test_subtracting_infinity_is_refused(self):
        # g - inf would be -inf, which the value algebra does not have,
        # so it is refused like -INFINITY
        g = GroupElement([1, 2])
        with pytest.raises(VdfError, match="subtract"):
            g - INFINITY
        with pytest.raises(VdfError):
            -INFINITY


class TestCuts:
    def test_prefix_membership(self):
        c = Cut(2, (0,), inclusive=True)
        assert cut_contains(c, GroupElement([0, 7]))
        assert not cut_contains(c, GroupElement([1, -99]))

    def test_all_contains_everything(self):
        c = Cut(2)
        assert cut_contains(c, GroupElement([999, -999]))

    def test_bound_membership_below(self):
        # below(bound) belongs to the exclusive cut at the bound, seen in
        # the extended group
        b = GroupElement([0])
        excl = Cut(2, b.pad(2).coords, inclusive=False)
        assert cut_contains(excl, with_infinitesimal(b, "below"))
        assert not cut_contains(excl, b.pad(2))

    @given(elements(3), elements(3))
    @settings(max_examples=200)
    def test_downward_closed(self, gamma, delta):
        cut = Cut(3, (1, Fraction(-1, 2)), inclusive=True)
        if delta <= gamma and cut.contains(gamma):
            assert cut.contains(delta)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_trivial_cuts_are_the_depth_0_cuts(self, rank, rng):
        whole, empty = Cut(rank), Cut(rank, (), False)
        assert (whole.kind, empty.kind) == ("all", "empty")
        assert whole.depth == empty.depth == 0
        assert Cut(rank, (0,)).kind == "prefix"
        for _ in range(50):
            g = GroupElement([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                              for _ in range(rank)])
            assert whole.contains(g) and not empty.contains(g)
            assert whole.shift_by_prefix(g) == whole
            assert empty.shift_by_prefix(g) == empty
        for cut in (whole, empty):
            assert not cut.has_max()
            with pytest.raises(VdfError):
                cut.bound_element()

    def test_the_constructor_normalizes_the_bound(self):
        # any iterable of rationals, by position or keyword, in _coord's normal form
        want = Cut(2, (1, Fraction(-1, 2)))
        for cut in (Cut(2, [Fraction(1), "-1/2"]),
                    Cut(ambient_rank=2, bound=iter([1, Fraction(-1, 2)]), inclusive=True)):
            assert cut == want and hash(cut) == hash(want)
            assert type(cut.bound) is tuple and list(map(type, cut.bound)) == [int, Fraction]
        shifted = Cut(2, (Fraction(1, 2),), False).shift_by_prefix(GroupElement([Fraction(-1, 2), 5]))
        assert shifted == Cut(2, (1,), False) and type(shifted.bound[0]) is int

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_a_depth_above_the_rank_is_refused(self, rank):
        # the trivial depth-0 cuts stay legal, at rank 0 too
        assert Cut(rank).depth == Cut(rank, (), False).depth == 0
        assert Cut(rank, (0,) * rank).depth == rank
        with pytest.raises(VdfError, match=rf"^cut depth {rank + 1} outside \[0, {rank}\]$"):
            Cut(rank, (0,) * (rank + 1))

    @pytest.mark.parametrize("rank", [0, 2, 4])
    def test_shift_by_prefix_refuses_a_delta_of_another_rank(self, rank):
        # shorter or longer, as contains refuses one
        cut = Cut(3, (1, 2))
        with pytest.raises(RankMismatch, match=rf"^rank {rank} vs cut rank 3$"):
            cut.shift_by_prefix(GroupElement([1] * rank))
        assert cut.shift_by_prefix(GroupElement([1, 2, 3])) == Cut(3, (0, 0))

    @pytest.mark.parametrize("build, message", [
        (lambda: Cut(2.5), "ambient_rank 2.5 is no int"),
        (lambda: Cut(True, (1,)), "ambient_rank True is no int"),
        (lambda: Cut("2"), "ambient_rank '2' is no int"),
        (lambda: Cut(2, (1,), 0), "inclusive 0 is no bool"),
        (lambda: Cut(1, (1,), "no"), "inclusive 'no' is no bool"),
        (lambda: Cut(ambient_rank=2, inclusive=None), "inclusive None is no bool"),
        (lambda: ConvexSubgroup(2.5, 1), "ambient_rank 2.5 is no int"),
        (lambda: ConvexSubgroup(2, True), "prefix_len True is no int"),
        (lambda: ConvexSubgroup(prefix_len=Fraction(1), ambient_rank=2),
         r"prefix_len Fraction\(1, 1\) is no int"),
    ], ids=["cut-float-rank", "cut-bool-rank", "cut-str-rank", "cut-int-inclusive",
            "cut-str-inclusive", "cut-none-inclusive", "convex-float-rank", "convex-bool-prefix",
            "convex-fraction-prefix"])
    def test_a_field_of_the_wrong_type_is_refused_by_name(self, build, message):
        # a bool is no int here, and an int no bool
        with pytest.raises(VdfError, match=rf"^{message}$"):
            build()

    def test_max_element(self):
        full = Cut(2, (0, 0), inclusive=True)
        assert full.has_max() and full.max_element() == zero(2)
        assert not Cut(2, (0,), inclusive=True).has_max()
        assert not Cut(2, (0, 0), inclusive=False).has_max()


def brute_force_stabilizer(cut, rank, rng, samples=200):
    """Largest prefix subgroup whose sampled translations fix the cut."""
    best = rank
    for k in range(rank, -1, -1):
        ok = True
        for _ in range(samples):
            delta_coords = [Fraction(0)] * rank
            for j in range(k, rank):
                delta_coords[j] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            delta = GroupElement(delta_coords)
            gamma = GroupElement(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
            )
            if cut.contains(gamma) != cut.contains(gamma + delta):
                ok = False
                break
            # boundary probes are where translations show
            if cut.kind == "prefix":
                b = cut.bound_element()
                if cut.contains(b + delta) != cut.contains(b):
                    ok = False
                    break
        if ok:
            best = k
        else:
            break
    return best


class TestStabilizer:
    def test_full_rank_inclusive(self, rng):
        cut = Cut(2, (0, 0), inclusive=True)
        assert cut_stabilizer(cut).prefix_len == 2
        assert brute_force_stabilizer(cut, 2, rng) == 2

    def test_shallow_inclusive(self, rng):
        cut = Cut(2, (0,), inclusive=True)
        assert cut_stabilizer(cut).prefix_len == 1
        assert brute_force_stabilizer(cut, 2, rng) == 1

    def test_full_rank_exclusive(self, rng):
        cut = Cut(2, (0, 0), inclusive=False)
        assert cut_stabilizer(cut).prefix_len == 2
        assert brute_force_stabilizer(cut, 2, rng) == 2

    def test_trivial_cuts_fixed_by_everything(self):
        assert cut_stabilizer(Cut(3)).prefix_len == 0
        assert cut_stabilizer(Cut(3, (), False)).prefix_len == 0

    def test_sampled_invariance_and_counterexample(self, rng):
        cut = Cut(3, (1, Fraction(1, 2)), inclusive=True)
        delta_grp = cut_stabilizer(cut)
        assert delta_grp.prefix_len == 2
        for _ in range(200):
            d = GroupElement(
                [0, 0, Fraction(rng.randint(-9, 9), rng.randint(1, 4))]
            )
            assert quotient_map(d, delta_grp).is_zero()
            g = GroupElement(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            )
            assert cut.contains(g) == cut.contains(g + d)
        # every strictly larger prefix subgroup moves the boundary
        bigger = ConvexSubgroup(3, 1)
        b = cut.bound_element()
        moved = GroupElement([0, Fraction(1, 7), 0])
        assert quotient_map(moved, bigger).is_zero()
        assert cut.contains(b) != cut.contains(b + moved)


class TestQuotient:
    def test_projection(self):
        d = ConvexSubgroup(2, 1)
        assert quotient_map(GroupElement([3, Fraction(1, 2)]), d) == GroupElement([3])
        assert quotient_map(GroupElement([0, 9]), d) == GroupElement([0])

    def test_trivial_subgroup(self):
        d = ConvexSubgroup(2, 2)
        g = GroupElement([5, -7])
        assert quotient_map(g, d) == g

    @given(elements(3), elements(3))
    def test_homomorphism_and_monotone(self, a, b):
        d = ConvexSubgroup(3, 2)
        pa, pb = quotient_map(a, d), quotient_map(b, d)
        assert quotient_map(a + b, d) == pa + pb
        if a <= b:
            assert pa <= pb


class TestInfinitesimal:
    def test_below(self):
        g = with_infinitesimal(GroupElement([0]), "below")
        assert g == GroupElement([0, -1])
        assert g < GroupElement([0, 0])

    def test_above_still_below_larger(self):
        g = with_infinitesimal(GroupElement([-1]), "above")
        assert g < GroupElement([0]).pad(2)

    @given(elements(2), elements(2))
    def test_order_extends_embedding(self, a, b):
        ea, eb = a.pad(3), b.pad(3)
        assert (a < b) == (ea < eb)
        if a <= b:
            assert with_infinitesimal(a, "below") < eb or a == b
            assert with_infinitesimal(a, "below") < with_infinitesimal(b, "above")


class TestNormalForm:
    """The elements built from another element's coordinates or from ints
    skip normalization; each still has the coordinates of GroupElement(coords)."""

    @given(gamma=st.integers(0, 6).flatmap(elements), extra=st.integers(0, 3), data=st.data())
    def test_derived_elements(self, gamma, extra, data):
        n = gamma.rank
        k = data.draw(st.integers(0, n))
        for v, want in ((gamma.prefix(k), gamma.coords[:k]),
                        (gamma.pad(n + extra), gamma.coords + (0,) * extra),
                        (with_infinitesimal(gamma, "below"), gamma.coords + (-1,)),
                        (with_infinitesimal(gamma, "above"), gamma.coords + (1,)),
                        (zero(n + extra), (0,) * (n + extra))):
            assert_normal(v)
            assert v.coords == want

    @pytest.mark.parametrize("value", [2, Fraction(2), "4/2"])
    @pytest.mark.parametrize("rank, position", [(1, 0), (3, 0), (3, 2)])
    def test_unit(self, rank, position, value):
        v = unit(rank, position, value)
        assert_normal(v)
        assert v.coords == tuple(2 if j == position else 0 for j in range(rank))
        assert type(v.coords[position]) is int
        assert unit(rank, position, "-3/2").coords[position] == Fraction(-3, 2)

    def test_a_cut_bound_of_integral_fractions(self):
        cut = Cut(2, (Fraction(1), Fraction(0)))
        for v in (cut.max_element(), cut.bound_element()):
            assert v.coords == (1, 0)
            assert list(map(type, v.coords)) == [int, int]


class TestExactInput:
    """valgroup._frac, the one reader of rationals, takes an int, a Fraction
    or rational text.  A float would enter as its binary fraction (0.1 as
    3602879701896397/36028797018963968) and a bool as 0 or 1: both are
    refused, with the type named, at every path into a coordinate."""

    @pytest.mark.parametrize("x, name", [(0.1, "float"), (0.5, "float"), (2.0, "float"),
                                         (True, "bool"), (False, "bool"), (None, "NoneType")])
    def test_floats_and_bools_are_refused(self, x, name):
        for build in (lambda: _frac(x), lambda: GroupElement([0, x]), lambda: unit(2, 1, x),
                      lambda: zero(2).scale(x), lambda: Cut(2, (x,))):
            with pytest.raises(TypeError, match=rf"^expected an int, Fraction or text, found {name} "):
                build()

    @pytest.mark.parametrize("x, shown", [
        ("10", "str '10'"), (b"10", "bytes b'10'"), ({"1": 0}, "dict {'1': 0}"), (5, "int 5"),
        (Fraction(1, 2), "Fraction Fraction(1, 2)"), (None, "NoneType None")])
    def test_a_vector_is_no_text_and_no_number(self, x, shown):
        # GroupElement is the one reader of vectors: text was split into its
        # characters ("10" as (1, 0)) and a number raised a bare TypeError
        for build in (lambda: GroupElement(x), lambda: Cut(2, x)):
            with pytest.raises(TypeError,
                               match=f"^expected a sequence of rationals, found {re.escape(shown)}$"):
                build()

    def test_exact_input_is_read(self):
        assert GroupElement([1, Fraction(1, 2), "-3/4", " 6/3 "]).coords == (
            1, Fraction(1, 2), Fraction(-3, 4), 2)
        assert [type(_frac(x)) for x in (3, Fraction(1, 3), "5")] == [Fraction] * 3
