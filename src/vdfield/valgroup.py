"""Lexicographically ordered rational value groups.

Elements of Gamma = Q^n are compared left to right (earlier coordinates
are infinitely more significant).  A coordinate that is an integer is
stored as an int, equal and hash-equal to the Fraction it stands for;
any other is a Fraction.  Convex subgroups of Q^n are exactly the "zero
prefix" subgroups, and every downward-closed subset used by this library
is a prefix cut: membership is decided by comparing a fixed-length
prefix of the coordinates against a bound.

One-sided limits never use numeric epsilons.  Instead an element is
re-embedded in Q^(n+1) with an extra least-significant coordinate, and
the symbolic point "gamma - epsilon" is the embedded gamma with a -1 in
the new coordinate (see :func:`with_infinitesimal`).
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import RankMismatch, VdfError
from .records import FrozenRecord

Rat = Union[int, str, Fraction]


# Per-coordinate templates of the kernels: {0} is a coordinate.
_ADD, _SUB, _NEG = "a[{0}] + b[{0}]", "a[{0}] - b[{0}]", "-a[{0}]"
_SCALE, _FLOOR = "a[{0}] * b", "a[{0}] // b"


@functools.lru_cache(maxsize=None)
def _tuple_kernel(n: int, term: str):
    """lambda a, b=None: the tuple display (term at 0, ..., term at n - 1),
    compiled by eval as namedtuple compiles its __new__, from a length and
    one of the templates above alone: the one path of key, index and value
    arithmetic."""
    return eval("lambda a, b=None: (" + "".join(term.format(i) + ", " for i in range(n)) + ")")


def _frac(x: Rat) -> Fraction:
    """x as a Fraction; the one reader of rationals: an int, a Fraction, or text
    of a sign, decimal digits and a nonzero /denominator, no exponent that
    Fraction would expand (1e999999999).  A float or a bool is refused."""
    if type(x) is not int and not isinstance(x, (Fraction, str)):
        raise TypeError(f"expected an int, Fraction or text, found {type(x).__name__} {x!r}")
    if isinstance(x, str) and not re.fullmatch(r"\s*[+-]?\d+(/\d+)?\s*", x):
        raise ValueError(f"expected a rational, found {x.strip()!r}")
    if isinstance(x, str) and not int(x.partition("/")[2] or 1):
        raise ValueError(f"zero denominator in {x.strip()!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def _coord(x: Rat) -> Union[int, Fraction]:
    """x as a coordinate: an int if x is an integer, else a Fraction."""
    if type(x) is not int and (x := _frac(x)).denominator == 1:
        return x.numerator
    return x


def _order(op):
    """The comparison op of group elements: lexicographic on coords of
    equal rank; +infinity lies above every element."""

    def compare(self, other):
        if other is INFINITY:
            return op(0, 1)  # as a smaller element to a larger one
        self._check_rank(other)
        return op(self.coords, other.coords)

    return compare


class GroupElement:
    """An element of Q^n with the lexicographic order.

    Immutable; supports +, -, unary -, rational scaling, and total
    comparison.  Comparison and arithmetic require equal ranks.  Read
    from an iterable of rationals; text or a dict is refused, not split.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rat]):
        if isinstance(coords, (str, bytes, dict)) or not isinstance(coords, Iterable):
            raise TypeError(f"expected a sequence of rationals, found "
                            f"{type(coords).__name__} {coords!r}")
        _set_coords(self, tuple(map(_coord, coords)))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @staticmethod
    def _raw(coords: tuple, normalized: bool = False) -> "GroupElement":
        """Trusted constructor from ints and Fractions (integral ones become ints;
        normalized=True vouches that none is)."""
        if not normalized and Fraction in map(type, coords):
            coords = tuple(map(_coord, coords))
        out = object.__new__(GroupElement)
        _set_coords(out, coords)
        return out

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check_rank(self, other: "GroupElement") -> None:
        if len(self.coords) != len(other.coords):
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        if other is INFINITY:
            return INFINITY
        self._check_rank(other)
        return GroupElement._raw(_tuple_kernel(len(self.coords), _ADD)(self.coords, other.coords))

    def __sub__(self, other):
        if other is INFINITY:
            raise VdfError("cannot subtract +infinity")
        self._check_rank(other)
        return GroupElement._raw(_tuple_kernel(len(self.coords), _SUB)(self.coords, other.coords))

    def __neg__(self):
        # the negative of a non-integral coordinate is non-integral
        return GroupElement._raw(_tuple_kernel(len(self.coords), _NEG)(self.coords), True)

    def scale(self, q: Rat) -> "GroupElement":
        return GroupElement._raw(_tuple_kernel(len(self.coords), _SCALE)(self.coords, _coord(q)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def first_nonzero(self) -> int:
        """Index of the first nonzero coordinate, or rank for zero."""
        for i, c in enumerate(self.coords):
            if c != 0:
                return i
        return self.rank

    def prefix(self, k: int) -> "GroupElement":
        return GroupElement._raw(self.coords[:k], True)

    def pad(self, rank: int) -> "GroupElement":
        """Embed into Q^rank by appending zeros; identity if already there."""
        if rank < self.rank:
            raise RankMismatch(f"cannot pad rank {self.rank} down to {rank}")
        return GroupElement._raw(self.coords + (0,) * (rank - self.rank), True)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def as_strings(self) -> list:
        return [str(c) for c in self.coords]


@functools.total_ordering
class _Infinity:
    """The +infinity sentinel: valuation of the true zero series.

    Larger than every group element of every rank, so ``min`` over
    values and taus needs no guard; absorbing under addition and under
    subtraction of a group element.  There is a single instance,
    ``INFINITY``.
    """

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return other is INFINITY

    __hash__ = object.__hash__

    def __reduce__(self):
        return "INFINITY"  # copy and pickle give back the one instance

    def __add__(self, other):
        return INFINITY

    __radd__ = __add__
    __sub__ = __add__

    def __neg__(self):
        raise VdfError("cannot negate +infinity")

    def __repr__(self):
        return "+inf"


INFINITY = _Infinity()
_set_coords = GroupElement.coords.__set__  # the slot's setter, past __setattr__'s refusal


def zero(rank: int) -> GroupElement:
    return GroupElement._raw((0,) * rank, True)


def unit(rank: int, position: int, value: Rat = 1) -> GroupElement:
    coords = [0] * rank
    coords[position] = _coord(value)
    return GroupElement._raw(tuple(coords), True)


def lex_cmp(a: GroupElement, b: GroupElement) -> int:
    """Three-way lexicographic comparison: -1, 0, or +1."""
    a._check_rank(b)
    if a.coords == b.coords:
        return 0
    return -1 if a.coords < b.coords else 1


class ConvexSubgroup(FrozenRecord):
    """The convex subgroup {gamma : coords 0..prefix_len-1 all zero} of Q^rank.

    prefix_len 0 is the whole group, prefix_len == rank is {0}.
    """

    _fields = __slots__ = ("ambient_rank", "prefix_len")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for field in self._fields:
            if type(getattr(self, field)) is not int:
                raise VdfError(f"{field} {getattr(self, field)!r} is no int")
        if not 0 <= self.prefix_len <= self.ambient_rank:
            raise VdfError(f"prefix_len {self.prefix_len} outside [0, {self.ambient_rank}]")


EMPTY = "empty"
ALL = "all"
PREFIX = "prefix"


class Cut(FrozenRecord):
    """A downward-closed subset of Q^rank: {gamma : proj_depth(gamma) <
    bound} plus, when inclusive, the whole coset {gamma : proj_depth(gamma)
    = bound}, where depth = len(bound).  The bound is read as a GroupElement
    is, into _coord's normal form, and a depth above the rank is refused.

    The trivial cuts are the depth-0 cuts: the whole group is the
    inclusive one, Cut(rank), and the empty set the exclusive one,
    Cut(rank, (), False).  An inclusive cut of full depth has a maximum
    element; an inclusive cut of smaller depth has a realized top coset
    but no maximum.
    """

    _fields = __slots__ = ("ambient_rank", "bound", "inclusive")
    _defaults = ((), True)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "bound", GroupElement(self.bound).coords)
        for field, kind in ("ambient_rank", int), ("inclusive", bool):
            if type(getattr(self, field)) is not kind:
                raise VdfError(f"{field} {getattr(self, field)!r} is no {kind.__name__}")
        if self.depth > self.ambient_rank:
            raise VdfError(f"cut depth {self.depth} outside [0, {self.ambient_rank}]")

    @property
    def depth(self) -> int:
        return len(self.bound)

    @property
    def kind(self) -> str:
        """The name reports give the cut: "all", "empty" or "prefix"."""
        if self.bound:
            return PREFIX
        return ALL if self.inclusive else EMPTY

    def contains(self, gamma: GroupElement) -> bool:
        if gamma.rank != self.ambient_rank:
            raise RankMismatch(f"rank {gamma.rank} vs cut rank {self.ambient_rank}")
        proj = gamma.coords[: self.depth]
        if proj < self.bound:
            return True
        return self.inclusive and proj == self.bound

    def has_max(self) -> bool:
        return self.inclusive and self.depth == self.ambient_rank

    def max_element(self) -> GroupElement:
        if not self.has_max():
            raise VdfError("cut has no maximum element")
        return GroupElement._raw(self.bound, True)

    def bound_element(self) -> GroupElement:
        """The bound padded with zeros to full rank (a member iff inclusive)."""
        if not self.bound:
            raise VdfError("trivial cuts carry no bound")
        return GroupElement._raw(self.bound, True).pad(self.ambient_rank)

    def shift_by_prefix(self, delta: GroupElement) -> "Cut":
        """The cut translated by -delta (the cut of the conjugated field),
        using only the first `depth` coordinates of delta."""
        if delta.rank != self.ambient_rank:
            raise RankMismatch(f"rank {delta.rank} vs cut rank {self.ambient_rank}")
        bound = _tuple_kernel(self.depth, _SUB)(self.bound, delta.coords)
        return Cut(self.ambient_rank, bound, self.inclusive)

    def __repr__(self):
        if not self.bound:
            return f"Cut({self.kind}, rank {self.ambient_rank})"
        op = "<=" if self.inclusive else "<"
        b = "(" + ", ".join(str(c) for c in self.bound) + ")"
        return f"Cut(proj_{self.depth} {op} {b}, rank {self.ambient_rank})"


def cut_contains(cut: Cut, gamma: GroupElement) -> bool:
    return cut.contains(gamma)


def cut_stabilizer(cut: Cut) -> ConvexSubgroup:
    """The largest convex subgroup Delta with cut + delta = cut for all
    delta in Delta.

    A cut of depth k is fixed exactly by translations that leave its
    first k coordinates alone: any translation touching a coordinate
    below k moves some boundary element across the bound.  The trivial
    cuts, of depth 0, are fixed by everything.
    """
    return ConvexSubgroup(cut.ambient_rank, cut.depth)


def quotient_map(gamma: GroupElement, delta: ConvexSubgroup) -> GroupElement:
    """Projection Gamma -> Gamma/Delta, realized as the first prefix_len
    coordinates.  Additive and weakly order-preserving."""
    if gamma.rank != delta.ambient_rank:
        raise RankMismatch(f"rank {gamma.rank} vs {delta.ambient_rank}")
    return gamma.prefix(delta.prefix_len)


def with_infinitesimal(gamma: GroupElement, sign: str) -> GroupElement:
    """gamma -+ epsilon as an element of Q^(n+1).

    Appends -1 (sign "below") or +1 (sign "above") as a new least
    significant coordinate.  Rank-n elements embed by appending 0, and
    the embedding preserves order; the returned element sits strictly
    between the embeddings of everything below/above gamma.
    """
    if sign not in ("below", "above"):
        raise VdfError(f"sign must be 'below' or 'above', got {sign!r}")
    step = -1 if sign == "below" else 1
    return GroupElement._raw(gamma.coords + (step,), True)
