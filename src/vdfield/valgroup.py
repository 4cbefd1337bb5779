"""Lexicographically ordered rational value groups.

Elements of Gamma = Q^n are compared left to right (earlier coordinates
are infinitely more significant).  Convex subgroups of Q^n are exactly
the "zero prefix" subgroups, and every downward-closed subset used by
this library is a prefix cut: membership is decided by comparing a
fixed-length prefix of the coordinates against a bound.

One-sided limits never use numeric epsilons.  Instead an element is
re-embedded in Q^(n+1) with an extra least-significant coordinate, and
the symbolic point "gamma - epsilon" is the embedded gamma with a -1 in
the new coordinate (see :func:`with_infinitesimal`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import RankMismatch, VdfError
from .records import FrozenRecord

Rat = Union[int, str, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class GroupElement:
    """An element of Q^n with the lexicographic order.

    Immutable; supports +, -, unary -, rational scaling, and total
    comparison.  Comparison and arithmetic require equal ranks.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rat]):
        object.__setattr__(self, "coords", tuple(_frac(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @staticmethod
    def _raw(coords: tuple) -> "GroupElement":
        """Trusted constructor: coords is already a tuple of Fractions."""
        out = object.__new__(GroupElement)
        object.__setattr__(out, "coords", coords)
        return out

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check_rank(self, other: "GroupElement") -> None:
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        if other is INFINITY:
            return INFINITY
        self._check_rank(other)
        return GroupElement._raw(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        if other is INFINITY:
            raise VdfError("cannot subtract +infinity")
        self._check_rank(other)
        return GroupElement._raw(
            tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return GroupElement._raw(tuple(-a for a in self.coords))

    def scale(self, q: Rat) -> "GroupElement":
        q = _frac(q)
        return GroupElement._raw(tuple(q * a for a in self.coords))

    def __mul__(self, q: Rat):
        return self.scale(q)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def first_nonzero(self) -> int:
        """Index of the first nonzero coordinate, or rank for zero."""
        for i, c in enumerate(self.coords):
            if c != 0:
                return i
        return self.rank

    def prefix(self, k: int) -> "GroupElement":
        return GroupElement(self.coords[:k])

    def concat(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.coords + other.coords)

    def pad(self, rank: int) -> "GroupElement":
        """Embed into Q^rank by appending zeros; identity if already there."""
        if rank < self.rank:
            raise RankMismatch(f"cannot pad rank {self.rank} down to {rank}")
        return GroupElement(self.coords + (Fraction(0),) * (rank - self.rank))

    def __eq__(self, other):
        if other is INFINITY:
            return False
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        if other is INFINITY:
            return True
        self._check_rank(other)
        return self.coords < other.coords

    def __le__(self, other):
        if other is INFINITY:
            return True
        self._check_rank(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        if other is INFINITY:
            return False
        self._check_rank(other)
        return self.coords > other.coords

    def __ge__(self, other):
        if other is INFINITY:
            return False
        self._check_rank(other)
        return self.coords >= other.coords

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def as_strings(self) -> list:
        return [str(c) for c in self.coords]


class _Infinity:
    """The +infinity sentinel: valuation of the true zero series.

    Larger than every group element of every rank, so ``min`` over
    values and taus needs no guard; absorbing under addition and under
    subtraction of a group element.  There is a single instance,
    ``INFINITY``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INFINITY

    def __hash__(self):
        return hash("vdfield-infinity")

    def __add__(self, other):
        return INFINITY

    __radd__ = __add__
    __sub__ = __add__

    def __neg__(self):
        raise VdfError("cannot negate +infinity")

    def __repr__(self):
        return "+inf"


INFINITY = _Infinity()


def zero(rank: int) -> GroupElement:
    return GroupElement([Fraction(0)] * rank)


def unit(rank: int, position: int, value: Rat = 1) -> GroupElement:
    coords = [Fraction(0)] * rank
    coords[position] = _frac(value)
    return GroupElement(coords)


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

    def __init__(self, ambient_rank: int, prefix_len: int):
        if not 0 <= prefix_len <= ambient_rank:
            raise VdfError(f"prefix_len {prefix_len} outside [0, {ambient_rank}]")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "prefix_len", prefix_len)

    def contains(self, gamma: GroupElement) -> bool:
        if gamma.rank != self.ambient_rank:
            raise RankMismatch(f"rank {gamma.rank} vs {self.ambient_rank}")
        return all(c == 0 for c in gamma.coords[: self.prefix_len])


EMPTY = "empty"
ALL = "all"
PREFIX = "prefix"


class Cut(FrozenRecord):
    """A downward-closed subset of Q^rank: {gamma : proj_depth(gamma) <
    bound} plus, when inclusive, the whole coset {gamma : proj_depth(gamma)
    = bound}, where depth = len(bound).

    The trivial cuts are the depth-0 cuts: the whole group is the
    inclusive one and the empty set the exclusive one.  An inclusive cut
    of full depth has a maximum element; an inclusive cut of smaller
    depth has a realized top coset but no maximum.
    """

    _fields = __slots__ = ("ambient_rank", "bound", "inclusive")

    def __init__(self, ambient_rank: int, bound: tuple = (), inclusive: bool = True):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "inclusive", inclusive)

    @staticmethod
    def all_of(rank: int) -> "Cut":
        return Cut(rank)

    @staticmethod
    def empty(rank: int) -> "Cut":
        return Cut(rank, (), False)

    @staticmethod
    def prefix(rank: int, bound: Sequence[Rat], inclusive: bool = True) -> "Cut":
        bound = tuple(_frac(b) for b in bound)
        if not 1 <= len(bound) <= rank:
            raise VdfError(f"cut depth {len(bound)} outside [1, {rank}]")
        return Cut(rank, bound, inclusive)

    @staticmethod
    def below(bound: GroupElement, inclusive: bool = True) -> "Cut":
        """The full-depth cut {gamma <= bound} (or < for exclusive)."""
        return Cut.prefix(bound.rank, bound.coords, inclusive)

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
        return GroupElement(self.bound)

    def bound_element(self) -> GroupElement:
        """The bound padded with zeros to full rank (a member iff inclusive)."""
        if not self.bound:
            raise VdfError("trivial cuts carry no bound")
        return GroupElement(self.bound).pad(self.ambient_rank)

    def shift_by_prefix(self, delta: GroupElement) -> "Cut":
        """The cut translated by -delta (the cut of the conjugated field),
        using only the first `depth` coordinates of delta."""
        bound = tuple(b - d for b, d in zip(self.bound, delta.coords))
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
    step = Fraction(-1) if sign == "below" else Fraction(1)
    return GroupElement(gamma.coords + (step,))
