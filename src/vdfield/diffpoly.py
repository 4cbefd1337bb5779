"""Sparse differential polynomials over a grid field.

A polynomial of order r is a finite map from multi-indices
i = (i_0, ..., i_r) to nonzero coefficient series; the monomial of
index i is Y^(i_0) * (Y')^(i_1) * ... * (Y^(r))^(i_r).  Degree |i| is
the sum of the entries, weight ||i|| is sum of j * i_j.

The three conjugations (additive, multiplicative, compositional) are
all instances of one substitution morphism: each variable Y^(j) is
replaced by an affine expression in the variables, and the polynomial
is re-expanded on term lists, with one collect per product.  The
compositional images use the universal kernel polynomials F(n, k) over
Q, generated by the recursion

    F(n+1, k) = F(n, k)' + X * F(n, k-1),  F(0,0) = 1, F(n,0) = 0 (n>=1),

which express n-th derivatives in terms of the twisted derivation of a
conjugated field.
"""

from __future__ import annotations

import functools
import math
import threading
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import IndeterminateValuation, VdfError
from .gridseries import _ADD, FieldInstance, Series, _lattice_key, _sum_series, _tuple_kernel
from .records import Record
from .valgroup import GroupElement

MultiIndex = Tuple[int, ...]


def mi_degree(i: MultiIndex) -> int:
    return sum(i)


def mi_weight(i: MultiIndex) -> int:
    return sum(j * ij for j, ij in enumerate(i))


def y_mark(j: int) -> str:
    """The text of Y^(j): Y, Y', Y'', Y''', then Y^(4), Y^(5), ..."""
    return "Y" + "'" * j if j <= 3 else f"Y^({j})"


def _pad(i: MultiIndex, order: int) -> MultiIndex:
    """i with order + 1 entries: zeros appended, or zero entries trimmed
    from the end.  An index with a nonzero entry beyond order keeps its
    length, so it names no monomial of that order."""
    n = order + 1
    if len(i) > n and not any(i[n:]):
        return tuple(i[:n])
    return tuple(i) + (0,) * (n - len(i))


def _order_of(indices: Iterable[MultiIndex]) -> int:
    """The largest j with a nonzero entry i_j over the indices (0 if none)."""
    return max((j for i in indices for j, ij in enumerate(i) if ij), default=0)


def _collect(field: FieldInstance,
             pairs: Iterable[Tuple[MultiIndex, Series]]) -> Dict[MultiIndex, Series]:
    """The term map of the coefficient terms (index, c), whose indices
    already have one length: the coefficients of equal indices summed
    by one gridseries._sum_series, zero sums dropped.  These are the
    terms of folding them with +, without a copy of the term map per step."""
    groups: Dict[MultiIndex, List[Series]] = {}
    for i, c in pairs:
        groups.setdefault(i, []).append(c)
    out: Dict[MultiIndex, Series] = {}
    for i, cs in groups.items():
        c = _sum_series(field, cs)
        if not c.is_true_zero():
            out[i] = c
    return out


def _products(left: Iterable, right: Iterable, order: int) -> Iterator[Tuple[MultiIndex, Series]]:
    """The terms (i + j, c * d) of two term lists of indices of order + 1 entries."""
    add = _tuple_kernel(order + 1, _ADD)
    return ((add(i, j), c * d) for i, c in left for j, d in right)


def _padded(terms: Dict[MultiIndex, Series], order: int) -> List[Tuple[MultiIndex, Series]]:
    return [(_pad(i, order), c) for i, c in terms.items()]


def _sum_terms(field: FieldInstance, pairs: Iterable[Tuple[MultiIndex, Series]],
               order: int) -> "DiffPoly":
    """The polynomial sum of coefficient terms (index, c) of order + 1 entries."""
    P = DiffPoly(field, {}, order)
    P.terms = _collect(field, pairs)
    return P


class DiffPoly:
    """A differential polynomial with Series coefficients."""

    __slots__ = ("field", "order", "terms")

    def __init__(self, field: FieldInstance, terms: Dict[MultiIndex, Series],
                 order: Optional[int] = None):
        if order is None:
            order = _order_of(terms)
        pairs = _padded(terms, order)
        for i, _ in pairs:
            if len(i) > order + 1:
                raise VdfError(f"index {i} has an entry beyond order {order}")
        self.field = field
        self.order = order
        self.terms = _collect(field, pairs)

    @staticmethod
    def from_coeff(field: FieldInstance, coeff: Series) -> "DiffPoly":
        return DiffPoly(field, {(): coeff})

    @staticmethod
    def variable(field: FieldInstance, j: int = 0) -> "DiffPoly":
        """The polynomial Y^(j)."""
        return DiffPoly(field, {_unit_index(j, j): field.one()}, order=j)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: MultiIndex) -> Series:
        return self.terms.get(_pad(i, self.order), self.field.zero_series())

    # -- ring structure ------------------------------------------------

    def _align(self, other: "DiffPoly") -> int:
        if self.field is not other.field:
            raise VdfError("polynomials over different field instances")
        return max(self.order, other.order)

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        order = self._align(other)
        return _sum_terms(self.field, chain(_padded(self.terms, order),
                                            _padded(other.terms, order)), order)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(self.field, {i: -c for i, c in self.terms.items()}, self.order)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        order = self._align(other)
        return _sum_terms(self.field, _products(_padded(self.terms, order),
                                                _padded(other.terms, order), order), order)

    def embed_into(self, other: FieldInstance) -> "DiffPoly":
        return DiffPoly(other, {i: c.embed_into(other) for i, c in self.terms.items()},
                        self.order)

    def __eq__(self, other):
        return (
            isinstance(other, DiffPoly)
            and self.field is other.field
            and self._normal_terms() == other._normal_terms()
        )

    def _normal_terms(self):
        r = _order_of(self.terms)
        return {tuple(i[: r + 1]): c for i, c in self.terms.items()}

    def formal_derivative(self) -> "DiffPoly":
        """Total derivative: coefficients are derived and each variable
        Y^(j) steps to Y^(j+1) by the product rule."""
        order = self.order + 1
        pairs = []
        for i, c in self.terms.items():
            i = _pad(i, order)
            pairs.append((i, c.derive()))
            for j, ij in enumerate(i):
                if ij == 0:
                    continue
                bumped = list(i)
                bumped[j] -= 1
                bumped[j + 1] += 1
                pairs.append((tuple(bumped), c.scale(ij)))
        return _sum_terms(self.field, pairs, order)

    def __repr__(self):
        if not self.terms:
            return "DiffPoly(0)"
        parts = []
        for i in sorted(self.terms):
            factors = []
            for j, ij in enumerate(i):
                if ij == 0:
                    continue
                factors.append(y_mark(j) if ij == 1 else f"{y_mark(j)}^{ij}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({self.terms[i]})*{mono}")
        return " + ".join(parts)


# -- the certified min-plus argmin ---------------------------------------------


def known_split(P: DiffPoly) -> Tuple[list, list]:
    """The terms (i, P_i) of P where a term of P_i is known, and pairs
    (i, tau_i) where none is.  Raises on the zero polynomial, and
    IndeterminateValuation when no term is known."""
    if P.is_zero():
        raise VdfError("the zero polynomial has no dominant or tropical data")
    known = [(i, c) for i, c in P.terms.items() if c.terms]
    if not known:
        raise IndeterminateValuation("no coefficient has a known term")
    return known, [(i, c.tau) for i, c in P.terms.items() if not c.terms]


def tropical_argmin(P: DiffPoly, key_of=lambda k, w, d: k,
                    data: GroupElement = GroupElement(())) -> List[MultiIndex]:
    """The indices i of the coefficients P_i with a known term that reach
    the least key_of(k, ||i||, d): k is v(P_i) and d is data, each as a
    lattice key of ints over L, the lcm of all their dens, so a key_of that
    scales each block of a lexicographic value key by L keeps its order.

    Certified against truncation: raises IndeterminateValuation unless
    the least key lies strictly below key_of(_lattice_key(tau, L), ||i||, d)
    for every coefficient known only modulo its tau.  At the key v this is
    the gaussian valuation; newton evaluates it at tropical keys.
    """
    known, unknown = known_split(P)
    L = math.lcm(*[x.denominator for x in data.coords], *[c.den for _, c in known])
    d, scale = _lattice_key(data, L), P.field._scale
    best, argmin = None, []
    for i, c in known:
        k = min(c.terms)
        key = key_of(k if c.den == L else scale(k, L // c.den), mi_weight(i), d)
        if best is None or key < best:
            best, argmin = key, [i]
        elif key == best:
            argmin.append(i)
    for i, tau in unknown:
        if not best < key_of(_lattice_key(tau, L), mi_weight(i), d):
            raise IndeterminateValuation(
                f"a coefficient known only modulo {tau} could reach the minimum"
            )
    return argmin


def gauss_val(P: DiffPoly) -> GroupElement:
    """min over the support of the coefficient valuations, certified
    against truncation by tropical_argmin."""
    return P.terms[tropical_argmin(P)[0]].valuation()


class DominantData(Record):
    """Valuation-minimal slice of a differential polynomial."""

    _fields = __slots__ = ("ddeg", "dwt", "D", "W", "dominant_part")


def dominant(P: DiffPoly) -> DominantData:
    """Dominant degree/weight, the parts D(P) and W(P), and the residue
    coefficients of the dominant part."""
    argmin = tropical_argmin(P)
    dd, dw = max(map(mi_degree, argmin)), max(map(mi_weight, argmin))
    D, W = DiffPoly(P.field, {}, P.order), DiffPoly(P.field, {}, P.order)
    D.terms = {i: P.terms[i] for i in argmin}  # P's own indices: no pad, no check
    W.terms = {i: c for i, c in D.terms.items() if mi_weight(i) == dw}
    part = {i: P.terms[i].dominant_term()[0] for i in argmin}
    return DominantData(dd, dw, D, W, part)


def ddeg(P: DiffPoly) -> int:
    return max(map(mi_degree, tropical_argmin(P)))


# -- the compositional kernel -------------------------------------------------

@functools.lru_cache(maxsize=None)
def rational_field() -> FieldInstance:
    """The rank-0 field: plain rationals with the zero derivation."""
    return FieldInstance(0, [], name="Q")


_fnk_lock = threading.Lock()
_fnk_memo: Dict[Tuple[int, int], DiffPoly] = {}


def fnk(n: int, k: int) -> DiffPoly:
    """The universal kernel polynomial F(n, k) over Q.

    F(0,0) = 1; F(n,0) = 0 for n >= 1; and
    F(n+1, k) = F(n, k)' + X * F(n, k-1).
    The memo table is an idempotent cache: concurrent recomputation of
    an entry writes identical values.
    """
    if k < 0 or k > n:
        raise VdfError(f"fnk requires 0 <= k <= n, got ({n}, {k})")
    return _fnk(n, k)


def _fnk(n: int, k: int) -> DiffPoly:
    Q = rational_field()
    if k > n:
        return DiffPoly(Q, {})
    key = (n, k)
    got = _fnk_memo.get(key)
    if got is not None:
        return got
    if n == 0:
        val = DiffPoly.from_coeff(Q, Q.one())
    elif k == 0:
        val = DiffPoly(Q, {})
    else:
        val = _fnk(n - 1, k).formal_derivative() + DiffPoly.variable(Q, 0) * _fnk(
            n - 1, k - 1
        )
    with _fnk_lock:
        _fnk_memo.setdefault(key, val)
    return _fnk_memo[key]


# -- substitution and the three conjugations ----------------------------------


def substitute(P: DiffPoly, images: List[DiffPoly], powers: Optional[dict] = None) -> DiffPoly:
    """The ring morphism sending Y^(j) to images[j], on term lists with one
    _collect per product: each term (i, c) of P, from [(zero index, c)],
    times each images[j]^(i_j), read from the table powers[j, e], which a
    caller may hold across calls and threads; one _sum_terms sums all."""
    if len(images) < P.order + 1:
        raise VdfError("substitution needs an image for every variable")
    K = P.field
    if any(img.field is not K for img in images):
        raise VdfError("polynomials over different field instances")
    order = max([img.order for img in images] + [0])
    powers = {} if powers is None else powers

    def times(left, right):
        return _collect(K, _products(left, right, order)).items()

    for j, top in enumerate(map(max, zip(*P.terms))):
        for e in range(1, top + 1):
            if (j, e) not in powers:
                powers.setdefault((j, e), times(powers[j, e - 1], powers[j, 1]) if e > 1
                                  else _padded(images[j].terms, order))

    # the term times the power, not times images[j] e times: that order
    # certifies a lower tau when an image's own terms cancel in the power
    pairs = []
    for i, c in P.terms.items():
        term = [((0,) * (order + 1), c)]
        for j, e in enumerate(i):
            if e:
                term = times(term, powers[j, e])
        pairs.extend(term)
    return _sum_terms(K, pairs, order)


def derivatives(a: Series, count: int, twist: Optional[Series] = None) -> List[Series]:
    """[a, da, d^2 a, ...] for the base derivation, or for the twisted
    derivation (1/twist) * d when a twist is supplied."""
    tw_inv = twist.invert() if twist is not None else None
    out = [a]
    for _ in range(count):
        nxt = out[-1].derive()
        if tw_inv is not None:
            nxt = tw_inv * nxt
        out.append(nxt)
    return out


def add_conj(P: DiffPoly, a: Series) -> DiffPoly:
    """P_{+a}(Y) = P(a + Y): substitute Y^(j) -> Y^(j) + a^(j)."""
    K = P.field
    der = derivatives(a, P.order)
    images = [
        DiffPoly(K, {_unit_index(j, P.order): K.one(), _pad((), P.order): der[j]},
                 P.order)
        for j in range(P.order + 1)
    ]
    return substitute(P, images)


def mul_conj(P: DiffPoly, a: Series) -> DiffPoly:
    """P_{x a}(Y) = P(aY): substitute by the Leibniz expansion
    (aY)^(j) = sum_k C(j,k) a^(j-k) Y^(k)."""
    if a.is_true_zero():
        raise VdfError("multiplicative conjugation by zero")
    K = P.field
    der = derivatives(a, P.order)
    images = []
    for j in range(P.order + 1):
        terms = {_unit_index(k, P.order): der[j - k].scale(math.comb(j, k))
                 for k in range(j + 1)}
        images.append(DiffPoly(K, terms, P.order))
    return substitute(P, images)


def comp_conj(P: DiffPoly, phi: Series, twist: Optional[Series] = None) -> DiffPoly:
    """The compositional conjugate P^phi: the rewriting of P to the
    twisted derivation, substituting Y^(n) -> sum_k F(n,k)(phi) Y^<k>.

    When P is itself a conjugate (its variables mean iterates of the
    derivation (1/twist) * d), the kernel coefficients must be evaluated
    with that derivation: pass the original conjugator as `twist`.  The
    composition law (P^a)^b = P^(ab) holds in that reading.
    """
    return substitute(P, comp_images(P.field, phi, P.order, twist))


def comp_images(K: FieldInstance, phi: Series, order: int,
                twist: Optional[Series] = None) -> List[DiffPoly]:
    """The images sum_k F(n,k)(phi) Y^<k> over K of Y^(n), n <= order, that
    comp_conj substitutes; one table of the der[j]^e serves all F(n, k)."""
    if phi.is_true_zero():
        raise VdfError("compositional conjugation by zero")
    der, powers = derivatives(phi, max(order - 1, 0), twist), {}
    images = [DiffPoly.variable(K, 0)]
    for n in range(1, order + 1):
        terms = {_unit_index(k, order): _evaluate_at(fnk(n, k), der, powers)
                 for k in range(1, n + 1)}
        images.append(DiffPoly(K, terms, order))
    return images


def _unit_index(j: int, order: int) -> MultiIndex:
    idx = [0] * (order + 1)
    idx[j] = 1
    return tuple(idx)


# -- evaluation ----------------------------------------------------------------


def evaluate(P: DiffPoly, f: Series, twist: Optional[Series] = None) -> Series:
    """P(f): substitute f, f', ..., f^(r).  With a twist the variables
    Y^<k> stand for iterates of the twisted derivation (1/twist) * d, as
    in a conjugate comp_conj(_, twist)."""
    return _evaluate_at(P, derivatives(f, P.order, twist))


def _evaluate_at(P: DiffPoly, der: List[Series], powers: Optional[dict] = None) -> Series:
    """P at the point whose derivatives are der, in der's field: the sum
    over the support of coefficient times product of derivative powers,
    each der[j]^e built once, in the table powers[j, e].  A polynomial
    over Q (a kernel F(n, k)) scales each product by its rational
    coefficient, which gives the terms and tau of multiplying by the
    embedded constant: that is exact, of valuation 0."""
    K = der[0].field
    over_q = P.field is not K and P.field is rational_field()
    powers = {} if powers is None else powers
    parts = []
    for i, c in P.terms.items():
        term = None if over_q else c
        for j, ij in enumerate(i):
            if ij:
                if (p := powers.get((j, ij))) is None:
                    p = powers[j, ij] = der[j].power(ij)
                term = p if term is None else term * p
        parts.append((term or K.one()).scale(c.dominant_term()[0]) if over_q else term)
    return _sum_series(K, parts)
