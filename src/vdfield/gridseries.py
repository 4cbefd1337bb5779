"""Truncated grid-based generalized power series over exact rationals.

A :class:`FieldInstance` presents a valued differential field by a
finite list of monomial generators: each generator carries a value
vector in the lexicographic group Q^n and a logarithmic derivative
(a finite series over the same generators).  Generator value vectors
are square triangular -- generator i has its first nonzero coordinate
at position i -- so the exponent-to-value map is an exact bijection
between Q^n exponent tuples and Q^n values.

A :class:`Series` is a finite sum of monomial terms with nonzero
rational coefficients plus a truncation level tau: the series is exact
on all values below tau and unknown at or above it.  tau = +infinity
means the series is known completely.  Every operation propagates the
tightest truncation it can certify.  By the bijection a term is keyed
by its value v, as the int tuple v * den (den: the least common
denominator of the values); exponents are computed only where a
generator matters: derivatives, embeddings, logders and printing, all
from one exponent map, the field's sparse int value matrix, built once.
Likewise a coefficient c is stored as the int c * cden (cden: the least
common denominator of the coefficients), so products and sums of series
do int arithmetic; Fractions appear only at the boundary, and there an
integral value coordinate is an int, equal and hash-equal to its Fraction.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import attrgetter, is_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    ConfigError,
    IndeterminateValuation,
    RankMismatch,
    TruncationUnreachable,
    VdfError,
)
from .records import FrozenRecord, Record
from .valgroup import (
    INFINITY,
    GroupElement,
    Rat,
    _coord,
    unit,
    zero,
)
from .valgroup import _ADD, _FLOOR, _SCALE, _tuple_kernel


def _dot(key: tuple, col: List[Tuple[int, int]]) -> int:
    """key . the column whose nonzero (position, entry) pairs are col."""
    t = 0
    for j, e in col:
        t += key[j] * e
    return t


def _is_name(text: str) -> bool:
    """Whether text is a NAME of the grammar: word characters (alphanumeric
    or _, as regex \\w), the first a letter or _."""
    word = text.replace("_", "a")
    return word[:1].isalpha() and word.isalnum()


class Monomial(FrozenRecord):
    """A product of rational powers of the field's generators, exponents in
    valgroup._coord's normal form (built only by monomial_from_dict and
    monomial_of_value: the library reads exponents from lattice keys)."""

    _fields = __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[Rat]):
        super().__init__(GroupElement(exponents).coords)

    def __repr__(self):
        return "Monomial" + str(tuple(str(e) for e in self.exponents))


class Generator(Record):
    """A named monomial generator: value vector plus logarithmic derivative.

    The logder is attached in a second phase because it is itself a
    series over the field being built.
    """

    _fields = __slots__ = ("name", "value", "logder")
    _defaults = (None,)


class FieldInstance:
    """A grid presentation of a valued differential field."""

    def __init__(self, rank: int, generators: Sequence[Generator], name: str = ""):
        if len(generators) != rank:
            raise ConfigError(
                f"need exactly rank={rank} generators, got {len(generators)}"
            )
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ConfigError("generator names must be distinct")
        for i, g in enumerate(generators):
            if g.name == "Y" or not _is_name(g.name):  # the grammar could not name it
                raise ConfigError(f"generator name {g.name!r}: a name is word characters, "
                                  "the first a letter or _, and not Y")
            if g.value.rank != rank:
                raise RankMismatch(
                    f"generator {g.name}: value rank {g.value.rank} != {rank}"
                )
            if g.value.coords[i] == 0 or any(g.value.coords[:i]):
                raise ConfigError(
                    f"generator {g.name}: value vectors must be square triangular"
                )
        self.rank = rank
        self.generators = list(generators)
        self.name = name
        self._index = {g.name: i for i, g in enumerate(generators)}
        self._euler: Optional[Tuple[int, List[list], List[int], List[list]]] = None
        self._add, self._scale = _tuple_kernel(rank, _ADD), _tuple_kernel(rank, _SCALE)

    # -- construction of elements ------------------------------------

    def zero_series(self) -> "Series":
        return Series(self, {}, INFINITY, 1)

    def constant(self, c: Rat) -> "Series":
        c = _coord(c)
        return Series(self, {(0,) * self.rank: c.numerator}, INFINITY, 1, c.denominator)

    def one(self) -> "Series":
        return self.constant(1)

    def term(self, gamma: GroupElement, c: Rat = 1) -> "Series":
        """Series(self, {gamma: c}, INFINITY), the term c * m_gamma, built on the lattice."""
        (key, den), c = self._key(gamma), _coord(c)
        return Series(self, {key: c.numerator}, INFINITY, den, c.denominator)

    def index_of(self, name: str) -> int:
        """The position of the generator called name."""
        i = self._index.get(name)
        if i is None:
            raise ConfigError(f"unknown generator {name!r} in field {self.name!r}")
        return i

    def gen(self, name: str, power: Rat = 1) -> "Series":
        return self.term(self.generators[self.index_of(name)].value.scale(power))

    def monomial_series(self, mono: Monomial, coeff: Rat = 1) -> "Series":
        return self.term(self.monomial_value(mono), coeff)

    def monomial_from_dict(self, powers: Dict[str, Rat]) -> Monomial:
        exps = [0] * self.rank
        for name, q in powers.items():
            exps[self.index_of(name)] = q
        return Monomial(exps)

    # -- values and exponents ------------------------------------------

    def monomial_value(self, mono: Monomial) -> GroupElement:
        """sum q_i * v(g_i), over the nonzero exponents and entries: v(g_i)
        is zero before position i, and an integral q_i is an int."""
        coords = [0] * self.rank
        for i, (q, g) in enumerate(zip(mono.exponents, self.generators)):
            if q:
                for j, x in enumerate(g.value.coords[i:], i):
                    if x:
                        coords[j] += q * x
        return GroupElement._raw(tuple(coords))

    def _key(self, gamma: GroupElement) -> Tuple[tuple, int]:
        """(gamma's lattice key over den, den), den the least that makes it one."""
        if gamma.rank != self.rank:
            raise RankMismatch(f"value rank {gamma.rank} != field rank {self.rank}")
        den = lcm(*[x.denominator for x in gamma.coords])
        return _lattice_key(gamma, den), den

    def _exponents(self, key: tuple, den: int) -> Tuple[List[Tuple[int, int]], int]:
        """(nums, D): exponent i of the term of lattice key over den is t / D
        for each (i, t) of nums, by the field's columns, and 0 for any other i."""
        D, cols = self._euler_rows()[:2]
        return [(i, t) for i, col in enumerate(cols) if (t := _dot(key, col))], D * den

    def monomial_of_value(self, gamma: GroupElement) -> Monomial:
        nums, D = self._exponents(*self._key(gamma))
        return self.monomial_from_dict({self.generators[i].name: Fraction(t, D) for i, t in nums})

    # -- derivation data -----------------------------------------------

    def logder_of_value(self, gamma: GroupElement) -> "Series":
        """The logarithmic derivative of the monomial of value gamma: the sum
        of t / D * g_i-logder over its exponents, in one term dict."""
        nums, D = self._exponents(*self._key(gamma))
        return _sum_series(self, [self._logder(i) for i, _ in nums], [t for _, t in nums], D=D)

    @property
    def derivation_shift(self) -> GroupElement:
        """A certified s with v(f') >= v(f) + s for all f.

        Computed as the least val_or_tau over the generator logders (zero
        when every logder is the true zero), so a logder known only
        modulo its tau bounds the shift by that tau; validated by
        sampling in the test suite.
        """
        def least():
            m = min((self._logder(i).val_or_tau() for i in range(self.rank)),
                    default=INFINITY)
            return zero(self.rank) if m is INFINITY else m
        return self._derived("_derivation_shift", least)

    def _logder(self, i: int) -> "Series":
        """Generator i's logder, read at call time: it is attached (and
        may be replaced) after construction."""
        ld = self.generators[i].logder
        if ld is None:
            raise VdfError(f"generator {self.generators[i].name} has no logder")
        return ld

    def _derived(self, name: str, build, holder=None):
        """build(), kept in the attribute name of holder (by default the
        field) with the logders it was built from, and built again once any
        generator's logder is no longer the same object: the one cache of
        data that follows from the logders."""
        store = (self if holder is None else holder).__dict__
        kept = store.get(name)
        if kept is None or not all(map(is_, kept[0], map(attrgetter("logder"), self.generators))):
            kept = store[name] = ([g.logder for g in self.generators], build())
        return kept[1]

    def _value_rows(self) -> Tuple[List[int], List[list], int]:
        """(E, W, det) of _euler_rows, without its back-substitution."""
        values = [g.value.coords for g in self.generators]
        E = [lcm(*[x.denominator for x in v]) for v in values]
        W = [[(k, x.numerator * e // x.denominator) for k, x in enumerate(v[i:], i) if x]
             for i, (v, e) in enumerate(zip(values, E))]
        return E, W, abs(prod([row[0][1] for row in W]))

    def _euler_rows(self) -> Tuple[int, List[list], List[int], List[list]]:
        """(D, cols, E, W), the field's one value matrix, built once from
        the generator values, as sparse ints: W[i] the nonzero entries of
        row i of W = E * values, E[i] row i's least common denominator, and
        cols[i] those of column i of det * values^-1 = det * W^-1 * E (det:
        the product of W's pivots, made positive) as ints over their least
        common denominator D, so that exponent i of the term of lattice key k
        over den is _dot(k, cols[i]) / (D * den).  Each row of det * W^-1 is
        back-substituted exactly in ints over the nonzero residuals."""
        if self._euler is None:
            E, W, det = self._value_rows()
            cols: List[list] = [[] for _ in W]
            for j in range(self.rank):
                residual = {j: det}  # det * unit value j, less the rows taken so far
                while residual:
                    i = min(residual)
                    if q := residual.pop(i) // W[i][0][1]:
                        cols[i].append((j, q))
                        for k, w in W[i][1:]:
                            residual[k] = residual.get(k, 0) - q * w
            g = gcd(det, *[e * q for col, e in zip(cols, E) for _, q in col])
            cols = [[(j, e * q // g) for j, q in col] for col, e in zip(cols, E)]
            self._euler = det // g, cols, E, W
        return self._euler

    def psi_level(self, i: int):
        """v(g_i-logder), +infinity for a flat generator (the true zero).
        Raises IndeterminateValuation for a logder known only modulo its
        tau: its filling may have any value at or above the tau."""
        return self._logder(i).valuation()

    def psi_floor(self, p: int):
        """min over i >= p of psi_level(i): the worst-case logder value
        of a monomial whose first nonzero exponent sits at position p."""
        return min((self.psi_level(i) for i in range(p, self.rank)), default=INFINITY)

    # -- extensions ------------------------------------------------------

    def with_flat_generator(self) -> "FieldInstance":
        """Adjoin a generator _eps of infinitesimal value (the new least
        significant unit coordinate) whose derivative is zero.  Used to
        realize symbolic one-sided limits as honest field elements."""
        n = self.rank + 1
        gens = [
            Generator(g.name, g.value.pad(n), None) for g in self.generators
        ]
        gens.append(Generator("_eps", unit(n, n - 1), None))
        ext = FieldInstance(n, gens, name=f"{self.name}+_eps")
        for old, new in zip(self.generators, ext.generators):
            new.logder = old.logder.embed_into(ext)
        ext.generators[-1].logder = ext.zero_series()
        return ext

    def __repr__(self):
        return f"FieldInstance({self.name or 'anonymous'}, rank {self.rank})"


class Series:
    """A truncated grid series: a finite map from term values to
    coefficients, plus the truncation tau.  The terms are given keyed by
    GroupElement or Monomial with rational coefficients, or, with den
    and cden, by lattice key with int numerators over cden."""

    __slots__ = ("field", "terms", "den", "cden", "tau", "_val")

    def __init__(self, field: FieldInstance,
                 terms: Dict[Union[GroupElement, Monomial, tuple], Rat], tau,
                 den: Optional[int] = None, cden: int = 1):
        if den is None:
            terms = {field.monomial_value(v) if isinstance(v, Monomial) else v: _coord(c)
                     for v, c in terms.items()}
            if any(v.rank != field.rank for v in terms):
                raise RankMismatch(f"a term value's rank is not field rank {field.rank}")
            den = lcm(*(x.denominator for v in terms for x in v.coords))
            cden = lcm(*(c.denominator for c in terms.values()))
            terms = {_lattice_key(v, den): c.numerator * (cden // c.denominator)
                     for v, c in terms.items()}
        if tau is INFINITY:
            # an exact dict with no zero is kept, not copied: term dicts are
            # never mutated once handed to a Series or read from .terms
            clean = terms if all(terms.values()) else {k: c for k, c in terms.items() if c}
        else:
            if tau.rank != field.rank:
                raise RankMismatch(f"tau rank {tau.rank} != field rank {field.rank}")
            bound = _lattice_key(tau, den)
            clean = {k: c for k, c in terms.items() if c and k < bound}
        if den != 1 and (g := gcd(den, *chain.from_iterable(clean))) != 1:
            den, floor = den // g, _tuple_kernel(field.rank, _FLOOR)
            clean = {floor(k, g): c for k, c in clean.items()}
        if cden != 1 and (g := gcd(cden, *clean.values())) != 1:
            cden //= g
            clean = {k: c // g for k, c in clean.items()}
        self.field = field
        self.terms = clean
        self.den = den
        self.cden = cden
        self.tau = tau
        self._val = None

    def _terms_at(self, den: int, cden: int) -> Dict[tuple, int]:
        """The terms keyed on the finer lattice of den, a multiple of
        self.den, with numerators over cden, a multiple of self.cden."""
        m, n, scale = den // self.den, cden // self.cden, self.field._scale
        if m == 1:
            return self.terms if n == 1 else {k: c * n for k, c in self.terms.items()}
        return {scale(k, m): c * n for k, c in self.terms.items()}

    # -- inspection -----------------------------------------------------

    def is_true_zero(self) -> bool:
        return not self.terms and self.tau is INFINITY

    def valuation(self):
        """min value over the support; +infinity for the true zero."""
        if self.terms:
            if self._val is None:
                self._val = _key_value(min(self.terms), self.den)
            return self._val
        if self.tau is INFINITY:
            return INFINITY
        raise IndeterminateValuation(
            f"series is 0 modulo valuation >= {self.tau}; true valuation unknown"
        )

    def val_or_tau(self):
        """Valuation when the support is nonempty, else the truncation
        (a certified lower bound for the valuation)."""
        return self.valuation() if self.terms else self.tau

    def dominant_term(self) -> Tuple[Fraction, GroupElement]:
        """(coefficient, value) of the term of least value."""
        v = self.valuation()
        if v is INFINITY:
            raise VdfError("the zero series has no dominant term")
        return Fraction(self.terms[_lattice_key(v, self.den)], self.cden), v

    def coefficient(self, mono: Monomial) -> Fraction:
        key = _lattice_key(self.field.monomial_value(mono), self.den)
        return Fraction(self.terms.get(key, 0), self.cden)

    def sorted_terms(self) -> List[Tuple[GroupElement, Fraction]]:
        """(value, coefficient) pairs by increasing value."""
        return [(_key_value(k, self.den), Fraction(c, self.cden))
                for k, c in sorted(self.terms.items())]

    # -- ring operations ------------------------------------------------

    def _check_field(self, other: "Series"):
        if self.field is not other.field:
            raise VdfError("series belong to different field instances")

    def __add__(self, other: "Series") -> "Series":
        self._check_field(other)
        return _sum_series(self.field, (self, other))

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, q: Rat) -> "Series":
        q = _coord(q)
        if q == 0:
            return self.field.zero_series()
        n = q.numerator
        terms = {k: n * c for k, c in self.terms.items()}
        return Series(self.field, terms, self.tau, self.den, self.cden * q.denominator)

    def _is_one(self) -> bool:
        return (len(self.terms) == 1 and self.tau is INFINITY and self.cden == 1
                and self.terms == {(0,) * self.field.rank: 1})

    def __mul__(self, other: "Series") -> "Series":
        """The product.  A factor that is exactly one (the term 1 at value
        0 alone, cden 1, tau +infinity) returns the other factor itself,
        which has the general path's terms, den, cden and tau.  By a
        single-term factor the product is a shift of the other's keys,
        which can neither collide nor cancel."""
        self._check_field(other)
        if self.is_true_zero() or other.is_true_zero():
            return self.field.zero_series()
        if other._is_one():
            return self
        if self._is_one():
            return other
        tau = INFINITY
        if self.tau is not INFINITY:
            tau = self.tau + other.val_or_tau()
        if other.tau is not INFINITY:
            tau = min(tau, other.tau + self.val_or_tau())
        den, left, right, add = self.den, self.terms, other.terms, self.field._add
        if den != other.den:
            den = lcm(den, other.den)
            left, right = self._terms_at(den, self.cden), other._terms_at(den, other.cden)
        if len(left) == 1:
            left, right = right, left
        if len(right) == 1:
            ((k2, c2),) = right.items()
            terms = {add(k1, k2): c1 * c2 for k1, c1 in left.items()}
            return Series(self.field, terms, tau, den, self.cden * other.cden)
        right = list(right.items())
        terms: Dict[tuple, int] = {}
        for k1, c1 in left.items():
            for k2, c2 in right:
                k = add(k1, k2)
                terms[k] = terms.get(k, 0) + c1 * c2
        return Series(self.field, terms, tau, den, self.cden * other.cden)

    def _plus_term_times(self, h: "Series", r: "Series") -> "Series":
        """self + h * r for an exact one-term h, in one copy of self's term dict: the
        terms, den, cden and tau min(self.tau, r.tau + v(h)) of the product and the sum."""
        den, cden = lcm(self.den, h.den, r.den), lcm(self.cden, h.cden * r.cden)
        ((kh, ch),) = h._terms_at(den, cden // r.cden).items()
        terms, add = dict(self._terms_at(den, cden)), self.field._add
        for k, c in r._terms_at(den, r.cden).items():
            k = add(k, kh)
            if s := terms.pop(k, 0) + c * ch:  # a zero sum stays popped
                terms[k] = s
        return Series(self.field, terms, min(self.tau, r.tau + h.valuation()), den, cden)

    def power(self, n: int) -> "Series":
        """self^n by square-and-multiply, with no product by one():
        power(0) is one() and power(1) is self itself."""
        if type(n) is not int or n < 0:
            raise VdfError(f"power {n!r} is no int >= 0: negative powers go through invert()")
        if n < 2:
            return self if n else self.field.one()
        half = self.power(n // 2)
        return half * half * self if n % 2 else half * half

    def truncated(self, tau) -> "Series":
        return Series(self.field, self.terms, min(self.tau, tau), self.den, self.cden)

    # -- differential structure ------------------------------------------

    def derive(self) -> "Series":
        """The Euler form f' = sum_i theta_i(f) * g_i-logder, where
        theta_i scales each term by its exponent i, one int dot product
        of its key; the products are summed in one term dict.  The
        unknown tail contributes at tau + derivation_shift, and a
        logder known only below its tau at that tau plus the least
        value of theta_i(f): the least of these is the tau, and a term a
        product alone would drop lies at or above it."""
        K = self.field
        D, cols = K._euler_rows()[:2]
        used = []
        for i, col in enumerate(cols):
            theta = [(k, c * e) for k, c in self.terms.items() if (e := _dot(k, col))]
            if theta:
                used.append((theta, K._logder(i)))
        den = lcm(self.den, *(ld.den for _, ld in used))
        cden = lcm(*(ld.cden for _, ld in used))
        m, add, scale = den // self.den, K._add, K._scale
        tau = INFINITY if self.tau is INFINITY else self.tau + K.derivation_shift
        terms: Dict[tuple, int] = {}
        for theta, ld in used:
            if ld.tau is not INFINITY:
                tau = min(tau, ld.tau + _key_value(min(theta)[0], self.den))
            right = ld._terms_at(den, cden).items()
            for k1, c1 in theta:
                if m != 1:
                    k1 = scale(k1, m)
                for k2, c2 in right:
                    k = add(k1, k2)
                    terms[k] = terms.get(k, 0) + c1 * c2
        return Series(K, terms, tau, den, self.cden * D * self.den * cden)

    def invert(self, tau=None) -> "Series":
        """A series g with v(self * g - 1) >= tau.

        Single-term input inverts exactly.  Otherwise the unit part is
        expanded geometrically, which requires a reachable finite tau:
        either passed in, or inferred from the input's own truncation.
        """
        if not self.terms:
            raise VdfError("cannot invert a series with no known terms")
        c, v = self.dominant_term()
        lead_inv = self.field.term(-v, 1 / c)
        if len(self.terms) == 1:
            if self.tau is INFINITY and tau is None:
                return lead_inv
            err = min(INFINITY if tau is None else tau, self.tau - v)
            return lead_inv.truncated(err - v)
        if tau is None:
            if self.tau is INFINITY:
                raise VdfError(
                    "inverting an exact multi-term series requires a target tau"
                )
            tau = self.tau - v
        # the unit part self * lead_inv is inverted to tau itself:
        # self * g - 1 = self * lead_inv * acc - 1
        u = (self * lead_inv - self.field.one()).truncated(tau)
        # some j * v(u) reaches tau iff v(u)'s first nonzero coordinate is not
        # after tau's, as 0 < v(u) < tau (a unit-part term, kept below tau)
        if u.terms and u.valuation().first_nonzero() > tau.first_nonzero():
            raise TruncationUnreachable(
                f"geometric expansion with step {u.valuation()} cannot reach {tau}"
            )
        acc = self.field.one()
        term = self.field.one()
        minus_u = -u
        while True:
            term = (term * minus_u).truncated(tau)
            if not term.terms:
                break
            acc = acc + term
        return (lead_inv * acc).truncated(tau - v)

    def logder(self, tau=None) -> "Series":
        """f'/f to the available (or requested) truncation."""
        d = self.derive()
        if len(self.terms) == 1 and self.tau is INFINITY:
            return d * self.invert()
        if d.is_true_zero():
            return self.field.zero_series()
        if tau is None:
            if self.tau is INFINITY:
                raise VdfError(
                    "logder of an exact multi-term series requires a target tau"
                )
            tau = self.tau + self.field.derivation_shift - self.valuation()
        dv = d.val_or_tau()
        target = tau + self.valuation() - dv if dv is not INFINITY else tau
        g = self.invert(target)
        return (d * g).truncated(tau)

    # -- embeddings -------------------------------------------------------

    def embed_into(self, other: FieldInstance) -> "Series":
        """Map into a field that contains same-named generators, each key
        straight to its key in other (see _embed_keys)."""
        keys, den = _embed_keys(self.field, other, list(self.terms), self.den)
        tau = self.tau if self.tau is INFINITY else embed_value(self.field, other, self.tau)
        return Series(other, dict(zip(keys, self.terms.values())), tau, den, self.cden)

    # -- comparisons and formatting ----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.field is other.field
            and self.den == other.den
            and self.cden == other.cden
            and self.terms == other.terms
            and self.tau == other.tau
        )

    def __hash__(self):
        return hash((id(self.field), frozenset(self.terms.items()), self.cden, self.tau))

    def __repr__(self):
        """The series in the expression grammar, which parse_series reads
        back for an exact series; a truncated one ends in + O(tau)."""
        K = self.field
        parts = []
        for v, c in self.sorted_terms():
            factors = [str(c)] if c != 1 or v.is_zero() else []
            factors += [n if q == "1" else f"{n}^{q}" for n, q in monomial_strings(K, v)]
            parts.append("*".join(factors))
        body = " + ".join(parts) or "0"
        if self.tau is INFINITY:
            return body
        return f"{body} + O({self.tau})"


def embed_value(src: FieldInstance, dst: FieldInstance, gamma: GroupElement) -> GroupElement:
    """Translate a value from src's group to dst's: the value in dst of
    src's exponents on the same-named generators."""
    key, den = src._key(gamma)
    (key,), den = _embed_keys(src, dst, [key], den)
    return _key_value(key, den)


def _embed_keys(src: FieldInstance, dst: FieldInstance, keys: List[tuple], den: int):
    """(keys in dst, their den D * den * m) of src's keys over den: the sum of t * m * v(h)
    over each exponent t / D of the key (src's columns) and its generator's namesake h in
    dst, on h's row of dst's W = E * values brought to m, the lcm of E over the rows used."""
    nums = [src._exponents(k, den)[0] for k in keys]
    at = {i: dst._index.get(src.generators[i].name) for pairs in nums for i, _ in pairs}
    if None in at.values():
        raise VdfError("embedding uses a generator missing from the target field")
    E, W = dst._euler_rows()[2:]
    m = lcm(*[E[h] for h in at.values()])
    out = []
    for pairs in nums:
        key = [0] * dst.rank
        for i, t in pairs:
            for p, x in W[at[i]]:
                key[p] += t * m // E[at[i]] * x
        out.append(tuple(key))
    return out, src._euler_rows()[0] * den * m


def _sum_series(field: FieldInstance, parts: Sequence["Series"],
                weights: Optional[List[int]] = None, tau=INFINITY, D: int = 1) -> "Series":
    """The sum of w * f / D over the parts f and their int weights w (1
    without weights) at the least of tau and their taus, built in one term
    dict: the terms and tau of folding them with +, without a copy per part."""
    if len(parts) == 1 and weights is None and tau is INFINITY:
        return parts[0]
    den, cden = lcm(*[f.den for f in parts]), lcm(*[f.cden for f in parts])
    terms: Dict[tuple, int] = {}
    for f, w in zip(parts, weights or [1] * len(parts)):
        if not terms and w == 1:
            terms.update(f._terms_at(den, cden))
            continue
        for k, c in f._terms_at(den, cden).items():
            if s := terms.pop(k, 0) + w * c:  # a zero sum stays popped
                terms[k] = s
    least = min([f.tau for f in parts if f.tau is not INFINITY], default=INFINITY)
    return Series(field, terms, least if tau is INFINITY else min(tau, least), den, cden * D)


def _key_value(key: tuple, den: int) -> GroupElement:
    """The value of the lattice key over den: key / den, an int where integral."""
    if den != 1:
        key = tuple([Fraction(x, den) if x % den else x // den for x in key])
    return GroupElement._raw(key, True)


def _lattice_key(gamma: GroupElement, den: int) -> tuple:
    """gamma * den (gamma.coords at den 1), with a Fraction where a
    coordinate is off the lattice: it compares with lattice keys as gamma
    does with their values.  Computed on integers, with no Fraction product."""
    if den == 1:
        return gamma.coords
    key = []
    for x in gamma.coords:
        n, d = x.numerator * den, x.denominator
        q, r = divmod(n, d)
        key.append(Fraction(n, d) if r else q)
    return tuple(key)


# -- JSON renderings ---------------------------------------------------------
# The one rendering of values and series in reports: group elements as
# arrays of rational strings, series as term lists sorted by value.


def val_strings(v):
    if v is None:
        return None
    if v is INFINITY:
        return "inf"
    return v.as_strings()


def series_terms(f: Series) -> list:
    out = []
    for v, c in f.sorted_terms():
        out.append({"coeff": str(c), "monomial": monomial_strings(f.field, v)})
    return out


def monomial_strings(K: FieldInstance, gamma: GroupElement) -> list:
    """[name, exponent] of the monomial of value gamma, exponent 0 omitted,
    each exponent read from gamma's key by the field's columns."""
    nums, D = K._exponents(*K._key(gamma))
    return [[K.generators[i].name, str(Fraction(t, D))] for i, t in nums]


# -- built-in field instances ------------------------------------------------


@functools.lru_cache(maxsize=None)
def laurent_ddt() -> FieldInstance:
    """Rational Laurent-series field with derivation d/dt: one generator
    t of value (1), logder t^-1."""
    K = FieldInstance(1, [Generator("t", unit(1, 0), None)], name="laurent_ddt")
    K.generators[0].logder = K.gen("t", -1)
    return K


@functools.lru_cache(maxsize=None)
def laurent_tddt_coarse() -> FieldInstance:
    """Laurent series over a rank-1 coefficient field, derivation t*d/dt.

    Generator t has value (1,0) and logder 1; the coefficient generator
    s has value (0,1) and derivative zero.  The value group is Q^2 with
    the order coordinate first.
    """
    K = FieldInstance(
        2,
        [
            Generator("t", unit(2, 0), None),
            Generator("s", unit(2, 1), None),
        ],
        name="laurent_tddt_coarse",
    )
    K.generators[0].logder = K.one()
    K.generators[1].logder = K.zero_series()
    return K


@functools.lru_cache(maxsize=None)
def transseries_fragment(n_depth: int) -> FieldInstance:
    """The depth-N fragment of the exp-log monomial field: generators
    e_x (value -e_0, logder 1) and l0..lN with v(l_k) = -e_(k+1) and
    l_k-logder = (l0*...*l_k)^-1."""
    K = _fragment("transseries_fragment", n_depth, ["e_x"])
    K.generators[0].logder = K.one()
    return K


@functools.lru_cache(maxsize=None)
def log_fragment(n_depth: int) -> FieldInstance:
    """The flat restriction of the depth-N fragment: l0..lN only."""
    return _fragment("log_fragment", n_depth, [])


def _fragment(name: str, n_depth: int, head: List[str]) -> FieldInstance:
    """The field name(N) on the generators head, then l0..lN: generator
    i has value -e_i, and l_k has logder (l0*...*l_k)^-1, the monomial of
    value e_h + ... + e_(h+k) for h = len(head): the one place the exp-log
    ladder is spelled.  The logders of head are left to the caller."""
    if type(n_depth) is not int:  # a bool is no int
        raise ConfigError(f"depth must be an int, got {n_depth!r}")
    if n_depth < 0:
        raise ConfigError("depth must be >= 0")
    names = head + [f"l{k}" for k in range(n_depth + 1)]
    rank, h = len(names), len(head)
    gens = [Generator(g, unit(rank, i, -1), None) for i, g in enumerate(names)]
    K = FieldInstance(rank, gens, name=f"{name}({n_depth})")
    rung = [0] * rank
    for k in range(n_depth + 1):
        rung[h + k] = 1
        K.generators[h + k].logder = Series(K, {tuple(rung): 1}, INFINITY, 1)
    return K
