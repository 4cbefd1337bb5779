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
generator matters: derivatives, embeddings and printing.  Likewise a
coefficient c is stored as the int c * cden (cden: the least common
denominator of the coefficients), so products and sums of series do
int arithmetic; Fractions appear only at the boundary.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    ConfigError,
    IndeterminateValuation,
    RankMismatch,
    TruncationUnreachable,
    VdfError,
)
from .records import Record
from .valgroup import (
    INFINITY,
    GroupElement,
    Rat,
    _frac,
    unit,
    zero,
)


class Monomial:
    """A product of rational powers of the field's generators."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[Rat]):
        object.__setattr__(
            self, "exponents", tuple(_frac(e) for e in exponents)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return "Monomial" + str(tuple(str(e) for e in self.exponents))


class Generator(Record):
    """A named monomial generator: value vector plus logarithmic derivative.

    The logder is attached in a second phase because it is itself a
    series over the field being built.
    """

    _fields = __slots__ = ("name", "value", "logder")

    def __init__(self, name: str, value: GroupElement, logder: Optional["Series"] = None):
        self.name = name
        self.value = value
        self.logder = logder


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
            if g.value.rank != rank:
                raise RankMismatch(
                    f"generator {g.name}: value rank {g.value.rank} != {rank}"
                )
            if any(c != 0 for c in g.value.coords[:i]) or g.value.coords[i] == 0:
                raise ConfigError(
                    f"generator {g.name}: value vectors must be square triangular"
                )
        self.rank = rank
        self.generators = list(generators)
        self.name = name
        self._index = {g.name: i for i, g in enumerate(generators)}
        self._shift: Optional[GroupElement] = None

    # -- construction of elements ------------------------------------

    def zero_series(self) -> "Series":
        return Series(self, {}, INFINITY, 1)

    def constant(self, c: Rat) -> "Series":
        c = _frac(c)
        if c == 0:
            return self.zero_series()
        return Series(self, {(0,) * self.rank: c.numerator}, INFINITY, 1, c.denominator)

    def one(self) -> "Series":
        return self.constant(1)

    def gen(self, name: str, power: Rat = 1) -> "Series":
        if name not in self._index:
            raise ConfigError(f"unknown generator {name!r} in field {self.name!r}")
        value = self.generators[self._index[name]].value.scale(power)
        return Series(self, {value: Fraction(1)}, INFINITY)

    def monomial_series(self, mono: Monomial, coeff: Rat = 1) -> "Series":
        coeff = _frac(coeff)
        if coeff == 0:
            return self.zero_series()
        return Series(self, {mono: coeff}, INFINITY)

    def monomial_from_dict(self, powers: Dict[str, Rat]) -> Monomial:
        exps = [Fraction(0)] * self.rank
        for name, q in powers.items():
            if name not in self._index:
                raise ConfigError(f"unknown generator {name!r}")
            exps[self._index[name]] = _frac(q)
        return Monomial(exps)

    # -- values and exponents ------------------------------------------

    def monomial_value(self, mono: Monomial) -> GroupElement:
        """sum q_i * v(g_i), over the nonzero exponents and entries."""
        coords = [Fraction(0)] * self.rank
        for q, g in zip(mono.exponents, self.generators):
            if q:
                for j, x in enumerate(g.value.coords):
                    if x:
                        coords[j] += q * x
        return GroupElement._raw(tuple(coords))

    def exponents_of_value(self, gamma: GroupElement) -> Tuple[Fraction, ...]:
        """Invert the triangular exponent-to-value map: exponent i is
        the residual at coordinate i over v(g_i)'s, skipping zero
        residuals and zero generator entries."""
        if gamma.rank != self.rank:
            raise RankMismatch(f"value rank {gamma.rank} != field rank {self.rank}")
        exps = [Fraction(0)] * self.rank
        residual = list(gamma.coords)
        for i, g in enumerate(self.generators):
            if residual[i]:
                q = exps[i] = residual[i] / g.value.coords[i]
                for j in range(i + 1, self.rank):
                    x = g.value.coords[j]
                    if x:
                        residual[j] -= q * x
        return tuple(exps)

    def monomial_of_value(self, gamma: GroupElement) -> Monomial:
        return Monomial(self.exponents_of_value(gamma))

    # -- derivation data -----------------------------------------------

    def monomial_logder(self, mono: Monomial) -> "Series":
        """Logarithmic derivative of a monomial: sum of q_i * g_i-logder."""
        parts = []
        for q, g in zip(mono.exponents, self.generators):
            if q == 0:
                continue
            if g.logder is None:
                raise VdfError(f"generator {g.name} has no declared logder")
            parts.append(g.logder.scale(q))
        return _sum_series(self, parts)

    def logder_of_value(self, gamma: GroupElement) -> "Series":
        """The logarithmic derivative of the monomial of value gamma."""
        return self.monomial_logder(self.monomial_of_value(gamma))

    @property
    def derivation_shift(self) -> GroupElement:
        """A certified s with v(f') >= v(f) + s for all f.

        Computed as the least val_or_tau over the generator logders (zero
        when every logder is the true zero), so a logder known only
        modulo its tau bounds the shift by that tau; validated by
        sampling in the test suite.
        """
        if self._shift is None:
            m = min((self._logder(i).val_or_tau() for i in range(self.rank)),
                    default=INFINITY)
            self._shift = zero(self.rank) if m is INFINITY else m
        return self._shift

    def _logder(self, i: int) -> "Series":
        ld = self.generators[i].logder
        if ld is None:
            raise VdfError(f"generator {self.generators[i].name} has no logder")
        return ld

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
            if terms and isinstance(next(iter(terms)), Monomial):
                terms = {field.monomial_value(m): c for m, c in terms.items()}
            if any(v.rank != field.rank for v in terms):
                raise RankMismatch(f"a term value's rank is not field rank {field.rank}")
            den = lcm(*(x.denominator for v in terms for x in v.coords))
            cden = lcm(*(c.denominator for c in terms.values()))
            terms = {_lattice_key(v, den): c.numerator * (cden // c.denominator)
                     for v, c in terms.items()}
        if tau is INFINITY:
            clean = {k: c for k, c in terms.items() if c}
        else:
            if tau.rank != field.rank:
                raise RankMismatch(f"tau rank {tau.rank} != field rank {field.rank}")
            bound = _lattice_key(tau, den)
            clean = {k: c for k, c in terms.items() if c and k < bound}
        if den != 1 and (g := gcd(den, *chain.from_iterable(clean))) != 1:
            den //= g
            clean = {tuple([x // g for x in k]): c for k, c in clean.items()}
        if cden != 1 and (g := gcd(cden, *clean.values())) != 1:
            cden //= g
            clean = {k: c // g for k, c in clean.items()}
        self.field = field
        self.terms = clean
        self.den = den
        self.cden = cden
        self.tau = tau
        self._val = None

    def _value(self, key: tuple) -> GroupElement:
        return GroupElement._raw(tuple([Fraction(x, self.den) for x in key]))

    def _terms_at(self, den: int, cden: int) -> Dict[tuple, int]:
        """The terms keyed on the finer lattice of den, a multiple of
        self.den, with numerators over cden, a multiple of self.cden."""
        m, n = den // self.den, cden // self.cden
        if m == 1:
            return self.terms if n == 1 else {k: c * n for k, c in self.terms.items()}
        return {tuple([x * m for x in k]): c * n for k, c in self.terms.items()}

    # -- inspection -----------------------------------------------------

    def is_true_zero(self) -> bool:
        return not self.terms and self.tau is INFINITY

    def valuation(self):
        """min value over the support; +infinity for the true zero."""
        if self.terms:
            if self._val is None:
                self._val = self._value(min(self.terms))
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
        return Fraction(self.terms[min(self.terms)], self.cden), v

    def coefficient(self, mono: Monomial) -> Fraction:
        key = _lattice_key(self.field.monomial_value(mono), self.den)
        return Fraction(self.terms.get(key, 0), self.cden)

    def sorted_terms(self) -> List[Tuple[GroupElement, Fraction]]:
        """(value, coefficient) pairs by increasing value."""
        return [(self._value(k), Fraction(c, self.cden))
                for k, c in sorted(self.terms.items())]

    # -- ring operations ------------------------------------------------

    def _check_field(self, other: "Series"):
        if self.field is not other.field:
            raise VdfError("series belong to different field instances")

    def __add__(self, other: "Series") -> "Series":
        self._check_field(other)
        return _sum_series(self.field, (self, other))

    def __neg__(self) -> "Series":
        terms = {k: -c for k, c in self.terms.items()}
        return Series(self.field, terms, self.tau, self.den, self.cden)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, q: Rat) -> "Series":
        q = _frac(q)
        if q == 0:
            return self.field.zero_series()
        n = q.numerator
        terms = {k: n * c for k, c in self.terms.items()}
        return Series(self.field, terms, self.tau, self.den, self.cden * q.denominator)

    def __mul__(self, other: "Series") -> "Series":
        self._check_field(other)
        if self.is_true_zero() or other.is_true_zero():
            return self.field.zero_series()
        tau = INFINITY
        if self.tau is not INFINITY:
            tau = self.tau + other.val_or_tau()
        if other.tau is not INFINITY:
            tau = min(tau, other.tau + self.val_or_tau())
        den = lcm(self.den, other.den)
        right = list(other._terms_at(den, other.cden).items())
        terms: Dict[tuple, int] = {}
        for k1, c1 in self._terms_at(den, self.cden).items():
            for k2, c2 in right:
                k = tuple(map(add, k1, k2))
                s = terms.get(k)
                if s is None:
                    terms[k] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        terms[k] = s
                    else:
                        del terms[k]
        return Series(self.field, terms, tau, den, self.cden * other.cden)

    def power(self, n: int) -> "Series":
        if n < 0:
            raise VdfError("negative powers go through invert()")
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def truncated(self, tau) -> "Series":
        return Series(self.field, self.terms, min(self.tau, tau), self.den, self.cden)

    # -- differential structure ------------------------------------------

    def derive(self) -> "Series":
        """Termwise derivative; the unknown tail contributes at
        tau + derivation_shift."""
        K = self.field
        out = _sum_series(K, [
            Series(K, {k: c}, INFINITY, self.den, self.cden)
            * K.logder_of_value(self._value(k))
            for k, c in self.terms.items()
        ])
        if self.tau is not INFINITY:
            out = out.truncated(self.tau + K.derivation_shift)
        return out

    def invert(self, tau=None) -> "Series":
        """A series g with v(self * g - 1) >= tau.

        Single-term input inverts exactly.  Otherwise the unit part is
        expanded geometrically, which requires a reachable finite tau:
        either passed in, or inferred from the input's own truncation.
        """
        if not self.terms:
            raise VdfError("cannot invert a series with no known terms")
        c, v = self.dominant_term()
        lead_inv = Series(self.field, {-v: Fraction(1) / c}, INFINITY)
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
        if u.terms and not _reachable(u.valuation(), tau):
            raise TruncationUnreachable(
                f"geometric expansion with step {u.valuation()} cannot reach {tau}"
            )
        acc = self.field.one()
        term = self.field.one()
        while True:
            term = (term * (-u)).truncated(tau)
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
        """Map into a field that contains same-named generators."""
        K = self.field
        if other is K:
            return self
        terms = {embed_value(K, other, v): c for v, c in self.sorted_terms()}
        tau = self.tau
        if tau is not INFINITY:
            tau = embed_value(K, other, tau)
        return Series(other, terms, tau)

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

    def same_terms(self, other: "Series") -> bool:
        """Term-by-term equality ignoring the truncation levels."""
        self._check_field(other)
        return (self.den, self.cden, self.terms) == (other.den, other.cden, other.terms)

    def __repr__(self):
        """The series in the expression grammar, which parse_series reads
        back for an exact series; a truncated one ends in + O(tau)."""
        K = self.field
        parts = []
        for v, c in self.sorted_terms():
            factors = [str(c)] if c != 1 or v.is_zero() else []
            factors += [g.name if q == 1 else f"{g.name}^{q}"
                        for q, g in zip(K.exponents_of_value(v), K.generators) if q]
            parts.append("*".join(factors))
        body = " + ".join(parts) or "0"
        if self.tau is INFINITY:
            return body
        return f"{body} + O({self.tau})"


def embed_value(src: FieldInstance, dst: FieldInstance, gamma: GroupElement) -> GroupElement:
    """Translate a value from src's group to dst's: the value in dst of
    src's exponents on the same-named generators."""
    out = [Fraction(0)] * dst.rank
    for q, g in zip(src.exponents_of_value(gamma), src.generators):
        if q == 0:
            continue
        target = dst._index.get(g.name)
        if target is None:
            raise VdfError("embedding uses a generator missing from the target field")
        out[target] = q
    return dst.monomial_value(Monomial(out))


def _sum_series(field: FieldInstance, parts: Sequence["Series"]) -> "Series":
    """The sum of parts built in one term dict, with the least of their
    taus: the terms and tau of folding them with +, without a copy of
    the dict per part."""
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(f.den for f in parts))
    cden = lcm(*(f.cden for f in parts))
    terms: Dict[tuple, int] = {}
    for f in parts:
        if not terms:
            terms.update(f._terms_at(den, cden))
            continue
        for k, c in f._terms_at(den, cden).items():
            s = terms.get(k, 0) + c
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s
    return Series(field, terms, min([f.tau for f in parts], default=INFINITY), den, cden)


def _lattice_key(gamma: GroupElement, den: int) -> tuple:
    """gamma * den, with a Fraction where a coordinate is off the lattice:
    it compares with lattice keys as gamma does with their values.
    Computed on numerators and denominators, with no Fraction product."""
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
    """[name, exponent] of the monomial of value gamma, exponent 0 omitted."""
    return [[g.name, str(q)]
            for g, q in zip(K.generators, K.exponents_of_value(gamma)) if q != 0]


def _reachable(step: GroupElement, target: GroupElement) -> bool:
    """Whether j*step >= target for some natural j (step > 0)."""
    t = target.first_nonzero()
    if t == target.rank or target.coords[t] < 0:
        return True
    return step.first_nonzero() <= t


# -- built-in field instances ------------------------------------------------


@functools.lru_cache(maxsize=None)
def laurent_ddt() -> FieldInstance:
    """Rational Laurent-series field with derivation d/dt: one generator
    t of value (1), logder t^-1."""
    K = FieldInstance(1, [Generator("t", GroupElement([1]))], name="laurent_ddt")
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
            Generator("t", GroupElement([1, 0])),
            Generator("s", GroupElement([0, 1])),
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
    if n_depth < 0:
        raise ConfigError("depth must be >= 0")
    rank = n_depth + 2
    gens = [Generator("e_x", unit(rank, 0, -1))]
    for k in range(n_depth + 1):
        gens.append(Generator(f"l{k}", unit(rank, k + 1, -1)))
    K = FieldInstance(rank, gens, name=f"transseries_fragment({n_depth})")
    K.generators[0].logder = K.one()
    for k in range(n_depth + 1):
        exps = {f"l{j}": -1 for j in range(k + 1)}
        K.generators[k + 1].logder = K.monomial_series(K.monomial_from_dict(exps))
    return K


@functools.lru_cache(maxsize=None)
def log_fragment(n_depth: int) -> FieldInstance:
    """The flat restriction of the depth-N fragment: l0..lN only."""
    if n_depth < 0:
        raise ConfigError("depth must be >= 0")
    rank = n_depth + 1
    gens = [Generator(f"l{k}", unit(rank, k, -1)) for k in range(n_depth + 1)]
    K = FieldInstance(rank, gens, name=f"log_fragment({n_depth})")
    for k in range(n_depth + 1):
        exps = {f"l{j}": -1 for j in range(k + 1)}
        K.generators[k].logder = K.monomial_series(K.monomial_from_dict(exps))
    return K

