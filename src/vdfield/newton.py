"""Tropical computation of dominant and Newton degrees.

Under a small derivation and for v(phi) < 0, the dominant degree of a
conjugate P^phi is read off a min-plus expression in the data
(v(P_i), ||i||): it is the largest |i| among the indices minimizing
v(P_i) + ||i|| * v(phi).  The crossing points of the affine functions
involved are the breakpoints; between consecutive breakpoints the
degree is constant.

The Newton degree is the eventual value of ddeg P^phi as v(phi) climbs
to the top of Gamma(der).  When the cut has a maximum the evaluation is
an honest conjugation at the maximum; when it has none (the top is a
whole coset) the evaluation point is symbolic: plus infinity in the
first coordinate the cut does not constrain.  One-sided limits in gamma
(ndeg below a fixed element) re-enter the same pipeline after adjoining
a flat generator of infinitesimal value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence

from .diffpoly import (
    DiffPoly,
    add_conj,
    comp_conj,
    ddeg,
    evaluate,
    known_split,
    mi_degree,
    mi_weight,
    mul_conj,
    tropical_argmin,
)
from .errors import IndeterminateValuation, VdfError
from .gridseries import FieldInstance, Series
from .records import Record
from .valgroup import (
    ALL,
    EMPTY,
    INFINITY,
    ConvexSubgroup,
    Cut,
    GroupElement,
    cut_stabilizer,
    with_infinitesimal,
    zero,
)


# -- tropical degree and breakpoints --------------------------------------------


def tropical_ddeg(P: DiffPoly, gamma: GroupElement) -> int:
    """max |i| over the argmin of v(P_i) + ||i|| gamma, for gamma < 0.

    gamma may live in an infinitesimally extended group (rank larger
    than the field's); coefficient values embed by zero padding.  The
    identification with ddeg of the conjugate is only valid after
    normalizing to small derivation, which is the caller's business;
    gamma >= 0 is rejected outright.
    """
    if gamma.rank < P.field.rank:
        raise VdfError("gamma has lower rank than the field's value group")
    if not gamma < zero(gamma.rank):
        raise VdfError(
            "tropical formula needs gamma < 0; renormalize via comp_conj first"
        )
    _, argmin = tropical_argmin(
        P, lambda v, w: (v.pad(gamma.rank) + gamma.scale(w)).coords
    )
    return max(map(mi_degree, argmin))


def breakpoints(P: DiffPoly) -> List[GroupElement]:
    """Crossings gamma(i,j) = (v(P_j) - v(P_i)) / (||i|| - ||j||) of the
    tropical affine family, restricted to gamma < 0, deduplicated and
    sorted ascending.

    Raises IndeterminateValuation when a coefficient known only modulo
    its tau could cross another below 0: a known one of smaller weight,
    a known one of larger weight and valuation above tau, or an unknown
    one of another weight."""
    known, unknown = known_split(P)
    profile = [(v, mi_weight(i)) for i, v in known]
    tails = [(tau, mi_weight(j)) for j, tau in unknown]
    if len({wu for _, wu in tails}) > 1 or any(
            wu > w or (wu < w and tau < v) for tau, wu in tails for v, w in profile):
        raise IndeterminateValuation(
            "a coefficient known only modulo its tau could add a breakpoint"
        )
    found = set()
    for (va, wa), (vb, wb) in combinations(profile, 2):
        if wa == wb:
            continue
        g = (vb - va).scale(Fraction(1, wa - wb))
        if g < zero(P.field.rank):
            found.add(g.coords)
    return [GroupElement._raw(c, True) for c in sorted(found)]


# -- Gamma(der) and its stabilizer ----------------------------------------------


def _analytic_cut(field: FieldInstance, k: int) -> Cut:
    """The cut in Q^k cut out by the generator classes p < k: the
    intersection of {gamma : proj_(p+1)(gamma) <= proj_(p+1)(psi_floor(p))}.
    At k = rank this is Gamma(der); at a smaller k, Gamma(der) of the
    field coarsened to its first k coordinates.

    Inclusive prefix cuts are nested and the classes come in order of
    depth, so the fold keeps one bound, () for the whole group, which a
    deeper bound replaces when its prefix does not exceed it."""
    bound = ()
    for p, level in enumerate(map(field.psi_floor, range(k))):
        if level is not INFINITY and level.coords[: len(bound)] <= bound:
            bound = level.coords[: p + 1]
    return Cut(k, bound)


def gamma_der(field: FieldInstance) -> Cut:
    """The downward-closed set {v(phi) : der maps the maximal ideal into
    phi times it}, as a prefix cut, kept by FieldInstance._derived.

    It is _analytic_cut at full rank, and needs no check.  Take a
    monomial m < 1 of class p (its first nonzero exponent is at p), let
    floor_p = psi_floor(p) = min over i >= p of v(g_i-logder), and write
    proj_k for the first k coordinates.

    Inside: the logder of m is the sum over i >= p of q_i * g_i-logder,
    so its value is >= floor_p, and v(m) > 0 adds a positive entry at
    coordinate p.  So proj_(p+1) v(m') > proj_(p+1) floor_p, and every
    gamma in the cut has gamma < v(m').

    Outside: say proj_(p+1) gamma > proj_(p+1) floor_p.  Take i >= p
    with v(g_i-logder) = floor_p and m = g_i^(+-eps) < 1.  Then v(m') =
    +-eps * v(g_i) + floor_p, which is <= gamma for small eps; when
    i > p, eps * v(g_i) is zero on the first p + 1 coordinates.

    Sums: derive works term by term, so v(f') is at least the least
    v(m') over f's support, and monomials decide the cut.

    Hypothesis: each generator logder is the true zero or has a known
    term; psi_level raises IndeterminateValuation for any other.
    """
    return field._derived("_gamma_der_cut", lambda: _analytic_cut(field, field.rank))


def s_der(field: FieldInstance) -> ConvexSubgroup:
    """Stabilizer of Gamma(der): the convex subgroup of translations
    fixing the cut."""
    return cut_stabilizer(gamma_der(field))


# -- Newton degree ----------------------------------------------------------------


def ndeg(P: DiffPoly, base: Optional[GroupElement] = None,
         cut: Optional[Cut] = None, twist: Optional[Series] = None) -> int:
    """The Newton degree: eventual dominant degree of P^phi as v(phi)
    approaches the top of Gamma(der).

    With a maximum in the cut this is an exact conjugation.  Otherwise
    P is normalized by a base point phi0 in the cut (default: the cut
    bound padded with zeros) and the tropical expression is evaluated at
    the symbolic top; the result does not depend on the base point.

    A compositional conjugate P^f is measured relative to the conjugated
    field: pass cut = Gamma(der) shifted by v(f) and twist = f, so the
    normalization composes as (P^f)^phi0 = P^(f*phi0).
    """
    K = P.field
    if cut is None:
        cut = gamma_der(K)
    if cut.kind == ALL:
        # Zero derivation: conjugation never changes the coefficients.
        return _top_tropical(P, 0, ())
    if cut.kind == EMPTY:
        raise VdfError("gamma_der returned an empty cut")
    if base is None:
        base = cut.bound_element()
    if not cut.contains(base):
        raise VdfError("base point must lie in gamma_der")
    phi0 = K.term(base)
    Q = comp_conj(P, phi0, twist)
    if cut.has_max() and base == cut.max_element():
        return ddeg(Q)
    shifted = cut.shift_by_prefix(base)
    return _top_tropical(Q, shifted.depth, shifted.bound)


def _top_tropical(Q: DiffPoly, depth: int, bound: Sequence[Fraction]) -> int:
    """Evaluate the tropical expression at the symbolic top of the
    inclusive prefix cut {proj_depth <= bound}: the point
    (bound, +infinity, 0, ...).  Comparison keys order by the bound
    block, then by the weight (the +infinity coefficient), then by the
    remaining coordinates."""
    bound = tuple(bound)

    def key_of(v, w):
        prefix = tuple(c + w * b for c, b in zip(v.coords[:depth], bound))
        return (prefix, w, v.coords[depth:])

    return max(map(mi_degree, tropical_argmin(Q, key_of)[1]))


def ndeg_geq(P: DiffPoly, gamma: GroupElement) -> int:
    """max ndeg P_{x g} over v(g) >= gamma, which the monotonicity law
    collapses to ndeg of a single conjugate at gamma.  gamma of rank
    n+1 is interpreted in the flat infinitesimal extension."""
    K = P.field
    if gamma.rank == K.rank + 1:
        K = K._derived("_eps_ext", K.with_flat_generator)
        P = P.embed_into(K)
    elif gamma.rank != K.rank:
        raise VdfError(f"gamma rank {gamma.rank} does not match field rank {K.rank}")
    return ndeg(mul_conj(P, K.term(gamma)))


def ndeg_prec(P: DiffPoly, g: Series) -> int:
    """max ndeg P_{x f} over f strictly smaller than g: the one-sided
    limit just above v(g), taken in the extended group."""
    if not g.terms:
        raise VdfError("ndeg_prec needs a nonzero comparison element")
    return ndeg_geq(P, with_infinitesimal(g.valuation(), "above"))


# -- Newton degree along a pc-sequence ---------------------------------------------


class PcSequence(Record):
    """A finite prefix of a pseudocauchy sequence."""

    _fields = __slots__ = ("elements", "window")
    _defaults = (3,)

    def gaps(self) -> List[GroupElement]:
        out = []
        for a, b in zip(self.elements, self.elements[1:]):
            diff = b - a
            if not diff.terms:
                raise VdfError("pc-sequence has equal consecutive elements")
            out.append(diff.valuation())
        for g1, g2 in zip(out, out[1:]):
            if not g1 < g2:
                raise VdfError(
                    f"not a pc-sequence: gap {g2} does not exceed {g1}"
                )
        return out


class CutDegreeCertificate(Record):
    _fields = __slots__ = ("value", "stabilized_at", "window", "history")


def ndeg_in_cut(P: DiffPoly, seq: PcSequence) -> CutDegreeCertificate:
    """Eventual value of ndeg_geq(P_{+a_rho}, gamma_rho), detected by a
    stabilization window over the generated prefix.

    The eventual quantifier is not decidable from finite data: the
    certificate records where the window closed, and the call fails if
    the prefix ends before stabilization.
    """
    if type(seq.window) is not int or seq.window < 1:
        raise VdfError(f"window {seq.window!r} is not an int >= 1")
    gaps = seq.gaps()
    if len(gaps) < seq.window:
        raise VdfError("pc-sequence prefix shorter than the window")
    history: List[int] = []
    for rho, gamma in enumerate(gaps):
        d = ndeg_geq(add_conj(P, seq.elements[rho]), gamma)
        history.append(d)
        if len(history) >= seq.window and len(set(history[-seq.window:])) == 1:
            return CutDegreeCertificate(
                d, len(history) - seq.window, seq.window, history
            )
    raise VdfError(
        f"no stabilization within the generated prefix (history {history})"
    )


# -- flexibility probe ----------------------------------------------------------------


def flex_probe(P: DiffPoly, beta: GroupElement, sample_count: int,
               seed: int = 11) -> List[GroupElement]:
    """Sample values P(y) for |v(y)| < beta and collect the distinct
    valuations, in increasing order: the classes (valuation, dominant
    monomial), as the valuation determines the dominant monomial.  A
    probe of the infinite image, not a proof."""
    if not zero(beta.rank) < beta:
        raise VdfError("beta must be positive")
    if ndeg(P) < 1:
        raise VdfError("flex_probe requires ndeg P >= 1")
    K = P.field
    rng = random.Random(seed)
    seen = set()
    n = K.rank
    p = beta.first_nonzero()
    for _ in range(sample_count):
        # |v(y)| < beta: zero before beta's leading coordinate, strictly
        # inside at it, free after it.
        coords = [Fraction(0)] * n
        k = rng.randint(1, 12)
        coords[p] = beta.coords[p] * Fraction(rng.randint(-k + 1, k - 1), k)
        for j in range(p + 1, n):
            coords[j] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        val = evaluate(P, K.term(GroupElement(coords), c))
        if val.terms:
            seen.add(val.valuation())
    return sorted(seen, key=lambda v: v.coords)
