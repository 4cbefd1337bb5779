"""Coarsening a grid field by a convex subgroup.

Coarsening by the prefix subgroup of length k replaces the valuation by
its first k coordinates.  The elements of dotted-valuation zero, modulo
those of positive dotted valuation, form the residue field; thanks to
the triangular generator convention it is again a grid instance, on the
generators whose value starts with k zeros.
"""

from __future__ import annotations

from typing import Dict

from .errors import VdfError
from .gridseries import FieldInstance, Generator, Series, _key_value
from .newton import _analytic_cut
from .records import Record
from .valgroup import (
    INFINITY,
    ConvexSubgroup,
    Cut,
    GroupElement,
    quotient_map,
)


def coarse_val(f: Series, delta: ConvexSubgroup) -> GroupElement:
    """The dotted valuation: v(f) projected to the quotient group."""
    return quotient_map(f.valuation(), delta)


class Coarsening(Record):
    """A field together with a prefix convex subgroup and the residue
    presentation of the coarsened valuation ring."""

    _fields = __slots__ = ("base", "delta", "residue_field")

    @property
    def k(self) -> int:
        return self.delta.prefix_len

    def coarse_val(self, f: Series) -> GroupElement:
        return coarse_val(f, self.delta)

    def residue(self, f: Series) -> Series:
        """The image of f in res(K_Delta), for f in the coarsened
        valuation ring.

        Keeps exactly the terms of dotted valuation zero; terms of
        positive dotted valuation die.  A term of negative dotted
        valuation means f is outside the ring: an error.  The generators
        are triangular, so a term of dotted valuation zero has exponent
        zero on the first k of them: its residue value is the rest of
        its value.  f must be a series of the base field.
        """
        if f.field is not self.base:
            raise VdfError("series belong to different field instances")
        k = self.k
        R = self.residue_field
        terms: Dict[tuple, int] = {}
        for key, c in f.terms.items():
            head = key[:k]
            if any(head):
                if head < (0,) * k:
                    raise VdfError("residue undefined: term of dotted valuation "
                                   f"{_key_value(key, f.den).prefix(k)} < 0")
                continue
            terms[key[k:]] = c
        tau = f.tau
        if tau is INFINITY or tau.coords[:k] > (0,) * k:
            return Series(R, terms, INFINITY, f.den, f.cden)
        if not any(tau.coords[:k]):
            return Series(R, terms, GroupElement._raw(tau.coords[k:], True), f.den, f.cden)
        raise VdfError("residue undefined: truncation has negative dotted part")

    def unit_part_residue_val(self, f: Series) -> GroupElement:
        """Residue valuation of f divided by the monomial realizing its
        dotted valuation: the Delta-part of v(f)."""
        gamma_dot = self.coarse_val(f).pad(self.base.rank)
        u = f * self.base.term(-gamma_dot)
        return self.residue(u).valuation()


def coarsen(base: FieldInstance, prefix_len: int) -> Coarsening:
    """Split the field at a prefix convex subgroup.

    Generators with nonzero dotted value are dropped from the residue
    presentation; the kept generators keep their logders, which must
    only involve kept generators (this is checked).
    """
    n = base.rank
    delta = ConvexSubgroup(n, prefix_len)
    k = prefix_len
    kept = base.generators[k:]
    gens = [Generator(g.name, GroupElement._raw(g.value.coords[k:], True), None) for g in kept]
    residue_field = FieldInstance(n - k, gens, name=f"{base.name}/delta{k}")
    half = Coarsening(base, delta, residue_field)
    for i, new_gen in enumerate(residue_field.generators, k):
        new_gen.logder = half.residue(base._logder(i))
    return half


def lift_val(gamma_dot: GroupElement, delta_part: GroupElement) -> GroupElement:
    """Assemble a full valuation from its quotient part and its
    Delta-part: plain concatenation in prefix coordinates."""
    return GroupElement._raw(gamma_dot.coords + delta_part.coords, True)


def coarsened_gamma_der(field: FieldInstance, delta: ConvexSubgroup) -> Cut:
    """Gamma(der) of the coarsened field, computed analytically on the
    quotient group.

    Only generator classes p < prefix_len produce monomials that are
    small for the dotted valuation; each contributes the constraint
    proj_(p+1)(gamma) <= proj_(p+1)(psi_floor(p)), exactly as in the
    uncoarsened computation but truncated to the quotient rank.
    """
    return _analytic_cut(field, delta.prefix_len)
