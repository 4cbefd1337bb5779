"""Seeded inputs and checked items of the in-process workloads.

A workload is a set-up function and a round generator.  Each round is
a list of items with the same composition whatever the seed: the seed
picks coefficients, values and conjugators, never the mix of
operations, so runs at different seeds measure the same kind of work.

An item is a callable that runs its operations and returns OK, WRONG
(an answer failed its check, or an operation raised) or KNOWN (the
documented non-unit ``invert``/``logder`` defect; see NOTE.md).  The
inputs of an item are built before it is timed.

The library is reached through module attributes at call time
(``diffpoly.comp_conj``, not a name bound at import), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction
from types import SimpleNamespace

from cliload import weight

OK, WRONG, KNOWN = "ok", "wrong", "known_defect"


LAYERS = ("valgroup", "gridseries", "diffpoly", "newton", "coarsen", "hsolve",
          "expr", "cli", "errors")


def modules():
    """The vdfield modules by name.  (``import vdfield.coarsen`` would give
    the function the package re-exports under that name.)"""
    return SimpleNamespace(**{name: importlib.import_module(f"vdfield.{name}")
                              for name in LAYERS})


def fresh(builder, *args):
    """A new field instance with empty value tables, bypassing the
    built-in instances' process-wide cache."""
    return getattr(builder, "__wrapped__", builder)(*args)


# -- random inputs -------------------------------------------------------------


class Draw:
    """The random streams of one item.

    ``shape`` fixes its structure: multi-indices, how many terms, which
    coordinates of a value are nonzero.  It depends on the item's slot
    in the round only, so every seed runs the same mix of structures.
    ``val`` picks the rationals (coefficients, signs and sizes of
    coordinates) and follows the seed.
    """

    def __init__(self, slot, seed, round_no):
        self.shape = random.Random(f"shape:{slot}")
        self.val = random.Random(f"val:{seed}:{round_no}:{slot}")


def nonzero_rat(rng, hi=5, den=3):
    return Fraction(rng.randint(1, hi), rng.randint(1, den)) * rng.choice((1, -1))


def random_value(vd, K, d):
    return vd.valgroup.GroupElement(
        [nonzero_rat(d.val, 4) if d.shape.random() < 0.75 else 0 for _ in range(K.rank)])


def random_negative_value(vd, K, d):
    zero = vd.valgroup.GroupElement([0] * K.rank)
    while True:
        v = random_value(vd, K, d)
        if v < zero:
            return v
        if zero < v:
            return -v


def random_positive_value(vd, K, d):
    p = d.shape.randrange(K.rank)
    coords = [Fraction(0)] * K.rank
    coords[p] = abs(nonzero_rat(d.val))
    for j in range(p + 1, K.rank):
        if d.shape.random() < 0.75:
            coords[j] = nonzero_rat(d.val)
    return vd.valgroup.GroupElement(coords)


def series_of(vd, K, pairs, tau=None):
    """The series sum c*m over (value, c) pairs, built without arithmetic."""
    terms = {}
    for value, c in pairs:
        mono = K.monomial_of_value(value)
        terms[mono] = terms.get(mono, Fraction(0)) + c
    return vd.gridseries.Series(K, terms, vd.valgroup.INFINITY if tau is None else tau)


def random_series(vd, K, d, nterms):
    f = series_of(vd, K, [(random_value(vd, K, d), nonzero_rat(d.val))
                          for _ in range(nterms)])
    return f if f.terms else K.one()


def random_unit(vd, K, d):
    """A series of valuation exactly 0."""
    pairs = [(vd.valgroup.GroupElement([0] * K.rank), nonzero_rat(d.val, 4, 2))]
    pairs += [(random_positive_value(vd, K, d), nonzero_rat(d.val)) for _ in range(2)]
    return series_of(vd, K, pairs)


def random_bounded(vd, K, d):
    """A series of valuation >= 0 (an element of the valuation ring):
    a constant plus a term of positive value."""
    pairs = [(vd.valgroup.GroupElement([0] * K.rank), nonzero_rat(d.val, 3)),
             (random_positive_value(vd, K, d), nonzero_rat(d.val))]
    return series_of(vd, K, pairs)


def random_poly(vd, K, d, order, max_degree, nterms=3, coeff_terms=2, max_weight=None):
    """A differential polynomial of nterms terms; with max_weight,
    multi-indices of a greater weight are drawn again."""
    terms = {}
    for _ in range(nterms):
        while True:
            idx = [0] * (order + 1)
            for _ in range(d.shape.randint(0, max_degree)):
                idx[d.shape.randrange(order + 1)] += 1
            if max_weight is None or weight(idx) <= max_weight:
                break
        c = random_series(vd, K, d, coeff_terms)
        idx = tuple(idx)
        terms[idx] = terms[idx] + c if idx in terms else c
    P = vd.diffpoly.DiffPoly(K, terms, order)
    return P if not P.is_zero() else vd.diffpoly.DiffPoly.variable(K, 0)


# -- conjugate -------------------------------------------------------------------


def conjugate_setup(vd):
    """The two small-derivation instances and their Gamma(der) cuts."""
    fields = [fresh(vd.gridseries.laurent_tddt_coarse),
              fresh(vd.gridseries.transseries_fragment, 2)]
    for K in fields:
        vd.newton.gamma_der(K)
    return fields


def conjugate_item(vd, K, d):
    """On P: the tropical law at a random value and at a breakpoint,
    additive invariance of ddeg, P_{xg}(1) = P(g) for a monomial g, and
    the Newton degree.  On a smaller Q: ndeg is invariant under
    compositional conjugation by a unit."""
    D, N = vd.diffpoly, vd.newton
    while True:
        P = random_poly(vd, K, d, order=3, max_degree=4, max_weight=CONJUGATE_WEIGHTS[1])
        if max(map(weight, P.terms)) >= CONJUGATE_WEIGHTS[0]:
            break
    Q = random_poly(vd, K, d, order=1, max_degree=2)
    gamma = random_negative_value(vd, K, d)
    a = random_bounded(vd, K, d)
    u = random_unit(vd, K, d)
    g = K.monomial_series(K.monomial_of_value(random_value(vd, K, d)), nonzero_rat(d.val))

    def run():
        for gm in [gamma] + N.breakpoints(P)[:1]:
            phi = K.monomial_series(K.monomial_of_value(gm))
            if N.tropical_ddeg(P, gm) != D.dominant(D.comp_conj(P, phi)).ddeg:
                return WRONG
        if D.dominant(D.add_conj(P, a)).ddeg != D.dominant(P).ddeg:
            return WRONG
        if D.evaluate(D.mul_conj(P, g), K.one()) != D.evaluate(P, g):
            return WRONG
        N.ndeg(P)
        if N.ndeg(D.comp_conj(Q, u)) != N.ndeg(Q):
            return WRONG
        return OK

    return run


# Items per round.  One in four is on laurent_tddt_coarse, which is about
# ten times cheaper than transseries_fragment(2): the median and the 90th
# percentile then fall among the transseries items, not on the gap
# between the two fields, where they would jump from seed to seed.  The
# cost of an item grows with the largest weight of a term of P: from
# about 40 ms at weight 2 to 4.5 s at weight 12 on transseries_fragment(2).
# P's largest weight lies in CONJUGATE_WEIGHTS, so the transseries items
# cost within a factor of about six of each other and crowd the median.
CONJUGATE_SLOTS = 48
CONJUGATE_WEIGHTS = (3, 5)


def conjugate_rounds(vd, fields, seed):
    r = 0
    while True:
        yield [conjugate_item(vd, fields[0 if slot % 4 == 0 else 1], Draw(f"c{slot}", seed, r))
               for slot in range(CONJUGATE_SLOTS)]
        r += 1


# -- fragment ----------------------------------------------------------------------

SWEEP = (4, 7, 10, 13, 16)        # solver depths: ranks 6 to 18
SIDE_DEPTHS = (4, 6, 8)           # check_bll / demo depths, one per round in turn
INVERT_DEPTHS = (4, 10)           # fields of the invert / logder items
COARSEN_DEPTH = 6


def fragment_setup(vd):
    G, H = vd.gridseries, vd.hsolve
    ctx = {}
    for n in sorted(set(SWEEP + INVERT_DEPTHS + (COARSEN_DEPTH,))):
        M = fresh(G.transseries_fragment, n)
        exps = {f"l{j}": -1 for j in range(n)}
        exps["e_x"] = 1
        ctx[n] = SimpleNamespace(
            field=M, op=H.op_A(M, n),
            tau=M.monomial_value(M.monomial_from_dict(exps)))
    return ctx


def solve_item(vd, ctx, d):
    """op_A(y) = c*e_x solved to tau = v(e_x/(l0...l(N-1))): a strictly
    rising ladder that reaches tau, and a residual >= tau recomputed by
    evaluating the operator's differential polynomial."""
    H, D = vd.hsolve, vd.diffpoly
    M, A, tau = ctx.field, ctx.op, ctx.tau
    g = M.gen("e_x").scale(nonzero_rat(d.val))

    def run():
        y, trace = H.solve_linear(A, g, tau)
        ladder = trace.residual_valuations
        if trace.termination != "reached_tau":
            return WRONG
        if not all(x < z for x, z in zip(ladder, ladder[1:])):
            return WRONG
        residual = D.evaluate(H.operator_poly(A, g), y)
        return OK if residual.val_or_tau() >= tau else WRONG

    return run


def bll_item(vd, depth):
    def run():
        return OK if vd.hsolve.check_bll(depth)["passed"] else WRONG
    return run


def demo_item(vd, depth, d):
    """The e_x block of the residual ladder (leading coordinate -1) is
    the same for every c."""
    cs = [Fraction(0), nonzero_rat(d.val)]

    def run():
        report = vd.hsolve.demo_nonuniqueness(depth, cs)
        blocks = [[v for v in r["residual_valuations"] if v != "inf" and v[0] == "-1"]
                  for r in report["runs"]]
        return OK if blocks[0] and all(b == blocks[0] for b in blocks) else WRONG

    return run


def truncated_input(vd, M, d):
    """A multi-term series exact below a finite tau, of any valuation,
    and an absolute target for its inverse.

    One input in three is a unit; the others lead with a nonzero value.
    The other terms sit above the leading one along the last coordinate,
    and tau sits four steps of that coordinate above the leading value.
    """
    GE = vd.valgroup.GroupElement
    n = M.rank
    coords = [Fraction(0)] * n
    if d.shape.randrange(3):
        coords[0] = Fraction(d.shape.choice((-1, 0, 1)))
        for j in d.shape.sample(range(1, n), 2):
            coords[j] = nonzero_rat(d.val, 2, 2)
    lead = GE(coords)
    step = GE([0] * (n - 1) + [1])
    pairs = [(lead, nonzero_rat(d.val))]
    for q in d.shape.sample((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                             Fraction(5, 2), Fraction(3)), d.shape.randint(1, 3)):
        pairs.append((lead + step.scale(q), nonzero_rat(d.val)))
    f = series_of(vd, M, pairs, tau=lead + step.scale(4))
    return f, step.scale(d.shape.choice((1, 2, 3)))


def invert_item(vd, M, d):
    """Contract: v(f * invert(f, tau) - 1) >= tau."""
    f, tau = truncated_input(vd, M, d)
    unit = f.valuation().is_zero()

    def run():
        try:
            ok = (f * f.invert(tau) - M.one()).val_or_tau() >= tau
        except vd.errors.VdfError:
            ok = False
        return OK if ok else (WRONG if unit else KNOWN)

    return run


def logder_item(vd, M, d):
    """Contract: logder(f, tau) is exact below tau, so f * logder(f) - f'
    has no known term."""
    f, tau = truncated_input(vd, M, d)
    unit = f.valuation().is_zero()

    def run():
        try:
            ok = not (f * f.logder(tau) - f.derive()).terms
        except vd.errors.VdfError:
            ok = False
        return OK if ok else (WRONG if unit else KNOWN)

    return run


def coarsen_item(vd, M, d):
    """Coarsen at a prefix and recover v(f) from its dotted valuation
    and the residue valuation of its unit part."""
    C = vd.coarsen
    k = d.shape.randrange(1, M.rank)
    fs = [random_series(vd, M, d, 3) for _ in range(3)]

    def run():
        half = C.coarsen(M, k)
        for f in fs:
            lifted = C.lift_val(half.coarse_val(f), half.unit_part_residue_val(f))
            if lifted != f.valuation():
                return WRONG
        return OK

    return run


def fragment_rounds(vd, ctx, seed):
    r = 0
    while True:
        side = SIDE_DEPTHS[r % len(SIDE_DEPTHS)]
        draws = (Draw(f"f{slot}", seed, r) for slot in range(64))
        items = [solve_item(vd, ctx[n], next(draws)) for n in SWEEP]
        items.append(bll_item(vd, side))
        items.append(demo_item(vd, side, next(draws)))
        for n in INVERT_DEPTHS:
            M = ctx[n].field
            items += [invert_item(vd, M, next(draws)) for _ in range(3)]
            items.append(logder_item(vd, M, next(draws)))
        # Of the 25 items, the 8 invert/logder items are the cheapest and the
        # 5 solves the dearest.  Ten coarsen items of similar cost put the
        # median inside one kind of item, and the 90th percentile falls
        # among the depth-10 solves, not on the edge between two kinds.
        items += [coarsen_item(vd, ctx[COARSEN_DEPTH].field, next(draws)) for _ in range(10)]
        yield items
        r += 1
