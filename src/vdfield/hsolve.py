"""First-order linear solving in the exp-log fragments.

The fragment fields carry the element lambda = sum (l0...lk)^-1 and the
operators A = der - lambda and B = der + (1 - lambda).  Equations
op(y) = g are solved by dominant balance: each step finds a single term
h with op(h) asymptotically equal to the residual and subtracts it, so
the residual valuation strictly increases.  When the residual sits in a
class the operator cannot reach (the depth-N shadow of the gap
phenomenon) the step fails with IntegrationGap and the attempt trail
records the resonance cascade.

Asymptotic integration I (pick If with (If)' ~ f) is the special case
op = der.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .diffpoly import DiffPoly
from .errors import IntegrationGap, NonDecreasingResidual, VdfError
from .gridseries import (
    FieldInstance,
    Series,
    embed_value,
    log_fragment,
    monomial_strings,
    series_terms,
    transseries_fragment,
    val_strings,
)
from .records import FrozenRecord, Record
from .valgroup import INFINITY, GroupElement, unit


class LinearOperator(FrozenRecord):
    """a0 + a1 * der, applied as y -> a0*y + a1*y'.  Frozen, so the
    cached seed_offsets and responses cannot go stale; no __slots__, as
    they are cached in the instance __dict__."""

    _fields = ("a0", "a1")

    def __init__(self, a0: Series, a1: Series):
        if a1.is_true_zero():
            raise VdfError("a1 must be nonzero for a first-order operator")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)

    @property
    def field(self) -> FieldInstance:
        return self.a1.field

    @cached_property
    def seed_offsets(self) -> Tuple[GroupElement, ...]:
        """v(a0) if a0 has terms, then v(a1) + psi_level(i) for each
        non-flat generator i in index order."""
        K, a1v = self.field, self.a1.valuation()
        head = (self.a0.valuation(),) if self.a0.terms else ()
        levels = (K.psi_level(i) for i in range(K.rank))
        return head + tuple(a1v + lvl for lvl in levels if lvl is not INFINITY)

    @cached_property
    def responses(self) -> Dict[GroupElement, Series]:
        """gamma -> a0 + a1 * logder(m_gamma), the response to the monomial
        of value gamma, filled by dominant_solve as it tries values."""
        return {}

    def __call__(self, y: Series) -> Series:
        return apply_op(self, y)


def apply_op(op: LinearOperator, y: Series) -> Series:
    return op.a0 * y + op.a1 * y.derive()


def derivation_op(field: FieldInstance) -> LinearOperator:
    return LinearOperator(field.zero_series(), field.one())


def operator_poly(op: LinearOperator, g: Optional[Series] = None) -> DiffPoly:
    """The operator (minus a right-hand side) as a differential
    polynomial a1*Y' + a0*Y - g, the bridge to the Newton-degree laws."""
    K = op.field
    P = DiffPoly(K, {(0, 1): op.a1, (1, 0): op.a0}, order=1)
    if g is not None and not g.is_true_zero():
        P = P + DiffPoly(K, {(0, 0): -g}, order=1)
    return P


# -- lambda and psi -------------------------------------------------------------


def lambda_series(depth: int, field: Optional[FieldInstance] = None) -> Series:
    """sum_{k<=depth} (l0...lk)^-1 with truncation one grid step past
    the last kept term, so products with small factors stay certified."""
    K = field if field is not None else log_fragment(depth)
    out = K.zero_series()
    for k in range(depth + 1):
        exps = {f"l{j}": -1 for j in range(k + 1)}
        out = out + K.monomial_series(K.monomial_from_dict(exps))
    last = K.monomial_value(K.monomial_from_dict({f"l{j}": -1 for j in range(depth + 1)}))
    tau = last + unit(K.rank, K.rank - 1, 1)
    return out.truncated(tau)


def psi_map(field: FieldInstance, gamma: GroupElement) -> GroupElement:
    """psi(v(m)) = v(logder of m) for the monomial m of value gamma."""
    if gamma.is_zero():
        raise VdfError("psi is undefined at 0")
    ld = field.logder_of_value(gamma)
    if not ld.terms:
        raise VdfError(f"monomial of value {gamma} has zero logarithmic derivative")
    return ld.valuation()


# -- dominant balance -----------------------------------------------------------


def dominant_solve(op: LinearOperator, z: Series) -> Series:
    """A single term h = d*m with op(h) ~ z (same dominant term).

    Candidate values for v(h) come from the finitely many response
    levels of the operator, op.seed_offsets: the seeds v(z) - offset,
    drawn lazily in that order, a seed equal to an earlier one skipped
    for free.  A candidate whose response cancels (resonance) is retried
    after all seeds, shifted by the observed response valuation.  Every
    other candidate spends one unit of the budget 3 * rank + 6; when the
    queue or the budget runs out the equation has no single-term
    solution at this depth.

    Responses are memoised in op.responses, so a later call on the same
    operator builds none again for a value already tried.
    """
    K = op.field
    if not z.terms:
        raise VdfError("dominant_solve needs a residual with a known term")
    c_target, beta = z.dominant_term()

    pure_derivation = not op.a0.terms
    attempts: List[Tuple[GroupElement, object]] = []
    seen = set()
    retries: List[GroupElement] = []

    def candidates():
        for offset in op.seed_offsets:
            gamma = beta - offset
            if gamma not in seen:
                yield gamma
        while retries:
            yield retries.pop(0)

    for gamma in islice(candidates(), 3 * K.rank + 6):
        if gamma in seen:
            continue
        seen.add(gamma)
        if pure_derivation and gamma.is_zero():
            continue
        response = op.responses.get(gamma)
        if response is None:
            response = op.responses[gamma] = op.a0 + op.a1 * K.logder_of_value(gamma)
        if not response.terms:
            # annihilated or uncertifiable in this direction
            attempts.append((gamma, response.tau))
            continue
        v_resp = response.valuation()
        if gamma + v_resp == beta:
            dom_c, _ = response.dominant_term()
            return Series(K, {gamma: c_target / dom_c}, INFINITY)
        attempts.append((gamma, v_resp))
        retry = beta - v_resp
        if retry not in seen:
            retries.append(retry)
    raise IntegrationGap(
        f"no single-term solution of op(h) ~ residual at value {beta}",
        attempts=attempts,
    )


def asym_integrate(f: Series) -> Series:
    """If: a single term with (If)' ~ f and If not asymptotic to 1.

    Exact inversion of gamma + psi(gamma) = v(f) on the grid; raises
    IntegrationGap when the required monomial lives one level deeper
    than the fragment (for example integrating (l0...lN)^-1)."""
    h = dominant_solve(derivation_op(f.field), f)
    check = h.derive()
    cd, md = check.dominant_term()
    cf, mf = f.dominant_term()
    if not (cd == cf and md == mf):
        raise AssertionError("asym_integrate postcondition (If)' ~ f failed")
    return h


# -- the solver ------------------------------------------------------------------


class SolveTrace(Record):
    """Iteration record: residual valuations are strictly increasing.
    The final entry may be the residual's truncation bound, or +infinity
    when the equation closed exactly."""

    _fields = __slots__ = ("residual_valuations", "iterates", "termination", "gap")

    def __init__(self, residual_valuations: Optional[List[GroupElement]] = None,
                 iterates: Optional[List[Series]] = None, termination: str = "max_iter",
                 gap: Optional[IntegrationGap] = None):
        self.residual_valuations = [] if residual_valuations is None else residual_valuations
        self.iterates = [] if iterates is None else iterates
        self.termination = termination
        self.gap = gap

    def as_report(self) -> dict:
        return {
            "iterations": len(self.iterates),
            "residual_valuations": [
                val_strings(v) for v in self.residual_valuations
            ],
            "termination": self.termination,
        }


def solve_linear(op: LinearOperator, g: Series, tau: GroupElement,
                 max_iter: int = 64) -> Tuple[Series, SolveTrace]:
    """Drive op(y) - g below valuation tau by dominant-balance steps.

    The residual valuation must strictly increase at every step; a
    violation raises NonDecreasingResidual.  Termination states:
    reached_tau (residual certified >= tau), integration_gap (no step
    exists; partial trace kept), truncation_exhausted (the residual is
    zero modulo its own truncation, which falls short of tau), or
    max_iter.

    Invariant: the residual z = op(y) - g is computed once and then
    carried, z <- z + op(-h) after each step y <- y - h, so a step costs
    op on one term instead of op on the whole iterate; op is linear, so
    op(-h) = -op(h), and negating the single term h is cheaper than
    negating op(h).  The carried z
    has the terms and the tau of op(y) - g recomputed.  Each h has a new
    value, since op(h) ~ z and the residual valuation rises, so v(y) is
    the least v(h) over the steps; likewise v(y') is the least v(h')
    when the h' have distinct values, as gamma -> gamma + psi(gamma) is
    injective in every built-in field.  The truncations a0*y and a1*y'
    contribute are then the least over the steps too.  (Were two h'
    to cancel, the carried tau could only be lower, never unsound.)
    """
    K = op.field
    y = K.zero_series()
    z = apply_op(op, y) - g
    trace = SolveTrace()
    prev: Optional[GroupElement] = None
    for step in range(max_iter):
        if step:
            z = z + apply_op(op, -h)
        if not z.terms:
            if z.tau >= tau:
                trace.termination = "reached_tau"
            else:
                trace.termination = "truncation_exhausted"
            trace.residual_valuations.append(z.tau)
            return y, trace
        v = z.valuation()
        trace.residual_valuations.append(v)
        if prev is not None and not prev < v:
            raise NonDecreasingResidual(
                f"residual valuation did not increase: {prev} -> {v}"
            )
        prev = v
        if v >= tau:
            trace.termination = "reached_tau"
            return y, trace
        try:
            h = dominant_solve(op, z)
        except IntegrationGap as gap:
            trace.termination = "integration_gap"
            trace.gap = gap
            return y, trace
        y = y - h
        trace.iterates.append(y)
    trace.termination = "max_iter"
    return y, trace


# -- the section-8 operators ------------------------------------------------------


def op_A(field: FieldInstance, depth: int) -> LinearOperator:
    """der - lambda over a fragment containing e_x."""
    lam = lambda_series(depth, field)
    return LinearOperator(-lam, field.one())


def op_B(field: FieldInstance, depth: int) -> LinearOperator:
    """der + (1 - lambda) over the flat fragment."""
    lam = lambda_series(depth, field)
    return LinearOperator(field.one() - lam, field.one())


def check_bll(depth: int, tau: Optional[GroupElement] = None,
              max_iter: int = 128) -> dict:
    """Solve B(y) = 1 in the flat fragment, lift along y -> y*e_x, and
    certify that (der - lambda)(y*e_x) - e_x sits above tau + v(e_x)."""
    if depth < 3:
        raise VdfError("check_bll needs depth >= 3")
    L = log_fragment(depth)
    if tau is None:
        tau = L.monomial_value(
            L.monomial_from_dict({f"l{j}": -1 for j in range(depth)})
        )
    B = op_B(L, depth)
    y, trace = solve_linear(B, L.one(), tau, max_iter=max_iter)
    solved = trace.termination == "reached_tau"

    M = transseries_fragment(depth)
    A = op_A(M, depth)
    y_M = y.embed_into(M)
    lifted = y_M * M.gen("e_x")
    residual = apply_op(A, lifted) - M.gen("e_x")
    tau_M = embed_value(L, M, tau)
    target = tau_M + M.monomial_value(M.monomial_from_dict({"e_x": 1}))
    bound = residual.val_or_tau()
    passed = solved and bound >= target
    return {
        "depth": depth,
        "flat_solve": trace.as_report(),
        "flat_residual_bound": val_strings(
            trace.residual_valuations[-1] if trace.residual_valuations else None
        ),
        "lift_residual_bound": val_strings(bound),
        "required_bound": val_strings(target),
        "passed": bool(passed),
    }


def demo_nonuniqueness(depth: int, c_list: List[Fraction],
                       tau: Optional[GroupElement] = None,
                       max_iter: int = 128) -> dict:
    """Solve (der - lambda)(y) = e_x + c for each c and report the
    residual traces, the iterate differences, and the flat discrepancy.

    The e_x-block iterations are identical for every c: the constant
    offset is invisible to the residual valuation until the e_x ladder
    is exhausted, and integrating a flat constant against the operator
    fails with a resonance cascade through l0, l0*l1, ...  The report
    surfaces that cascade: it is the leading shape of the correction
    y_c - y_0 that only exists in a proper extension.
    """
    if depth < 3:
        raise VdfError("demo_nonuniqueness needs depth >= 3")
    if not c_list:
        raise VdfError("demo_nonuniqueness needs at least one constant c")
    M = transseries_fragment(depth)
    A = op_A(M, depth)
    if tau is None:
        exps = {f"l{j}": -1 for j in range(depth)}
        exps["e_x"] = 1
        tau = M.monomial_value(M.monomial_from_dict(exps))
    runs = []
    solutions: Dict[Fraction, Series] = {}
    for c in c_list:
        c = Fraction(c)
        g = M.gen("e_x") + M.constant(c)
        y, trace = solve_linear(A, g, tau, max_iter=max_iter)
        solutions[c] = y
        entry = {"c": str(c)}
        entry.update(trace.as_report())
        runs.append(entry)
    report = {"depth": depth, "tau": val_strings(tau), "runs": runs}
    base_c = Fraction(c_list[0])
    diffs = []
    for c in c_list[1:]:
        c = Fraction(c)
        diff = solutions[c] - solutions[base_c]
        resid = apply_op(A, diff) - M.constant(c - base_c)
        entry = {
            "pair": [str(c), str(base_c)],
            "iterate_difference_terms": series_terms(diff),
            "flat_discrepancy": series_terms(resid),
        }
        try:
            dominant_solve(A, M.constant(c - base_c))
        except IntegrationGap as gap:
            cascade = []
            for gamma, _ in gap.attempts:
                if isinstance(gamma, GroupElement) and not gamma.is_zero():
                    cascade.append(monomial_strings(M, gamma))
            entry["correction_monomials"] = cascade
            if cascade:
                entry["correction_dominant"] = cascade[0]
                entry["correction_has_e_x_factor"] = any(
                    name == "e_x" and q != "0" for name, q in cascade[0]
                )
        diffs.append(entry)
    report["differences"] = diffs
    return report

