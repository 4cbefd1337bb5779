"""First-order linear solving in the exp-log fragments.

The fragment fields carry the element lambda = sum (l0...lk)^-1 and the
operators A = der - lambda and B = der + (1 - lambda).  Equations
op(y) = g are solved by dominant balance: each step finds a single term
h with op(h) asymptotically equal to the residual and subtracts it, so
the residual valuation strictly increases; the residual moves by op(h),
h times the response memoised for v(h), added to it in one pass.  When the
residual sits in a class the operator cannot reach (the depth-N shadow
of the gap phenomenon) the step fails with IntegrationGap and the
attempt trail records the resonance cascade.  Each operator memoises
its responses by v(h) and its successful balances by v(residual), never a
failure; solver_family holds A and B on their fields for every driver.

Asymptotic integration I (pick If with (If)' ~ f) is the special case
op = der.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError, IntegrationGap, NonDecreasingResidual, VdfError
from .gridseries import (
    FieldInstance,
    Series,
    _sum_series,
    embed_value,
    log_fragment,
    monomial_strings,
    series_terms,
    transseries_fragment,
    val_strings,
)
from .records import FrozenRecord, Record
from .valgroup import INFINITY, GroupElement, _frac, unit


class LinearOperator(FrozenRecord):
    """a0 + a1 * der, applied as y -> a0*y + a1*y'.  Its seed_offsets,
    responses (keyed on v(h)) and balances (keyed on v(residual)) follow
    from the field's logders and are kept in the instance __dict__ (hence no
    __slots__) by FieldInstance._derived, so a replaced logder rebuilds them."""

    _fields = ("a0", "a1")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.a1.is_true_zero():
            raise VdfError("a1 must be nonzero for a first-order operator")

    @property
    def field(self) -> FieldInstance:
        return self.a1.field

    @property
    def seed_offsets(self) -> Tuple[GroupElement, ...]:
        """v(a0) if a0 has terms, then v(a1) + psi_level(i) for each
        non-flat generator i in index order."""
        def build():
            K, a1v = self.field, self.a1.valuation()
            head = (self.a0.valuation(),) if self.a0.terms else ()
            levels = (K.psi_level(i) for i in range(K.rank))
            return head + tuple(a1v + lvl for lvl in levels if lvl is not INFINITY)
        return self.field._derived("seed_offsets", build, self)

    @property
    def responses(self) -> Dict[GroupElement, Series]:
        """gamma -> a0 + a1 * logder(m_gamma), the response to the monomial
        of value gamma, filled by dominant_solve as it tries values."""
        return self.field._derived("responses", dict, self)

    @property
    def balances(self) -> Dict[GroupElement, Tuple[GroupElement, Fraction]]:
        """beta -> (gamma, d): gamma + v(response at gamma) = beta, d that
        response's dominant coefficient; filled by dominant_solve."""
        return self.field._derived("balances", dict, self)


def apply_op(op: LinearOperator, y: Series) -> Series:
    return op.a0 * y + op.a1 * y.derive()


def derivation_op(field: FieldInstance) -> LinearOperator:
    return LinearOperator(field.zero_series(), field.one())


def operator_poly(op: LinearOperator, g: Optional[Series] = None) -> DiffPoly:
    """The operator (minus a right-hand side) as a differential
    polynomial a1*Y' + a0*Y - g, the bridge to the Newton-degree laws."""
    from .diffpoly import DiffPoly
    K = op.field
    P = DiffPoly(K, {(0, 1): op.a1, (1, 0): op.a0}, order=1)
    if g is not None and not g.is_true_zero():
        P = P + DiffPoly(K, {(0, 0): -g}, order=1)
    return P


# -- lambda and psi -------------------------------------------------------------


def lambda_series(depth: int, field: Optional[FieldInstance] = None) -> Series:
    """lambda = sum_{k<=depth} l_k-logder = sum_{k<=depth} (l0...lk)^-1,
    the field's own ladder, truncated one grid step past the last kept
    term, so products with small factors stay certified; built in one term
    dict by _ladder, which also builds op_A's -lambda and op_B's 1 - lambda."""
    return _ladder(field if field is not None else log_fragment(depth), depth, 1)


def _ladder(K: FieldInstance, depth: int, sign: int, *head: Series) -> Series:
    """The sum of head and sign * lambda, in one term dict, at lambda's tau."""
    if type(depth) is not int or depth < 0 or f"l{depth}" not in K._index:  # a bool is no int
        raise ConfigError(f"field {K.name!r} has no ladder of depth {depth!r}")
    rungs = [K._logder(K.index_of(f"l{k}")) for k in range(depth + 1)]
    tau = rungs[-1].valuation() + unit(K.rank, K.rank - 1, 1)
    return _sum_series(K, [*head, *rungs], [1] * len(head) + [sign] * len(rungs), tau)


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
    operator builds none again for a value already tried.  The search
    depends on beta = v(z) alone: a success is memoised in op.balances and
    a later residual of value beta skips it; a failure is searched again.
    """
    K = op.field
    if not z.terms:
        raise VdfError("dominant_solve needs a residual with a known term")
    c_target, beta = z.dominant_term()
    balance = op.balances.get(beta)
    if balance:
        return K.term(balance[0], c_target / balance[1])

    pure_derivation = not op.a0.terms
    responses = op.responses
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
        response = responses.get(gamma)
        if response is None:
            response = responses[gamma] = op.a0 + op.a1 * K.logder_of_value(gamma)
        if not response.terms:
            # annihilated or uncertifiable in this direction
            attempts.append((gamma, response.tau))
            continue
        v_resp = response.valuation()
        if gamma + v_resp == beta:
            dom_c, _ = response.dominant_term()
            op.balances[beta] = gamma, dom_c
            return K.term(gamma, c_target / dom_c)
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
    return dominant_solve(derivation_op(f.field), f)


# -- the solver ------------------------------------------------------------------


class SolveTrace(Record):
    """Iteration record: residual valuations are strictly increasing.
    The final entry may be the residual's truncation bound, or +infinity
    when the equation closed exactly."""

    _fields = __slots__ = ("residual_valuations", "iterates", "termination", "gap")
    _defaults = (None, None, "max_iter", None)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a fresh list per trace, as the steps append to them
        if self.residual_valuations is None:
            self.residual_valuations = []
        if self.iterates is None:
            self.iterates = []

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

    Invariant: z = op(y) - g starts as -g = op(0) - g and is carried as
    z <- z + (-h)*r after each step y <- y + (-h), with r = a0 +
    a1*m-logder the response dominant_solve memoised at v(h): the single
    exact term h = c*m has op(h) = h*r, whose tau v(h) + min(a0.tau,
    a1.tau + v(m-logder), m-logder.tau + v(a1)) is that of a0*h + a1*h'.
    So a step is one pass (Series._plus_term_times), and z has the terms
    and tau of op(y) - g recomputed: each h has a new value, since op(h) ~ z and
    the residual valuation rises, so v(y) is the least v(h); likewise
    v(y') is the least v(h') when the h' have distinct values, as gamma ->
    gamma + psi(gamma) is injective in every built-in field, and the
    truncations of a0*y and a1*y' are the least over the steps.  (Were
    two h' to cancel, the carried tau could only be lower, never unsound.)
    """
    y = op.field.zero_series()
    z = -g
    trace = SolveTrace()
    prev: Optional[GroupElement] = None
    for step in range(max_iter):
        if step:
            z = z._plus_term_times(mh, op.responses[mh.valuation()])
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
        y = y + (mh := -h)
        trace.iterates.append(y)
    trace.termination = "max_iter"
    return y, trace


# -- the section-8 operators ------------------------------------------------------


def op_A(field: FieldInstance, depth: int) -> LinearOperator:
    """der - lambda over a fragment containing e_x; -lambda built in one term dict."""
    return LinearOperator(_ladder(field, depth, -1), field.one())


def op_B(field: FieldInstance, depth: int) -> LinearOperator:
    """der + (1 - lambda) over the flat fragment; 1 - lambda built in one term dict."""
    return LinearOperator(_ladder(field, depth, -1, field.one()), field.one())


def _held(make, field: FieldInstance, depth: int) -> LinearOperator:
    """make(field, depth), kept on the field by FieldInstance._derived."""
    return field._derived(f"_{make.__name__}_{depth}", lambda: make(field, depth))


# solver family -> its field, its operator and its default right-hand side
_FAMILIES = {"A": (transseries_fragment, op_A, lambda K: K.gen("e_x")),
             "B": (log_fragment, op_B, FieldInstance.one)}


def solver_family(name: str, depth: int) -> Tuple[FieldInstance, LinearOperator, Series]:
    """The field of the family name ("A" or "B") at depth, its operator,
    held on the field, and its default right-hand side."""
    field_of, op_of, rhs_of = _FAMILIES[name]
    K = field_of(depth)
    return K, _held(op_of, K, depth), rhs_of(K)


def check_bll(depth: int, tau: Optional[GroupElement] = None,
              max_iter: int = 128) -> dict:
    """Solve B(y) = 1 in the flat fragment, lift along y -> y*e_x, and
    certify that (der - lambda)(y*e_x) - e_x sits above tau + v(e_x)."""
    if depth < 3:
        raise VdfError("check_bll needs depth >= 3")
    L, B, one = solver_family("B", depth)
    if tau is None:
        tau = L._logder(L.index_of(f"l{depth - 1}")).valuation()
    y, trace = solve_linear(B, one, tau, max_iter=max_iter)
    solved = trace.termination == "reached_tau"

    M, A, e_x = solver_family("A", depth)
    residual = apply_op(A, y.embed_into(M) * e_x) - e_x
    target = embed_value(L, M, tau) + e_x.valuation()
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
    c_list = [_frac(c) for c in c_list]
    for i, c in enumerate(c_list):
        if c in c_list[:i]:  # two equal constants leave no difference to solve
            raise VdfError(f"demo_nonuniqueness needs distinct constants; c = {c} is repeated")
    M, A, e_x = solver_family("A", depth)
    if tau is None:
        tau = M._logder(M.index_of(f"l{depth - 1}")).valuation() + e_x.valuation()
    runs = []
    solutions: Dict[Fraction, Series] = {}
    for c in c_list:
        y, trace = solve_linear(A, e_x + M.constant(c), tau, max_iter=max_iter)
        solutions[c] = y
        entry = {"c": str(c)}
        entry.update(trace.as_report())
        runs.append(entry)
    report = {"depth": depth, "tau": val_strings(tau), "runs": runs}
    base_c = c_list[0]
    diffs = []
    for c in c_list[1:]:
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
                if not gamma.is_zero():
                    cascade.append(monomial_strings(M, gamma))
            entry["correction_monomials"] = cascade
            if cascade:
                entry["correction_dominant"] = cascade[0]
                entry["correction_has_e_x_factor"] = any(
                    name == "e_x" for name, _ in cascade[0])
        diffs.append(entry)
    report["differences"] = diffs
    return report

