"""Acceptance suite: one test per release criterion, exact tolerances.

Every check is tolerance-zero (exact rational equality); the only
numeric bounds are the per-criterion runtime budgets.  Each test prints
a single PASS/FAIL line for its criterion.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import (
    random_bounded_series,
    random_poly,
    random_series,
    random_small_series,
    random_unit_series,
    random_value,
    rat,
    same_terms,
)
from vdfield.coarsen import coarsen, lift_val
from vdfield.diffpoly import (
    DiffPoly,
    add_conj,
    comp_conj,
    dominant,
    fnk,
    mul_conj,
    rational_field,
)
from vdfield.gridseries import (
    laurent_ddt,
    laurent_tddt_coarse,
    log_fragment,
    transseries_fragment,
)
from vdfield.hsolve import check_bll, lambda_series, op_A, solve_linear
from vdfield.newton import breakpoints, gamma_der, ndeg, s_der, tropical_ddeg
from vdfield.valgroup import Cut, GroupElement, zero

from test_diffpoly import chain_rule_images

REPO = Path(__file__).resolve().parent.parent
SMALL_DER = (laurent_tddt_coarse, lambda: transseries_fragment(2))


def _report(num, name, failures, elapsed=None, budget=None):
    ok = not failures
    if budget is not None and elapsed is not None and elapsed >= budget:
        ok = False
        failures = list(failures) + [f"runtime {elapsed:.1f}s >= {budget}s"]
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, failures


def test_criterion_1_f_kernel():
    t0 = time.perf_counter()
    failures = []
    Q = rational_field()
    X = DiffPoly.variable(Q, 0)
    Xp = DiffPoly.variable(Q, 1)
    if fnk(0, 0) != DiffPoly.from_coeff(Q, Q.one()):
        failures.append("F(0,0) != 1")
    if fnk(1, 1) != X:
        failures.append("F(1,1) != X")
    if fnk(2, 1) != Xp:
        failures.append("F(2,1) != X'")
    if fnk(2, 2) != X * X:
        failures.append("F(2,2) != X^2")
    K = laurent_ddt()
    rng = random.Random(101)
    for _ in range(100):
        phi = random_series(K, rng, nterms=2)
        for n in range(0, 6):
            got = comp_conj(DiffPoly.variable(K, n), phi)
            want = chain_rule_images(phi, n)
            for k in range(n + 1):
                idx = tuple(1 if j == k else 0 for j in range(n + 1))
                if got.coefficient(idx) != want.get(k, K.zero_series()):
                    failures.append(f"kernel identity failed at n={n}, k={k}")
    _report(1, "compositional kernel", failures,
            time.perf_counter() - t0, budget=5.0)


def test_criterion_2_tropical_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(202)
    cases = 0
    for make in SMALL_DER:
        K = make()
        while cases < 250 * (1 if K.rank == 2 else 2):
            P = random_poly(K, rng, order=3, max_degree=4)
            gammas = [random_value(K, rng) for _ in range(2)]
            gammas += breakpoints(P)[:2]
            for gamma in gammas:
                if not gamma < zero(K.rank):
                    continue
                phi = K.monomial_series(K.monomial_of_value(gamma))
                lhs = tropical_ddeg(P, gamma)
                rhs = dominant(comp_conj(P, phi)).ddeg
                cases += 1
                if lhs != rhs:
                    failures.append(f"mismatch {lhs} != {rhs} at {gamma}")
    if cases < 500:
        failures.append(f"only {cases} cases generated")
    _report(2, f"tropical oracle, {cases} cases", failures,
            time.perf_counter() - t0, budget=30.0)


def test_criterion_3_degree_laws():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(303)

    def trials(law, fn, n=300):
        bad = 0
        for i in range(n):
            K = SMALL_DER[i % 2]()
            if not fn(K):
                bad += 1
        if bad:
            failures.append(f"{law}: {bad}/{n} failures")

    def law_product(K):
        P = random_poly(K, rng, order=1, max_degree=2)
        Q = random_poly(K, rng, order=1, max_degree=2)
        return dominant(P * Q).ddeg == dominant(P).ddeg + dominant(Q).ddeg

    def law_additive(K):
        P = random_poly(K, rng, order=2, max_degree=3)
        a = random_bounded_series(K, rng)
        return dominant(add_conj(P, a)).ddeg == dominant(P).ddeg

    def law_two_sided(K):
        P = random_poly(K, rng, order=1, max_degree=2)
        g = K.monomial_series(K.monomial_of_value(random_value(K, rng)),
                              rat(rng, 1, 3))
        b = random_series(K, rng, nterms=2)
        a = b + g * random_bounded_series(K, rng)
        return dominant(mul_conj(add_conj(P, a), g)).ddeg == \
            dominant(mul_conj(add_conj(P, b), g)).ddeg

    def law_monotone(K):
        P = random_poly(K, rng, order=1, max_degree=2)
        vh = random_value(K, rng)
        g = K.monomial_series(
            K.monomial_of_value(vh + random_small_series(K, rng).valuation())
        )
        h = K.monomial_series(K.monomial_of_value(vh))
        return dominant(mul_conj(P, g)).ddeg <= dominant(mul_conj(P, h)).ddeg

    def law_comp_unit(K):
        P = random_poly(K, rng, order=2, max_degree=3)
        phi = random_unit_series(K, rng)
        return dominant(comp_conj(P, phi)).ddeg == dominant(P).ddeg

    def law_ndeg(K):
        P = random_poly(K, rng, order=1, max_degree=2)
        Q = random_poly(K, rng, order=1, max_degree=2)
        if ndeg(P * Q) != ndeg(P) + ndeg(Q):
            return False
        u = random_unit_series(K, rng)
        if ndeg(comp_conj(P, u)) != ndeg(P):
            return False
        mono = K.monomial_series(K.monomial_of_value(random_value(K, rng)),
                                 rat(rng, 1, 3))
        shifted = gamma_der(K).shift_by_prefix(mono.valuation())
        return ndeg(comp_conj(P, mono), cut=shifted, twist=mono) == ndeg(P)

    trials("ddeg product additivity", law_product)
    trials("ddeg additive invariance", law_additive)
    trials("ddeg two-sided conjugation", law_two_sided)
    trials("ddeg multiplicative monotonicity", law_monotone)
    trials("ddeg compositional unit invariance", law_comp_unit)
    trials("ndeg additivity and invariance", law_ndeg)
    _report(3, "degree laws, 6 x 300 trials", failures,
            time.perf_counter() - t0)


def test_criterion_4_invariant_cuts():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(404)

    K1 = laurent_ddt()
    if gamma_der(K1) != Cut.prefix(1, [-1], inclusive=True):
        failures.append("laurent cut wrong")
    if s_der(K1).prefix_len != 1:
        failures.append("laurent stabilizer wrong")

    K2 = laurent_tddt_coarse()
    if gamma_der(K2) != Cut.prefix(2, [0], inclusive=True):
        failures.append("coarse cut wrong")
    if s_der(K2).prefix_len != 1:
        failures.append("coarse stabilizer wrong")

    M = transseries_fragment(3)
    expect = M.monomial_value(
        M.monomial_from_dict({f"l{j}": -1 for j in range(4)})
    )
    cutM = gamma_der(M)
    if not (cutM.has_max() and cutM.max_element() == expect):
        failures.append("fragment cut wrong")
    if s_der(M).prefix_len != M.rank:
        failures.append("fragment stabilizer wrong")

    # 300-sample membership oracle per instance, zero discrepancies
    for K in (K1, K2, M):
        cut = gamma_der(K)
        derivative_vals = []
        for _ in range(120):
            coords = [Fraction(0)] * K.rank
            p = rng.randrange(K.rank)
            coords[p] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for j in range(p + 1, K.rank):
                coords[j] = rat(rng, -4, 4)
            delta = GroupElement(coords)
            mono = K.monomial_of_value(delta)
            ld = K.logder_of_value(K.monomial_value(mono))
            if ld.terms:
                derivative_vals.append(delta + ld.valuation())
        for _ in range(300):
            gamma = random_value(K, rng, lo=-6, hi=6)
            inside = cut.contains(gamma)
            if inside and not all(gamma < dv for dv in derivative_vals):
                failures.append(f"{K.name}: member {gamma} fails the bound")
    _report(4, "invariant cuts and stabilizers", failures,
            time.perf_counter() - t0)


def test_criterion_5_lambda_and_derivation_rules():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(505)
    for depth in range(0, 9):
        L = log_fragment(depth + 1)
        tail = L.zero_series()
        for n in range(1, depth + 2):
            tail = tail + L.gen(f"l{n}")
        if not same_terms(tail.derive(), lambda_series(depth, L)):
            failures.append(f"lambda identity fails at depth {depth}")
    M = transseries_fragment(4)
    for _ in range(200):
        r = rat(rng, -5, 5)
        if r == 0:
            continue
        e = M.gen("e_x", r)
        if e.derive() != e.scale(r):
            failures.append("exponential rule failed")
        if M.gen("l0", r).derive() != M.gen("l0", r - 1).scale(r):
            failures.append("first log rule failed")
        n = rng.randint(0, 3)
        expect = {f"l{j}": -1 for j in range(n + 1)}
        expect[f"l{n + 1}"] = r - 1
        if M.gen(f"l{n + 1}", r).derive() != M.monomial_series(
            M.monomial_from_dict(expect), r
        ):
            failures.append("iterated log rule failed")
    _report(5, "lambda and derivation rules", failures,
            time.perf_counter() - t0)


def test_criterion_6_solver():
    t0 = time.perf_counter()
    failures = []
    M = transseries_fragment(6)
    A = op_A(M, 6)
    exps = {f"l{j}": -1 for j in range(6)}
    exps["e_x"] = 1
    tau = M.monomial_value(M.monomial_from_dict(exps))
    y, trace = solve_linear(A, M.gen("e_x"), tau, max_iter=64)
    vals = trace.residual_valuations
    if not all(a < b for a, b in zip(vals, vals[1:])):
        failures.append("residual valuations not strictly increasing")
    if not (trace.termination == "reached_tau" and vals[-1] == tau):
        failures.append(
            f"did not terminate at the target: {trace.termination}, {vals[-1]}"
        )
    if len(trace.iterates) < 12:
        failures.append(
            f"only {len(trace.iterates)} iterations; the residual ladder "
            "below the target has one rung per lambda term (7 at depth 6), "
            "so a 12-step trace cannot exist for this target"
        )
    rep = check_bll(6)
    if not rep["passed"]:
        failures.append("exponential-shift solve check failed")
    _report(6, "first-order solver", failures,
            time.perf_counter() - t0, budget=60.0)


def test_criterion_7_coarsening():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(707)

    # smallness transfer, 200 samples across the small-derivation instances
    for make, k in ((laurent_tddt_coarse, 1), (lambda: transseries_fragment(3), 1)):
        K = make()
        half = coarsen(K, k)
        count = 0
        while count < 100:
            coords = [Fraction(rng.randint(1, 4), rng.randint(1, 2))]
            coords += [rat(rng, -4, 4) for _ in range(K.rank - 1)]
            f = K.monomial_series(K.monomial_of_value(GroupElement(coords)),
                                  rat(rng, 1, 4))
            if not f.terms:
                continue
            df = f.derive()
            if not df.terms:
                continue
            count += 1
            if not half.coarse_val(df) > zero(k):
                failures.append(f"smallness transfer broken at {coords}")

    # derivative values above the whole cut: 200 x 100 samples
    K = laurent_tddt_coarse()
    cut = gamma_der(K)
    for _ in range(200):
        f = K.zero_series()
        for _ in range(2):
            a = Fraction(rng.randint(0, 4), rng.randint(1, 2))
            b = rat(rng, -5, 5)
            f = f + K.monomial_series(K.monomial_from_dict({"t": a, "s": b}),
                                      rat(rng, -4, 4))
        df = f.derive()
        if not df.terms:
            continue
        v = df.valuation()
        for _ in range(100):
            gamma = GroupElement(
                [-Fraction(rng.randint(0, 6), rng.randint(1, 3)),
                 rat(rng, -8, 8)]
            )
            if not v > gamma:
                failures.append(f"derivative bound broken: {v} vs {gamma}")
                break

    # lift round trip, 300 samples
    half = coarsen(K, 1)
    for _ in range(300):
        f = random_series(K, rng, nterms=3)
        got = lift_val(half.coarse_val(f), half.unit_part_residue_val(f))
        if got != f.valuation():
            failures.append(f"lift round trip broken at {f}")
    _report(7, "coarsening laws", failures, time.perf_counter() - t0)


def test_criterion_8_asymptotic_law():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(808)
    M = transseries_fragment(6)
    checked = 0
    while checked < 200:
        f = random_small_series(M, rng)
        g = random_small_series(M, rng)
        df, dg = f.derive(), g.derive()
        if not df.terms or not dg.terms:
            continue
        checked += 1
        if (f.valuation() > g.valuation()) != (df.valuation() > dg.valuation()):
            failures.append(f"asymptotic law broken for {f}, {g}")
    _report(8, "asymptotic field law, 200 pairs", failures,
            time.perf_counter() - t0)


def test_criterion_9_cli():
    t0 = time.perf_counter()
    failures = []

    def run_cli(args):
        return subprocess.run(
            [sys.executable, "-m", "vdfield.cli"] + args,
            capture_output=True, cwd=REPO,
        )

    cases = [
        (["ndeg", "--field", "configs/laurent.json", "Y^2 + t*Y'"],
         b'{"ndeg": 2}\n'),
        (["s-der", "--field", "configs/tddt.json"], b'{"prefix_len": 1}\n'),
        (["val", "--field", "configs/laurent.json", "t + t^2"],
         b'{"v": ["1"]}\n'),
    ]
    for args, expected in cases:
        proc = run_cli(args)
        if proc.returncode != 0 or proc.stdout != expected:
            failures.append(f"documented invocation broken: {args}")

    from vdfield.expr import parse_expr, print_expr
    for text in ["Y'^2*Y - 3/2*t", "t^-1/2*(1 + s)", "-(Y'' + 2)*l0^-1"]:
        try:
            ast = parse_expr(text)
            if parse_expr(print_expr(ast)) != ast:
                failures.append(f"round trip broken for {text!r}")
        except Exception as exc:  # noqa: BLE001 - report, not crash
            if "l0" not in text and "s" not in text:
                failures.append(f"parse failed for {text!r}: {exc}")

    probe = ["breakpoints", "--field", "configs/laurent.json", "Y^2 + t*Y'"]
    if run_cli(probe).stdout != run_cli(probe).stdout:
        failures.append("nondeterministic output")
    _report(9, "command surface", failures, time.perf_counter() - t0)
