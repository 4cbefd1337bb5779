"""The thread-sharing contract: one field instance, or one operator,
shared by threads that fill its idempotent caches concurrently, gives
every thread the answers of a serial run on one of its own."""

import sys
import threading

from vdfield.expr import parse_poly
from vdfield.gridseries import series_terms, transseries_fragment
from vdfield.hsolve import op_A, solve_linear
from vdfield.newton import gamma_der, ndeg

THREADS = 4
DEPTH = 2
OP_DEPTH = 6


def _answers(M):
    """gamma_der, ndeg and solve_linear on M, in field-independent form."""
    cut = gamma_der(M)
    degrees = [ndeg(parse_poly(text, M)) for text in
               ("Y'' + e_x*Y' - Y^2 + l0", "Y'^2 + l1*Y - e_x", "l0*Y' + Y^3")]
    tau = M.monomial_value(M.monomial_from_dict(
        {"e_x": 1, **{f"l{j}": -1 for j in range(DEPTH + 1)}}))
    y, trace = solve_linear(op_A(M, DEPTH), M.gen("e_x"), tau)
    return cut, degrees, series_terms(y), trace.as_report()


def _solves(A):
    """Two solves of the depth-OP_DEPTH ladder with op A, the second
    with the responses of the first at hand, in field-independent form."""
    M = A.field
    tau = M.monomial_value(M.monomial_from_dict(
        {"e_x": 1, **{f"l{j}": -1 for j in range(OP_DEPTH)}}))
    out = []
    for g in (M.gen("e_x"), M.gen("e_x").scale(3) + M.constant(2)):
        y, trace = solve_linear(A, g, tau)
        out.append((series_terms(y), trace.as_report()))
    return out


def _in_threads(work):
    """work() on THREADS threads started together, finely interleaved."""
    start = threading.Barrier(THREADS, timeout=60)
    results = [None] * THREADS

    def run(k):
        start.wait()
        results[k] = work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_sharing_a_fresh_field_agree_with_a_serial_run():
    expected = _answers(transseries_fragment.__wrapped__(DEPTH))
    shared = transseries_fragment.__wrapped__(DEPTH)
    assert _in_threads(lambda: _answers(shared)) == [expected] * THREADS


def test_threads_sharing_one_operator_agree_with_a_serial_run():
    expected = _solves(op_A(transseries_fragment.__wrapped__(OP_DEPTH), OP_DEPTH))
    shared = op_A(transseries_fragment.__wrapped__(OP_DEPTH), OP_DEPTH)
    assert _in_threads(lambda: _solves(shared)) == [expected] * THREADS
    assert shared.responses
