"""The thread-sharing contract: one field instance, shared by threads
that fill its idempotent caches concurrently, gives every thread the
answers of a serial run on a field of its own."""

import sys
import threading

from vdfield.expr import parse_poly
from vdfield.gridseries import transseries_fragment
from vdfield.hsolve import op_A, series_terms, solve_linear
from vdfield.newton import gamma_der, ndeg

THREADS = 4
DEPTH = 2


def _answers(M):
    """gamma_der, ndeg and solve_linear on M, in field-independent form."""
    cut = gamma_der(M)
    degrees = [ndeg(parse_poly(text, M)) for text in
               ("Y'' + e_x*Y' - Y^2 + l0", "Y'^2 + l1*Y - e_x", "l0*Y' + Y^3")]
    tau = M.monomial_value(M.monomial_from_dict(
        {"e_x": 1, **{f"l{j}": -1 for j in range(DEPTH + 1)}}))
    y, trace = solve_linear(op_A(M, DEPTH), M.gen("e_x"), tau)
    return cut, degrees, series_terms(y), trace.as_report()


def test_threads_sharing_a_fresh_field_agree_with_a_serial_run():
    expected = _answers(transseries_fragment.__wrapped__(DEPTH))
    shared = transseries_fragment.__wrapped__(DEPTH)
    start = threading.Barrier(THREADS, timeout=60)
    results = [None] * THREADS

    def work(k):
        start.wait()
        results[k] = _answers(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * THREADS
