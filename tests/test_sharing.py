"""The thread-sharing contract: one field instance, or one operator,
shared by threads that fill its idempotent caches concurrently, gives
every thread the answers of a serial run on one of its own."""

import sys
import threading
from fractions import Fraction

from vdfield.expr import parse_poly
from vdfield.gridseries import log_fragment, series_terms, transseries_fragment
from vdfield.hsolve import _held, check_bll, demo_nonuniqueness, op_A, op_B, solve_linear
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


def _derivatives(M):
    """Two derivatives of one series of M, in field-independent form."""
    f = M.gen("e_x").scale(3) + M.gen("l1") * M.gen("l0") + M.constant(2)
    return [series_terms(g) for g in (f.derive(), f.derive().derive())]


def test_threads_deriving_on_a_fresh_field_agree_with_a_serial_run():
    # the first derive of a field builds its sparse value matrix: a
    # short window, so the race is run on several fresh fields
    expected = _derivatives(transseries_fragment.__wrapped__(DEPTH))
    for _ in range(10):
        shared = transseries_fragment.__wrapped__(DEPTH)
        assert shared._euler is None
        assert _in_threads(lambda: _derivatives(shared)) == [expected] * THREADS


# Polynomials of orders 1-3 with powers of each derivative up to the fourth.
NDEG_TEXTS = ("Y'^4 + e_x*Y^2 - l0", "Y''^3*Y' + l1*Y'^2 - e_x*Y", "Y'''^2 + Y''^4 - l0*Y'^3",
              "e_x*Y'''*Y'^2 + Y''^2*Y - 1", "Y'^3 - l1*Y''^2 + Y^4")


def _held_degrees(M):
    """ndeg of the NDEG_TEXTS on M, each through the normalization held on M."""
    return [ndeg(parse_poly(text, M)) for text in NDEG_TEXTS]


def _held_powers(M):
    """{order: {(j, e): the held power of image j, in field-independent
    form}} of the normalization tables ndeg holds on M."""
    return {name.rsplit("_", 1)[1]: {key: [(i, series_terms(c)) for i, c in power]
                                     for key, power in held[1][1].items()}
            for name, held in vars(M).items() if name.startswith("_ndeg_images_")}


def test_threads_filling_the_held_ndeg_normalization_agree_with_a_serial_run():
    # the images are held first, so the threads fill one table of powers
    # per order at once: a short window, so the race is run on several fields
    def primed():
        M = transseries_fragment.__wrapped__(DEPTH)
        for text in ("Y'", "Y''", "Y'''"):
            ndeg(parse_poly(text, M))
        return M

    serial = primed()
    expected = _held_degrees(serial)
    assert set(_held_powers(serial)) == {"1", "2", "3"}
    for _ in range(20):
        shared = primed()
        assert _in_threads(lambda: _held_degrees(shared)) == [expected] * THREADS
        assert _held_powers(shared) == _held_powers(serial)


def _driver_reports():
    """check_bll and demo_nonuniqueness at OP_DEPTH, on the cached fields."""
    return check_bll(OP_DEPTH), demo_nonuniqueness(OP_DEPTH, [Fraction(0), Fraction(5, 2)])


def test_threads_running_the_drivers_on_shared_cached_fields_agree_with_a_serial_run():
    transseries_fragment.cache_clear()
    log_fragment.cache_clear()
    expected = _driver_reports()
    transseries_fragment.cache_clear()
    log_fragment.cache_clear()
    # the fields every thread shares, with no operator held on them yet
    L, M = log_fragment(OP_DEPTH), transseries_fragment(OP_DEPTH)
    assert [name for name in (*vars(L), *vars(M)) if name.startswith("_op_")] == []
    assert _in_threads(_driver_reports) == [expected] * THREADS
    assert _held(op_B, L, OP_DEPTH).balances and _held(op_A, M, OP_DEPTH).balances
