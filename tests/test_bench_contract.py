"""The benchmark in perfbench/ still runs against the library.

perfbench/ is kept unchanged between library changes so that its numbers
compare.  Its tracer wraps library functions and methods by name (`fnk`,
`_fnk_memo`, `monomial_value`, `Cut.contains`, `Coarsening.residue`, ...)
and its workloads call the public API, so a rename or a deletion in
src/ that the benchmark reaches would only show when the benchmark ran.
This test installs the tracer and runs one round of the `conjugate` and
one of the `fragment` workload at seed 11, and asks every item to be
answered correctly.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 11
WORKLOADS = {
    "conjugate": (workloads.conjugate_setup, workloads.conjugate_rounds, 48),
    "fragment": (workloads.fragment_setup, workloads.fragment_rounds, 25),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_round_is_answered(name):
    setup, rounds, size = WORKLOADS[name]
    vd = workloads.modules()
    t = tracer.Tracer()
    t.install()
    try:
        items = next(rounds(vd, setup(vd), SEED))
        outcomes = [item() for item in items]
    finally:
        t.uninstall()
    assert len(items) == size
    assert outcomes == [workloads.OK] * size


def test_tracer_counts_gamma_der_calls_and_cache_hits():
    # the tracer wraps newton.gamma_der and reads the field's
    # _gamma_der_cut before each call to tell a cache hit
    vd = workloads.modules()
    K = workloads.fresh(vd.gridseries.transseries_fragment, 2)
    t = tracer.Tracer()
    t.install()
    try:
        first = vd.newton.gamma_der(K)
        assert vd.newton.gamma_der(K) is first
    finally:
        t.uninstall()
    snap = t.snapshot()
    assert snap["calls"]["newton.gamma_der"] == 2
    assert snap["counts"]["newton.gamma_der.hits"] == 1
