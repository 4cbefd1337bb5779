"""Interleaved in-process timing of two commits on one benchmark workload.

    python3 tools/interleave.py --a <ref> --b <ref> \\
        --workload {conjugate,fragment} [--rounds N] [--repeats R]

Refs are read in the git checkout that holds this file.  Each ref's files
are exported with `git archive`, and its src/vdfield is imported under
its own package name, so both versions of the library live in one
process.  The items of the workload (this checkout's perfbench/workloads.py
at seed 11, the same inputs for both sides) run alternately on the two
sides, one item at a time, and the side that runs first flips from
repeat to repeat: a machine whose speed drifts slows both sides alike.
Each side's set-up of the workload (its fields, operators and values)
runs once per repeat, timed too, in the same order as the items.
Before each repeat both sides empty the caches of their built-in fields,
which also hold the solver drivers' operators and memos, and the memo of
the kernels F(n, k), so every repeat pays the cold start a benchmark run
pays.

Per repeat it prints time(a) / time(b) summed over the items (above 1:
b is faster) and the same ratio of the set-ups and, last, the median of
each over the repeats.  Every item must answer OK on both sides; the
exit status is 1 otherwise.  This supplements tools/bench_pairs.py,
which times whole benchmark runs in fresh processes, and does not
replace it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
import workloads as W  # noqa: E402
from bench_pairs import export  # noqa: E402

CLOCK = time.perf_counter
SEED = 11
# the lru-cached field constructors of gridseries
BUILTIN_FIELDS = ("transseries_fragment", "log_fragment", "laurent_ddt", "laurent_tddt_coarse")


def load(package: str, src: Path) -> SimpleNamespace:
    """The vdfield layers of src/vdfield, imported as package.<layer>."""
    init = src / "vdfield" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}")
                              for name in W.LAYERS})


def clear_builtin_fields(vd) -> None:
    """Empty the caches of the built-in fields, and with them the
    operators and memos the solver drivers keep on those fields, and the
    memo of F(n, k).  rational_field() stays cached: the kernels built
    again share its Q."""
    for name in BUILTIN_FIELDS:
        getattr(vd.gridseries, name).cache_clear()
    vd.diffpoly._fnk_memo.clear()


def items(vd, workload: str, ctx, seed: int, rounds: int) -> list:
    gen = (W.conjugate_rounds if workload == "conjugate" else W.fragment_rounds)(vd, ctx, seed)
    return [item for batch in islice(gen, rounds) for item in batch]


def interleave(sides, workload: str, seed: int, rounds: int, repeats: int) -> tuple:
    """(item ratios, set-up ratios): time(a) / time(b) per repeat; raises
    if an item is not OK."""
    setup = W.conjugate_setup if workload == "conjugate" else W.fragment_setup
    ratios, setup_ratios = [], []
    for r in range(repeats):
        # fresh fields, as a benchmark run builds: no memo of a repeat is reused
        for vd in sides:
            clear_builtin_fields(vd)
        order = (0, 1) if r % 2 == 0 else (1, 0)
        ctxs, built = [None, None], [0.0, 0.0]
        gc.collect()
        for s in order:
            t0 = CLOCK()
            ctxs[s] = setup(sides[s])
            built[s] = CLOCK() - t0
        runs = [items(vd, workload, ctx, seed, rounds) for vd, ctx in zip(sides, ctxs)]
        spent = [0.0, 0.0]
        gc.collect()
        for j in range(len(runs[0])):
            for s in order:
                t0 = CLOCK()
                outcome = runs[s][j]()
                spent[s] += CLOCK() - t0
                if outcome != W.OK:
                    raise RuntimeError(f"item {j} on side {'ab'[s]} answered {outcome}")
        ratios.append(spent[0] / spent[1])
        setup_ratios.append(built[0] / built[1])
        print(f"repeat {r}: a {spent[0]:.3f} s, b {spent[1]:.3f} s, "
              f"ratio {ratios[-1]:.4f} ({len(runs[0])} items, a first: {order[0] == 0}), "
              f"set-up a {built[0] * 1e3:.3f} ms, b {built[1] * 1e3:.3f} ms, "
              f"set-up ratio {setup_ratios[-1]:.4f}", flush=True)
    return ratios, setup_ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="the reference commit")
    ap.add_argument("--b", required=True, help="the commit compared with it")
    ap.add_argument("--workload", choices=("conjugate", "fragment"), required=True)
    ap.add_argument("--rounds", type=int, default=1, help="workload rounds per repeat")
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        sides = []
        for name, ref in (("a", args.a), ("b", args.b)):
            export(ROOT, ref, Path(tmp) / name)
            sides.append(load(f"vdfield_{name}", Path(tmp) / name / "src"))
        try:
            ratios, setup_ratios = interleave(sides, args.workload, SEED, args.rounds,
                                              args.repeats)
        except RuntimeError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
    print(f"median ratio a/b over {len(ratios)} repeats: {statistics.median(ratios):.4f}, "
          f"set-up {statistics.median(setup_ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
