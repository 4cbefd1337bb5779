"""Interleaved timing of two commits on one benchmark workload.

    python3 tools/interleave.py --a <ref> --b <ref> \\
        --workload {cli,conjugate,fragment} [--rounds N] [--repeats R]

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
b is faster) and the same ratio of the set-ups.  The side that runs
first is favoured or slowed by the machine (its caches, its clock), so
the repeats of each order are summarized apart: it prints, for the items
and the set-ups, the median over the repeats a ran first in, that over
the repeats b ran first in, and their geometric mean, the ratio, in
which an order's bias enters each median with opposite signs and
cancels.  --repeats must be even, so both orders count alike.  Last
comes one JSON line: {"ratios": [...], "setup_ratios": [...], "ratio":
..., "setup_ratio": ..., "order_medians": {"items": [a first, b first],
"setup": [...]}}, the two ratios of each repeat and the summaries, which
tools/bench_pairs.py reads.  Every item must answer OK on both sides;
the exit status is 1 otherwise.  This supplements tools/bench_pairs.py,
which times whole benchmark runs in fresh processes, and does not
replace it.

The cli workload runs every process cold instead, from each side's copy
with that copy's src/ on PYTHONPATH: the `vdf` invocations of N passes
of this checkout's perfbench/cliload.py at seed 11, `python -c "import
vdfield.cli"` (its set-up, as perfbench/run.py times it) and `python -c
pass` (the interpreter's floor), one process of each side in turn, the
side that runs first flipping from repeat to repeat.  Per repeat it
prints the same line as above, the items being the `vdf` invocations;
then, per subcommand and for `import`, `pass` and `all` (every
invocation), the ratio of each side's least time over the repeats (each
invocation's least, summed) and the ratio of each side's total time;
the JSON line holds these too, as "labels": {label: {"least": ratio,
"total": ratio}}.  A process whose exit code or stdout differs between
the sides makes the exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
import cliload  # noqa: E402
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


def by_order(ratios: list) -> tuple:
    """(median over the repeats a ran first in, median over those b ran
    first in, their geometric mean) of the per-repeat ratios: a runs first
    in the even repeats."""
    a_first, b_first = statistics.median(ratios[0::2]), statistics.median(ratios[1::2])
    return a_first, b_first, math.sqrt(a_first * b_first)


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


# the first two cold processes of the cli workload: the floor and the set-up
CLI_FLOOR = [("pass", ["-c", "pass"]), ("import", ["-c", "import vdfield.cli"])]


def cli_processes(seed: int, rounds: int) -> list:
    """(label, interpreter arguments) of each cold process of the cli
    workload: CLI_FLOOR, then the vdf invocations of the passes."""
    # the checks of cliload are not run: the two sides' outputs are compared
    return CLI_FLOOR + [(cmd.subcommand, ["-m", "vdfield.cli", *cmd.argv])
                        for p in range(rounds) for cmd in cliload.commands(seed, p, None)]


def run_cold(copy: Path, args: list) -> tuple:
    """(seconds, exit code, stdout) of one fresh interpreter in copy, on copy's src/."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    t0 = CLOCK()
    proc = subprocess.run([sys.executable, *args], cwd=copy, env=env, capture_output=True,
                          timeout=600)
    return CLOCK() - t0, proc.returncode, proc.stdout


def interleave_cli(copies, seed: int, rounds: int, repeats: int) -> tuple:
    """(item ratios, set-up ratios) per repeat, as interleave() returns them,
    and {label: (least a, least b, total a, total b)} in seconds; raises if
    a process's exit code or stdout differs between the sides."""
    runs = cli_processes(seed, rounds)
    spent = [[[] for _ in runs] for _ in copies]  # spent[s][j]: process j's times
    ratios, setup_ratios = [], []
    for r in range(repeats):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for j, (label, args) in enumerate(runs):
            outcome = [None, None]
            for s in order:
                dt, *outcome[s] = run_cold(copies[s], args)
                spent[s][j].append(dt)
            if outcome[0] != outcome[1]:
                raise RuntimeError(f"{label} {args[1:]}: exit code or stdout differs, "
                                   f"a exit {outcome[0][0]}, b exit {outcome[1][0]}")
        items = [sum(t[-1] for t in side[len(CLI_FLOOR):]) for side in spent]
        built = [side[1][-1] for side in spent]
        ratios.append(items[0] / items[1])
        setup_ratios.append(built[0] / built[1])
        print(f"repeat {r}: a {items[0]:.3f} s, b {items[1]:.3f} s, ratio {ratios[-1]:.4f} "
              f"({len(runs) - len(CLI_FLOOR)} items, a first: {order[0] == 0}), "
              f"set-up a {built[0] * 1e3:.3f} ms, b {built[1] * 1e3:.3f} ms, "
              f"set-up ratio {setup_ratios[-1]:.4f}", flush=True)
    labels = {}
    for j, (label, _) in enumerate(runs):
        for name in (label,) if j < len(CLI_FLOOR) else (label, "all"):
            row = labels.setdefault(name, [0.0] * 4)
            for s, side in enumerate(spent):
                row[s] += min(side[j])
                row[2 + s] += sum(side[j])
    return ratios, setup_ratios, labels


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="the reference commit")
    ap.add_argument("--b", required=True, help="the commit compared with it")
    ap.add_argument("--workload", choices=("cli", "conjugate", "fragment"), required=True)
    ap.add_argument("--rounds", type=int, default=1,
                    help="workload rounds (cli: passes) per repeat")
    ap.add_argument("--repeats", type=int, default=16,
                    help="an even count: each side runs first in half of them")
    args = ap.parse_args(argv)
    if args.repeats < 2 or args.repeats % 2:
        ap.error(f"--repeats {args.repeats} is not an even count >= 2")
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        copies, labels = [Path(tmp) / "a", Path(tmp) / "b"], {}
        for copy, ref in zip(copies, (args.a, args.b)):
            export(ROOT, ref, copy)
        try:
            if args.workload == "cli":
                ratios, setup_ratios, labels = interleave_cli(copies, SEED, args.rounds,
                                                              args.repeats)
            else:
                sides = [load(f"vdfield_{c.name}", c / "src") for c in copies]
                ratios, setup_ratios = interleave(sides, args.workload, SEED, args.rounds,
                                                  args.repeats)
        except RuntimeError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
    items, setup = by_order(ratios), by_order(setup_ratios)
    result = {"ratios": ratios, "setup_ratios": setup_ratios, "ratio": items[2],
              "setup_ratio": setup[2], "order_medians": {"items": items[:2], "setup": setup[:2]}}
    for label, (least_a, least_b, total_a, total_b) in labels.items():
        print(f"{label}: least a {least_a * 1e3:.1f} ms, b {least_b * 1e3:.1f} ms, "
              f"ratio {least_a / least_b:.4f}; total a {total_a * 1e3:.1f} ms, "
              f"b {total_b * 1e3:.1f} ms, ratio {total_a / total_b:.4f}")
        result.setdefault("labels", {})[label] = {"least": least_a / least_b,
                                                  "total": total_a / total_b}
    for name, (a_first, b_first, ratio) in (("items", items), ("set-up", setup)):
        print(f"{name} ratio a/b over {len(ratios)} repeats: median a first {a_first:.4f}, "
              f"b first {b_first:.4f}; geometric mean {ratio:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
