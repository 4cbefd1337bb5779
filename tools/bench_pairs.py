"""Paired benchmark runs of two commits, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent <ref> --change <ref> --label <label> \\
        --what "<one line on the change>" [--claim "<workload> <metric>"]

Run from the root of a git checkout.  Each side runs from its own
`git archive` copy of its commit, with that copy's unchanged
perfbench/run.py and BENCHMARK.json's run_seconds; the two commits must
have the same perfbench/ and BENCHMARK.json, so both sides run the same
benchmark.  Seeds 11-20 make ten pairs per workload, and the side that
runs first alternates from seed to seed; seed 4242, which the benchmark
holds back for checking claims, makes one more pair.  A traced run
(--trace 1) of each side at seed 11 gives the per-layer counts of the
in-process workloads.  A --claim that is not a workload and an
end-to-end metric of BENCHMARK.json is refused, with exit status 2,
before any run.

The summary gives, per workload and end-to-end metric, each side's
median and quartiles over the pairs (a workload with fewer than two
good pairs is marked unresolved instead), the pairs the change won (ties
count for neither side), the relative change (positive is better) and
whether it stays within the BENCHMARK.json bound.  It also says whether
the pairs can tell that at all: a metric is not `resolved` when the
parent's own interquartile range over its median (`parent_spread`) is
wider than the bound, unless every change run beats every parent run.
Per workload it gives each side's items attempted and failed (an item
that raised or answered wrong) over the pairs.  For the claimed metric it also records the gain
rule: the change wins at least nine tenths of the pairs, its median is
better than the parent's by more than the parent's interquartile range,
it is better at the check seed, and its failed share is not above the
parent's.
Its `traced` block gives each count metric of the traced runs on both
sides (term pairs multiplied, series built, ...), which move with the
work done but not with the machine.

Last, tools/interleave.py of this checkout times the two commits item by
item (the parent as its a side, the change as b): in one process on each
in-process workload, and process by process, cold, on the cli workload.
The `interleave` block gives, per workload, the rounds and repeats, and
the median, least and greatest of the per-repeat ratios time(parent) /
time(change) of the items, and under `setup` the same of the workload's
set-up: above 1, the change is faster.  For cli, `labels` gives per
subcommand, and for `import`, `pass` and `all`, the ratio of the least
times over the repeats and of the total times.  A
machine whose speed drifts slows both sides of a repeat alike, so this
ratio can resolve a change smaller than the spread of whole runs.  A
workload whose interleaved run failed reads unresolved, with its exit
status.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("cli", "conjugate", "fragment")
TRACED = ("conjugate", "fragment")   # the workloads that trace in process
SIDES = ("parent", "change")
PAIR_SEEDS = list(range(11, 21))
CHECK_SEED = 4242
# workload: (rounds, repeats) of its interleaved run
INTERLEAVE = {"cli": (1, 9), "conjugate": (2, 9), "fragment": (3, 15)}


def git(*args, cwd) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export(repo: Path, commit: str, dest: Path) -> None:
    """The files of commit, as `git archive` writes them, under dest."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit, cwd=repo))) as tar:
        tar.extractall(dest, filter="data")


def same_benchmark(repo: Path, a: str, b: str) -> bool:
    def ids(commit):
        return git("rev-parse", f"{commit}:perfbench", f"{commit}:BENCHMARK.json", cwd=repo)
    return ids(a) == ids(b)


def run_once(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True,
                              timeout=40 * seconds + 600)
    except subprocess.TimeoutExpired as exc:
        return {"exit": None, "result": None, "stderr_tail": f"timed out after {exc.timeout} s"}
    return {"exit": proc.returncode, "result": last_json(proc.stdout),
            "stderr_tail": proc.stderr[-2000:]}


def last_json(stdout: str):
    """The JSON document on the last line of stdout, as perfbench/run.py and
    tools/interleave.py print their result; None if there is none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def interleave_once(repo: Path, commits: dict, workload: str) -> dict:
    """One run of repo's tools/interleave.py, parent against change: its
    exit status, and the item and set-up ratios of each repeat and the cli
    label ratios of the JSON line it printed last."""
    rounds, repeats = INTERLEAVE[workload]
    argv = [sys.executable, str(repo / "tools" / "interleave.py"), "--a", commits["parent"],
            "--b", commits["change"], "--workload", workload, "--rounds", str(rounds),
            "--repeats", str(repeats)]
    try:
        proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True, timeout=3600)
    except subprocess.TimeoutExpired as exc:
        return {"exit": None, "ratios": [], "setup_ratios": [],
                "stderr_tail": f"timed out after {exc.timeout} s"}
    result = last_json(proc.stdout) or {}
    return {"exit": proc.returncode, "ratios": result.get("ratios", []),
            "setup_ratios": result.get("setup_ratios", []), "labels": result.get("labels", {}),
            "stderr_tail": proc.stderr[-2000:]}


def ratio_range(ratios) -> dict:
    return {"median": statistics.median(ratios), "low": min(ratios), "high": max(ratios)}


def interleave_summary(interleaved) -> dict:
    """{workload: median and range of time(parent) / time(change), of the
    items and of the set-up}."""
    out = {}
    for r in interleaved:
        rounds, repeats = INTERLEAVE[r["workload"]]
        ratios, setup = r["ratios"], r["setup_ratios"]
        if r["exit"] != 0 or len(ratios) != repeats or len(setup) != repeats:
            out[r["workload"]] = {"unresolved": True, "exit": r["exit"]}
            continue
        out[r["workload"]] = {"rounds": rounds, "repeats": repeats, **ratio_range(ratios),
                              "setup": ratio_range(setup)}
        if r.get("labels"):
            out[r["workload"]]["labels"] = r["labels"]
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def metric_of(run, name):
    return run["result"]["metrics"][name]["value"]


def claims(metrics) -> list:
    """The claims --claim accepts: a workload, a space and the name of an
    end-to-end metric."""
    return [f"{workload} {m['name']}" for workload in WORKLOADS for m in metrics]


def summarize(runs, metrics, claim):
    """{workload: {metric: {...}}} over the paired seeds; see the module doc."""
    by_key = {(r["workload"], r["seed"], r["side"]): r for r in runs if ok(r)}
    out = {}
    for workload in WORKLOADS:
        seeds = [s for s in PAIR_SEEDS if all((workload, s, side) in by_key for side in SIDES)]
        if len(seeds) < 2:
            # quartiles need two pairs; the runs are kept in the document
            out[workload] = {"unresolved": True, "pairs": len(seeds)}
            continue
        failures = {side: {key: sum(by_key[workload, s, side]["result"][key] for s in seeds)
                           for key in ("attempted", "failed")} for side in SIDES}
        out[workload] = {"failures": failures}
        for m in metrics:
            sign = 1 if m["better"] == "higher" else -1
            vals = {side: [metric_of(by_key[workload, s, side], m["name"]) for s in seeds]
                    for side in SIDES}
            stats = {side: quartiles(vals[side]) for side in SIDES}
            parent = stats["parent"]
            rel = sign * (stats["change"]["median"] - parent["median"]) / parent["median"]
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            beats_all = all(sign * (c - p) > 0 for c in vals["change"] for p in vals["parent"])
            entry = {**stats,
                     "change_wins": sum(sign * (c - p) > 0
                                        for p, c in zip(vals["parent"], vals["change"])),
                     "pairs": len(seeds), "bound": m["bound"],
                     "relative_change_better_positive": rel,
                     "within_bound": rel >= -m["bound"], "parent_spread": spread,
                     "resolved": spread <= m["bound"] or beats_all}
            check = {side: by_key.get((workload, CHECK_SEED, side)) for side in SIDES}
            if all(check.values()):
                entry[f"seed_{CHECK_SEED}"] = {side: metric_of(check[side], m["name"])
                                               for side in SIDES}
            if claim == f"{workload} {m['name']}":
                entry["gain"] = gain_rule(entry, sign, failures)
            out[workload][m["name"]] = entry
    return out


def traced_counts(traced):
    """{workload: {metric: {side: value}}} over the count metrics of the
    traced runs; a side without a good traced run reads None."""
    by_key = {(r["workload"], r["side"]): r for r in traced if ok(r)}
    out = {}
    for workload in TRACED:
        sides = {side: by_key.get((workload, side)) for side in SIDES}
        names = dict.fromkeys(name for r in sides.values() if r
                              for name, m in r["result"]["metrics"].items()
                              if m["unit"] == "count")
        out[workload] = {name: {side: metric_of(r, name) if r else None
                                for side, r in sides.items()} for name in names}
    return out


def failed_share(side):
    return side["failed"] / side["attempted"] if side["attempted"] else 0


def gain_rule(entry, sign, failures):
    parent, change = entry["parent"], entry["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = sign * (change["median"] - parent["median"])
    check = entry.get(f"seed_{CHECK_SEED}")
    holds_at_check = check is not None and sign * (check["change"] - check["parent"]) > 0
    fails_no_more = failed_share(failures["change"]) <= failed_share(failures["parent"])
    return {"wins_needed": -(-9 * entry["pairs"] // 10), "parent_iqr": iqr,
            "median_gap": gap, "holds_at_check_seed": holds_at_check,
            "failed_share_not_above_parent": fails_no_more,
            "met": (10 * entry["change_wins"] >= 9 * entry["pairs"] and gap > iqr
                    and holds_at_check and fails_no_more)}


def machine() -> str:
    """The machine line, with the bytecode-cache state the runs inherit:
    without a cache every cold `vdf` process of the cli workload compiles
    src/ again, so its numbers depend on it."""
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        cache = "PYTHONDONTWRITEBYTECODE set (no bytecode cache: each process compiles src/)"
    else:
        cache = "PYTHONDONTWRITEBYTECODE unset (bytecode cache written and read)"
    return (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, {cache}, one run at a time")


def ok(run):
    return run["exit"] == 0 and run["result"] is not None and run["result"]["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit measured as the parent")
    ap.add_argument("--change", default="HEAD", help="the commit measured as the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--claim", default=None, help='the claimed "<workload> <metric>", if any; '
                    'the metric is an end-to-end one of BENCHMARK.json')
    args = ap.parse_args(argv)

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    commits = {"parent": git("rev-parse", args.parent, cwd=repo).decode().strip(),
               "change": git("rev-parse", args.change, cwd=repo).decode().strip()}
    if not same_benchmark(repo, commits["parent"], commits["change"]):
        print("perfbench/ or BENCHMARK.json differs between the two commits", file=sys.stderr)
        return 2

    runs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(repo, commits[side], copies[side])
        with open(copies["parent"] / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        metrics, seconds = bench["end_to_end"], bench["run_seconds"]
        if args.claim is not None and args.claim not in claims(metrics):
            print(f"--claim {args.claim!r} is none of {claims(metrics)}", file=sys.stderr)
            return 2
        for workload in WORKLOADS:
            for k, seed in enumerate(PAIR_SEEDS + [CHECK_SEED]):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = {"workload": workload, "seed": seed, "side": side,
                           "first": order[0], "trace": 0, "commit": commits[side]}
                    run.update(run_once(copies[side], workload, seed, seconds, 0))
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}", file=sys.stderr)
        for workload in TRACED:
            for side in SIDES:
                run = {"workload": workload, "seed": PAIR_SEEDS[0], "side": side,
                       "first": SIDES[0], "trace": 1, "commit": commits[side]}
                run.update(run_once(copies[side], workload, PAIR_SEEDS[0], seconds, 1))
                traced.append(run)
    interleaved = []
    for workload in INTERLEAVE:
        interleaved.append({"workload": workload, **interleave_once(repo, commits, workload)})
        print(f"{workload} interleaved: exit {interleaved[-1]['exit']}", file=sys.stderr)

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "machine": machine(),
        "protocol": f"each side runs from its own git archive copy of its commit "
                    f"(parent {commits['parent'][:7]}, change {commits['change'][:7]}); "
                    f"seeds {PAIR_SEEDS[0]}-{PAIR_SEEDS[-1]} are {len(PAIR_SEEDS)} pairs per "
                    f"workload and seed {CHECK_SEED} one more, held back for checking the "
                    f"claim; the side that runs first alternates from seed to seed; the "
                    f"traced runs are at seed {PAIR_SEEDS[0]} with --trace 1; "
                    f"tools/interleave.py times the parent (a) against the change (b) in "
                    f"one process, and its ratios are time(parent) / time(change)",
        "claim": args.claim,
        "failed_runs": [{k: r[k] for k in ("workload", "seed", "side", "trace", "exit")}
                        for r in runs + traced if not ok(r)],
        "summary": {**summarize(runs, metrics, args.claim), "traced": traced_counts(traced),
                    "interleave": interleave_summary(interleaved)},
        "runs": runs,
        "traced": traced,
        "interleaved": interleaved,
    }
    out = repo / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
