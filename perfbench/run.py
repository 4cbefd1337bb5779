"""The vdfield benchmark: one workload per invocation, from one client.

    python3 perfbench/run.py --workload {cli,conjugate,fragment} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
its ``src/``.  Workloads (see NOTE.md):

* cli        -- `vdf` invocations, each in a fresh process;
* conjugate  -- conjugations and Newton degrees of random differential
                polynomials on the small-derivation instances;
* fragment   -- the exp-log solver over a depth sweep, check_bll, the
                non-uniqueness demo, truncated invert/logder, coarsening.

The loop is closed: the next item starts when the previous one ends.
Items come in rounds of fixed composition; ``--seconds`` sets how many
rounds run (see ROUND_S), so the same seed and run length always run
the same items.  Every answer is checked; a
wrong answer or an operation that raises counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a
fixed amount of work twice, under the tracer and without it, and prints
the per-layer metrics and the tracing overhead; the spans go to
``.perfbench_out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import cliload
import workloads as W
from pace import Pace
from tracer import Tracer, layer_metrics, merge_snapshots

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CLOCK = time.perf_counter

# Set-up runs per measurement; the median is reported.  The conjugate
# set-up samples Gamma(der) for about 2 s; the others take 0.05-0.15 s.
SETUP_REPEATS = {"cli": 9, "conjugate": 3, "fragment": 9}
TRACE_ROUNDS = {"conjugate": 1, "fragment": 3}   # rounds of the traced / untraced passes
CLI_TIMEOUT_S = 60
# Seconds one round takes on a 2-vCPU machine.  ``--seconds`` buys a fixed
# number of rounds, so a seed and a run length always run the same items:
# ``attempted`` and ``failed`` repeat exactly, and a faster program
# finishes the same work sooner.
ROUND_S = {"cli": 9.0, "conjugate": 4.5, "fragment": 2.4}


def rounds_for(name, seconds):
    return max(1, round(seconds / ROUND_S[name]))


class Tally:
    """Item outcomes: ok, wrong (unexpected) and known (the documented
    non-unit invert/logder defect)."""

    def __init__(self):
        self.outcomes = Counter()
        self.spans = []
        self.reported = 0

    def add(self, outcome, start, end):
        self.outcomes[outcome] += 1
        self.spans.append((start, end))

    @property
    def times(self):
        return durations(self.spans)

    def report(self, message):
        """Print the first few failure reports to stderr."""
        self.reported += 1
        if self.reported <= 3:
            print(message, file=sys.stderr)

    @property
    def attempted(self):
        return sum(self.outcomes.values())

    @property
    def failed(self):
        return self.attempted - self.outcomes["ok"]

    def rate(self):
        """Items per second of busy time over the whole run."""
        return rate(self.times)


def durations(spans):
    return [end - start for start, end in spans]


def rate(times):
    return len(times) / sum(times)


def percentiles(times):
    """(p50, p90) in ms."""
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return statistics.median(times) * 1e3, cuts[8] * 1e3


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- in-process workloads ------------------------------------------------------------


def run_items(rounds, tally, max_rounds, on_item=None):
    """Run the first max_rounds rounds."""
    for r, items in zip(range(max_rounds), rounds):
        for i, item in enumerate(items):
            if on_item is not None:
                on_item(r, i)
            t0 = CLOCK()
            try:
                outcome = item()
            except Exception:  # noqa: BLE001 - a raising operation is a failed item
                tally.report(f"item {r}.{i} raised:\n{traceback.format_exc()}")
                outcome = W.WRONG
            tally.add(outcome, t0, CLOCK())


def inprocess(name, seed, seconds, trace):
    vd = W.modules()
    setup, rounds = {"conjugate": (W.conjugate_setup, W.conjugate_rounds),
                     "fragment": (W.fragment_setup, W.fragment_rounds)}[name]
    if trace:
        return inprocess_traced(name, vd, setup, rounds, seed)

    pace = Pace()
    setup_spans = []
    for _ in range(SETUP_REPEATS[name]):
        pace.sample()
        t0 = CLOCK()
        ctx = setup(vd)
        setup_spans.append((t0, CLOCK()))
    pace.sample()
    gc.collect()
    tally = Tally()
    run_items(rounds(vd, ctx, seed), tally, rounds_for(name, seconds),
              on_item=lambda r, i: pace.tick())
    pace.sample()
    metrics, notes = end_to_end(tally, setup_spans, pace, peak_rss_mb())
    return tally, metrics, [f"rounds: {rounds_for(name, seconds)}", *notes]


def summary(item_times, setup_times):
    p50, p90 = percentiles(item_times)
    return {"items_per_s": rate(item_times), "item_ms_p50": p50, "item_ms_p90": p90,
            "setup_s": statistics.median(setup_times)}


def end_to_end(tally, setup_spans, pace, rss_mb):
    """The end-to-end metrics of paced times (see pace.py), and notes
    that give them unpaced."""
    metrics = summary([pace.paced(*span) for span in tally.spans],
                      [pace.paced(*span) for span in setup_spans])
    metrics["peak_rss_mb"] = rss_mb
    raw = summary(tally.times, durations(setup_spans))
    notes = [f"set-up runs: {[round(t, 4) for t in durations(setup_spans)]}",
             f"mean slowdown {pace.mean_slowdown():.4f} over {len(pace.samples)} "
             f"reference samples",
             "unpaced: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())]
    return metrics, notes


def inprocess_traced(name, vd, setup, rounds, seed):
    tracer = Tracer()
    tracer.install()
    traced = Tally()
    try:
        ctx = setup(vd)

        def mark(r, i):
            tracer.item = f"r{r}.{i}"

        run_items(rounds(vd, ctx, seed), traced, TRACE_ROUNDS[name], on_item=mark)
    finally:
        tracer.uninstall()
    untraced = Tally()
    run_items(rounds(vd, setup(vd), seed), untraced, TRACE_ROUNDS[name])

    metrics = layer_metrics(tracer.snapshot())
    metrics.update(trace_overhead(traced.rate(), untraced.rate()))
    metrics.update(cli_placeholders())
    path = write_spans(name, seed, tracer.spans)
    tally = Tally()
    tally.outcomes = traced.outcomes + untraced.outcomes
    notes = [f"traced pass: {traced.attempted} items, {len(tracer.spans)} spans -> {path}"]
    return tally, metrics, notes


def trace_overhead(traced_rate, untraced_rate):
    return {"trace.items_per_s": traced_rate, "trace.untraced_items_per_s": untraced_rate,
            "trace.overhead_ratio": untraced_rate / traced_rate}


def cli_placeholders():
    """The cli.* layer metrics of a workload that never starts the CLI."""
    out = {"cli.import_s": 0.0}
    out.update({f"cli.cmd.{sub}.ms": 0.0 for sub in cliload.SUBCOMMANDS})
    return out


def write_spans(name, seed, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "item"), span)))
                     + "\n")
    return path.relative_to(ROOT)


# -- the cli workload ------------------------------------------------------------------


def run_process(argv):
    """(seconds, completed process) of one child, run from the checkout
    root on this checkout's library.  A child that overruns the timeout
    is killed and reads as exit code -1."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = CLOCK()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(argv, -1, exc.stdout or b"", exc.stderr or b"")
    return CLOCK() - t0, proc


def vdf(args):
    return [sys.executable, "-m", "vdfield.cli", *args]


def answer_ok(cmd, proc):
    if proc.returncode != 0:
        return False
    try:
        return bool(cmd.check(proc.stdout))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def cli_workload(seed, seconds, trace):
    from vdfield.cli import field_from_config

    if trace:
        return cli_traced(seed)
    pace = Pace()
    setup_spans = []
    for _ in range(SETUP_REPEATS["cli"]):
        pace.tick()
        t0 = CLOCK()
        dt = run_process([sys.executable, "-c", "import vdfield.cli"])[0]
        setup_spans.append((t0, t0 + dt))
    tally = Tally()
    passes = rounds_for("cli", seconds)
    for pass_no in range(passes):
        for cmd in cliload.commands(seed, pass_no, field_from_config):
            pace.tick()
            t0 = CLOCK()
            dt, proc = run_process(vdf(cmd.argv))
            ok = answer_ok(cmd, proc)
            tally.add(W.OK if ok else W.WRONG, t0, t0 + dt)
            if not ok:
                tally.report(f"vdf {cmd.argv} exited {proc.returncode}, stdout "
                             f"{proc.stdout[:300]!r}, stderr {proc.stderr[-300:]!r}")
    pace.tick()
    metrics, notes = end_to_end(tally, setup_spans, pace,
                                peak_rss_mb(resource.RUSAGE_CHILDREN))
    return tally, metrics, [f"passes: {passes}", *notes]


def cli_traced(seed):
    """One pass, each invocation run plainly and under the traced
    launcher; the two stdouts must be byte-identical."""
    from vdfield.cli import field_from_config

    OUT_DIR.mkdir(exist_ok=True)
    launcher = str(Path(__file__).resolve().parent / "cli_launcher.py")
    tally = Tally()
    plain_times, traced_times, by_sub = [], [], {}
    snaps, import_times, spans = [], [], []
    for n, cmd in enumerate(cliload.commands(seed, 0, field_from_config)):
        dt, plain = run_process(vdf(cmd.argv))
        plain_times.append(dt)
        by_sub.setdefault(cmd.subcommand, []).append(dt)
        out = OUT_DIR / f"launch-{seed}-{n}.json"
        dt_traced, traced = run_process([sys.executable, launcher, str(out), *cmd.argv])
        traced_times.append(dt_traced)
        same = traced.stdout == plain.stdout and traced.returncode == plain.returncode
        if out.is_file():
            report = json.loads(out.read_text())
            out.unlink()
            snaps.append(report["snapshot"])
            import_times.append(report["import_s"])
            spans += [span[:4] + [f"{n}:{span[4]}"] for span in report["spans"]]
        else:
            same = False
        for proc in (plain, traced):
            ok = same and answer_ok(cmd, proc)
            tally.add(W.OK if ok else W.WRONG, 0.0, 0.0)
            if not ok:
                tally.report(f"vdf {cmd.argv}: plain and traced runs differ or fail; "
                             f"traced stderr {traced.stderr[-300:]!r}")
    metrics = layer_metrics(merge_snapshots(snaps))
    metrics["cli.import_s"] = statistics.median(import_times)
    for sub in cliload.SUBCOMMANDS:
        metrics[f"cli.cmd.{sub}.ms"] = statistics.median(by_sub[sub]) * 1e3
    metrics.update(trace_overhead(len(traced_times) / sum(traced_times),
                                  len(plain_times) / sum(plain_times)))
    path = write_spans("cli", seed, spans)
    return tally, metrics, [f"traced launches: {len(traced_times)}, spans -> {path}"]


# -- entry point --------------------------------------------------------------------------


def metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli", "conjugate", "fragment"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "vdfield" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no vdfield source tree under {ROOT}: expected src/vdfield and configs/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vdfield

    if Path(vdfield.__file__).resolve().parent != SRC / "vdfield":
        print(f"imported vdfield from {vdfield.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "cli":
        tally, values, notes = cli_workload(args.seed, args.seconds, args.trace)
    else:
        tally, values, notes = inprocess(args.workload, args.seed, args.seconds, args.trace)

    units = metric_units(args.trace)
    missing = set(units) - set(values)
    if missing:
        print(f"metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 2
    known = tally.outcomes[W.KNOWN]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} items")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_share {tally.failed / tally.attempted:.4f} share "
          f"({tally.failed} of {tally.attempted}; {known} are the known non-unit "
          f"invert/logder defect, {tally.outcomes[W.WRONG]} are not)")
    if not args.trace:
        print(f"  percentiles over {len(tally.times)} item samples")
    for name in units:
        print(f"  {name} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.outcomes[W.WRONG] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
