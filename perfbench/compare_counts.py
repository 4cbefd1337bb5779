"""Check that two traced runs of one seed did exactly the same work.

    python3 perfbench/run.py --workload W --seed N --seconds 25 --trace 1 > a.txt
    python3 perfbench/run.py --workload W --seed N --seconds 25 --trace 1 > b.txt
    python3 perfbench/compare_counts.py a.txt b.txt

Compares the work counts of the two result lines (the last line of
each file).  Prints every count that differs and exits 1 if any does:
a drifting count means the workload is not deterministic.
"""

import json
import sys

from tracer import DETERMINISTIC_COUNTS


def counts(path):
    with open(path) as fh:
        metrics = json.loads(fh.read().strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in DETERMINISTIC_COUNTS}


def main(a, b) -> int:
    first, second = counts(a), counts(b)
    drift = {name: (first[name], second[name]) for name in DETERMINISTIC_COUNTS
             if first[name] != second[name]}
    for name, (x, y) in drift.items():
        print(f"{name}: {x} != {y}")
    if not drift:
        print(f"all {len(DETERMINISTIC_COUNTS)} counts repeat")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
