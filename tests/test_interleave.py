"""tools/interleave.py end to end: HEAD against HEAD on one round of the
fragment workload, every item answering OK on both sides, in lines from
which tools/bench_pairs.py reads each repeat's ratio."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_head_against_head():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), "--a", "HEAD", "--b", "HEAD",
         "--workload", "fragment", "--rounds", "1", "--repeats", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["repeat 0", "repeat 1"]
    assert "a first: True" in lines[0] and "a first: False" in lines[1]
    assert lines[-1].startswith("median ratio a/b over 2 repeats: ")
    assert float(lines[-1].rsplit(" ", 1)[1]) > 0
    # tools/bench_pairs.py reads the ratio of each repeat from these lines
    ratios = bench_pairs.repeat_ratios(proc.stdout)
    assert len(ratios) == 2 and all(r > 0 for r in ratios)
