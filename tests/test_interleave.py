"""tools/interleave.py end to end: HEAD against HEAD on one round of the
fragment workload, every item answering OK on both sides, in lines from
which tools/bench_pairs.py reads each repeat's item and set-up ratio; and
the cold start of each repeat."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from vdfield import diffpoly, gridseries

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
_spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)


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
    items, setup = lines[-1].split(": ", 1)[1].split(", set-up ")
    assert float(items) > 0 and float(setup) > 0
    # tools/bench_pairs.py reads the ratios of each repeat from these lines
    for pattern in (bench_pairs.ITEM_RATIO, bench_pairs.SETUP_RATIO):
        ratios = bench_pairs.repeat_ratios(proc.stdout, pattern)
        assert len(ratios) == 2 and all(r > 0 for r in ratios)


def test_a_repeat_starts_from_cold_builtin_fields():
    # every public lru-cached function of gridseries builds a field, and is emptied
    cached = {name for name, f in vars(gridseries).items()
              if hasattr(f, "cache_clear") and not name.startswith("_")}
    assert cached == set(interleave.BUILTIN_FIELDS)
    gridseries.laurent_ddt()
    gridseries.log_fragment(3)
    diffpoly.fnk(3, 2)
    Q = diffpoly.rational_field()
    interleave.clear_builtin_fields(SimpleNamespace(gridseries=gridseries, diffpoly=diffpoly))
    assert all(getattr(gridseries, name).cache_info().currsize == 0 for name in cached)
    # and no F(n, k) of a repeat is reused by the next; the rebuilt ones share Q
    assert diffpoly._fnk_memo == {}
    assert diffpoly.fnk(3, 2).field is Q
