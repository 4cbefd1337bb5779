"""tools/interleave.py end to end: HEAD against HEAD on one round of the
fragment workload, every item answering OK on both sides, and on one
cold pass of the cli workload, with a last JSON line from which
tools/bench_pairs.py reads each repeat's item and set-up ratio and the
cli label ratios; a side's layers, loaded under the side's own package
name; the cold start of each repeat; and a cli process whose sides
differ."""

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
    assert lines[-2].startswith("median ratio a/b over 2 repeats: ")
    items, setup = lines[-2].split(": ", 1)[1].split(", set-up ")
    assert float(items) > 0 and float(setup) > 0
    # tools/bench_pairs.py reads the ratios of each repeat from the JSON line
    result = bench_pairs.last_json(proc.stdout)
    assert set(result) == {"ratios", "setup_ratios"}
    for ratios in result.values():
        assert len(ratios) == 2 and all(r > 0 for r in ratios)


def test_a_side_reaches_only_its_own_layers():
    # a side is a second copy of the package under its own name; its cli
    # must reach that copy's layers, not those of the package named vdfield
    try:
        side = interleave.load("vdfield_side", ROOT / "src")
        assert side.cli.vd is sys.modules["vdfield_side"]
        field = side.cli.load_field("laurent_ddt")
        assert type(field) is side.gridseries.FieldInstance
        assert type(field) is not gridseries.FieldInstance
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "vdfield_side"]:
            del sys.modules[name]


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


def test_cli_head_against_head():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), "--a", "HEAD", "--b", "HEAD",
         "--workload", "cli", "--repeats", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("repeat 0: ") and "a first: True" in lines[0]
    result = bench_pairs.last_json(proc.stdout)
    assert len(result["ratios"]) == len(result["setup_ratios"]) == 1
    labels = result["labels"]
    subcommands = {label for label, _ in interleave.cli_processes(interleave.SEED, 1)}
    assert set(labels) == subcommands | {"all"}
    assert {"pass", "import", "val", "check-bll"} <= set(labels)
    assert all(r["least"] > 0 and r["total"] > 0 for r in labels.values())
    assert lines[-2].startswith("median ratio a/b over 1 repeats: ")


def test_cli_sides_that_differ_are_refused(tmp_path, monkeypatch):
    copies = []
    for name, text in (("a", "1"), ("b", "2")):
        package = tmp_path / name / "src" / "vdfield"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(f"print({text})\n")
        copies.append(tmp_path / name)
    monkeypatch.setattr(interleave, "cli_processes", lambda seed, rounds: [
        ("pass", ["-c", "pass"]), ("import", ["-c", "import vdfield"]),
        ("val", ["-m", "vdfield.cli"])])
    with pytest.raises(RuntimeError, match="exit code or stdout differs"):
        interleave.interleave_cli(copies, interleave.SEED, 1, 1)
