"""tools/interleave.py end to end: HEAD against HEAD on one round of the
fragment workload, every item answering OK on both sides, and on one
cold pass of the cli workload, with a last JSON line from which
tools/bench_pairs.py reads each repeat's item and set-up ratio, their
order-balanced summary and the cli label ratios; that summary on
synthetic ratios, and the refusal of an odd repeat count; a side's
layers, loaded under the side's own package name, and a side that
imports the package by name; the cold start of each repeat; and a cli
process whose sides differ."""

import importlib.util
import math
import os
import shutil
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

# The tool runs as it does by hand: without the PYTHONPATH that conftest.py
# sets for the suite's `vdf` processes, under which a side's module that
# imports vdfield by name would bind the working tree's package.
TOOL_ENV = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}


def _run_tool(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "tools" / "interleave.py"), *args],
                          cwd=cwd, env=TOOL_ENV, capture_output=True, text=True,
                          timeout=timeout)


def test_head_against_head():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    proc = _run_tool("--a", "HEAD", "--b", "HEAD", "--workload", "fragment", "--rounds", "1",
                     "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["repeat 0", "repeat 1"]
    assert "a first: True" in lines[0] and "a first: False" in lines[1]
    assert lines[-3].startswith("items ratio a/b over 2 repeats: median a first ")
    assert lines[-2].startswith("set-up ratio a/b over 2 repeats: median a first ")
    # tools/bench_pairs.py reads the ratios of each repeat, and their
    # summary by order, from the JSON line
    result = bench_pairs.last_json(proc.stdout)
    assert set(result) == {"ratios", "setup_ratios", "ratio", "setup_ratio", "order_medians"}
    for key, name in (("ratios", "items"), ("setup_ratios", "setup")):
        ratios = result[key]
        assert len(ratios) == 2 and all(r > 0 for r in ratios)
        assert result["order_medians"][name] == ratios
    assert result["ratio"] == math.sqrt(result["ratios"][0] * result["ratios"][1])
    assert lines[-3].endswith(f"geometric mean {result['ratio']:.4f}")


def test_the_summary_balances_the_two_orders():
    # a machine that favours the side that runs first by 4%: a ran first
    # in the even repeats, b in the odd ones, and b is 5% faster
    ratios = [1.05 * 1.04 * (1 + k / 1000) for k in range(3)]
    ratios = [r for pair in zip(ratios, [1.05 / 1.04 * (1 - k / 1000) for k in range(3)])
              for r in pair]
    a_first, b_first, ratio = interleave.by_order(ratios)
    assert (a_first, b_first) == (ratios[2], ratios[3])
    assert ratio == math.sqrt(ratios[2] * ratios[3])
    assert abs(ratio - 1.05) < 1e-3
    # a median over all the repeats would read one order's bias
    assert interleave.by_order([1.2, 0.8, 1.3, 0.9, 1.25, 0.85]) == (1.25, 0.85,
                                                                     math.sqrt(1.25 * 0.85))


@pytest.mark.parametrize("repeats", ["15", "1", "0"])
def test_an_odd_or_empty_repeat_count_is_refused(repeats, monkeypatch, capsys):
    def export(*args):
        raise AssertionError("a side was exported")

    monkeypatch.setattr(interleave, "export", export)
    with pytest.raises(SystemExit) as info:
        interleave.main(["--a", "HEAD", "--b", "HEAD", "--workload", "fragment",
                         "--repeats", repeats])
    assert info.value.code == 2
    assert f"--repeats {repeats} is not an even count >= 2" in capsys.readouterr().err


def test_a_side_that_imports_the_package_by_name_fails_as_by_hand(tmp_path):
    """The tool, run by the suite, finds no package named vdfield: a side
    whose module imports it by name fails, as it does by hand."""
    if shutil.which("git") is None:
        pytest.skip("no git")
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    newton = tmp_path / "src" / "vdfield" / "newton.py"
    newton.write_text(newton.read_text() + "\nimport vdfield  # noqa: E402,F401\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "side"]):
        subprocess.run([*git, *args], cwd=tmp_path, check=True, capture_output=True)
    proc = _run_tool("--a", "HEAD", "--b", "HEAD", "--workload", "fragment", "--repeats", "2",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "No module named 'vdfield'" in proc.stderr


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
    proc = _run_tool("--a", "HEAD", "--b", "HEAD", "--workload", "cli", "--repeats", "2",
                     timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("repeat 0: ") and "a first: True" in lines[0]
    assert lines[1].startswith("repeat 1: ") and "a first: False" in lines[1]
    result = bench_pairs.last_json(proc.stdout)
    assert len(result["ratios"]) == len(result["setup_ratios"]) == 2
    labels = result["labels"]
    subcommands = {label for label, _ in interleave.cli_processes(interleave.SEED, 1)}
    assert set(labels) == subcommands | {"all"}
    assert {"pass", "import", "val", "check-bll"} <= set(labels)
    assert all(r["least"] > 0 and r["total"] > 0 for r in labels.values())
    assert lines[-3].startswith("items ratio a/b over 2 repeats: ")


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
