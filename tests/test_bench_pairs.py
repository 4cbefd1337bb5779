"""tools/bench_pairs.py on synthetic run records: the gain rule, the two
metric directions, the bound, a workload with too few good pairs, and
the bytecode-cache state on the machine line."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
           {"name": "item_ms_p50", "better": "lower", "bound": 0.25}]
SEEDS = bench_pairs.PAIR_SEEDS + [bench_pairs.CHECK_SEED]


def _run(workload, seed, side, items_per_s, item_ms_p50, exit_code=0):
    metrics = {"items_per_s": {"value": items_per_s}, "item_ms_p50": {"value": item_ms_p50}}
    return {"workload": workload, "seed": seed, "side": side, "trace": 0, "exit": exit_code,
            "result": {"correct": True, "metrics": metrics}}


def _runs(parent, change, workload="fragment"):
    """One run per side and seed: items_per_s from parent(k)/change(k) for
    the k-th seed of SEEDS, and item_ms_p50 its reciprocal in ms."""
    out = []
    for k, seed in enumerate(SEEDS):
        for side, rate in (("parent", parent(k)), ("change", change(k))):
            out.append(_run(workload, seed, side, rate, 1000 / rate))
    return out


def _summary(runs, claim="fragment items_per_s"):
    return bench_pairs.summarize(runs, METRICS, claim)["fragment"]


class TestGainRule:
    def test_met_when_every_pair_wins_by_more_than_the_iqr(self):
        entry = _summary(_runs(lambda k: 300 + k, lambda k: 400 + k))["items_per_s"]
        assert entry["change_wins"] == entry["pairs"] == 10
        gain = entry["gain"]
        assert gain["wins_needed"] == 9 and gain["holds_at_check_seed"]
        assert gain["median_gap"] == 100 and gain["parent_iqr"] == pytest.approx(4.5)
        assert gain["met"]

    def test_nine_wins_of_ten_are_enough_and_eight_are_not(self):
        for losses, met in ((1, True), (2, False)):
            entry = _summary(_runs(lambda k: 300 + k,
                                   lambda k: 200 if k < losses else 400 + k))["items_per_s"]
            assert entry["change_wins"] == 10 - losses
            assert entry["gain"]["met"] is met

    def test_a_median_gap_within_the_parent_iqr_is_not_a_gain(self):
        # the change wins every pair, by 3, but the parent's runs spread by 9
        entry = _summary(_runs(lambda k: 300 + 2 * k, lambda k: 303 + 2 * k))["items_per_s"]
        assert entry["change_wins"] == 10
        gain = entry["gain"]
        assert gain["median_gap"] == 3 and gain["parent_iqr"] == 9
        assert not gain["met"]

    def test_the_check_seed_must_agree(self):
        check = len(SEEDS) - 1
        runs = _runs(lambda k: 300 + k, lambda k: 250 if k == check else 400 + k)
        gain = _summary(runs)["items_per_s"]["gain"]
        assert not gain["holds_at_check_seed"] and not gain["met"]
        no_check = [r for r in runs if r["seed"] != bench_pairs.CHECK_SEED]
        entry = _summary(no_check)["items_per_s"]
        assert f"seed_{bench_pairs.CHECK_SEED}" not in entry
        assert not entry["gain"]["holds_at_check_seed"] and not entry["gain"]["met"]

    def test_only_the_claimed_metric_gets_a_gain_rule(self):
        summary = _summary(_runs(lambda k: 300 + k, lambda k: 400 + k))
        assert "gain" in summary["items_per_s"] and "gain" not in summary["item_ms_p50"]
        assert "gain" not in _summary(_runs(lambda k: 300, lambda k: 400), None)["items_per_s"]


class TestDirections:
    def test_higher_and_lower_metrics_count_the_same_pairs_as_wins(self):
        summary = _summary(_runs(lambda k: 300 + k, lambda k: 400 + k),
                           "fragment item_ms_p50")
        rate, latency = summary["items_per_s"], summary["item_ms_p50"]
        assert rate["change_wins"] == latency["change_wins"] == 10
        assert rate["relative_change_better_positive"] > 0
        assert latency["relative_change_better_positive"] > 0
        assert latency["change"]["median"] < latency["parent"]["median"]
        assert latency["gain"]["met"]

    def test_a_slower_change_is_worse_in_both_directions(self):
        summary = _summary(_runs(lambda k: 400 + k, lambda k: 300 + k))
        for name in ("items_per_s", "item_ms_p50"):
            assert summary[name]["change_wins"] == 0
            assert summary[name]["relative_change_better_positive"] < 0
        assert not summary["items_per_s"]["gain"]["met"]

    def test_ties_count_for_neither_side(self):
        entry = _summary(_runs(lambda k: 300, lambda k: 300))["items_per_s"]
        assert entry["change_wins"] == 0 and entry["relative_change_better_positive"] == 0


class TestWithinBound:
    @pytest.mark.parametrize("factor, within", [(1.0, True), (0.8, True), (0.75, True),
                                                (0.7, False)])
    def test_higher_is_better(self, factor, within):
        entry = _summary(_runs(lambda k: 400, lambda k: 400 * factor))["items_per_s"]
        assert entry["relative_change_better_positive"] == pytest.approx(factor - 1)
        assert entry["within_bound"] is within

    @pytest.mark.parametrize("factor, within", [(1.2, True), (1.3, False)])
    def test_lower_is_better(self, factor, within):
        runs = _runs(lambda k: 400, lambda k: 400)
        for r in runs:
            if r["side"] == "change":
                r["result"]["metrics"]["item_ms_p50"]["value"] *= factor
        entry = _summary(runs)["item_ms_p50"]
        assert entry["relative_change_better_positive"] == pytest.approx(1 - factor)
        assert entry["within_bound"] is within


def _fail_all_but_one_fragment_pair(runs):
    for r in runs:
        if r["workload"] == "fragment" and r["seed"] != bench_pairs.PAIR_SEEDS[0]:
            r["exit"] = 1
    return runs


class TestTooFewPairs:
    def test_one_good_pair_marks_the_workload_unresolved(self):
        runs = _fail_all_but_one_fragment_pair(
            _runs(lambda k: 300, lambda k: 400) + _runs(lambda k: 300, lambda k: 400, "cli"))
        summary = bench_pairs.summarize(runs, METRICS, "fragment items_per_s")
        assert summary["fragment"] == {"unresolved": True, "pairs": 1}
        assert summary["cli"]["items_per_s"]["pairs"] == 10

    def test_a_workload_without_good_pairs_is_unresolved(self):
        runs = _runs(lambda k: 300, lambda k: 400)
        for r in runs:
            r["result"]["correct"] = False
        assert bench_pairs.summarize(runs, METRICS, None)["fragment"] == \
            {"unresolved": True, "pairs": 0}

    def test_main_still_writes_every_run(self, monkeypatch, tmp_path):
        """main end to end, with git, the copies and the runs replaced:
        one good fragment pair of ten, and the document keeps all runs."""
        bench = {"end_to_end": METRICS, "run_seconds": 1}

        def git(*args, cwd):
            if "--show-toplevel" in args:
                return str(tmp_path).encode()
            if ":" in args[-1]:
                return b"same tree\n"
            return args[-1].encode() * 7 + b"\n"

        def export(repo, commit, dest):
            dest.mkdir(parents=True)
            (dest / "BENCHMARK.json").write_text(json.dumps(bench))

        def run_once(copy, workload, seed, seconds, trace):
            rate = 300 if copy.name == "parent" else 400
            good = workload != "fragment" or seed == bench_pairs.PAIR_SEEDS[0]
            run = _run(workload, seed, copy.name, rate, 1000 / rate, 0 if good else 1)
            return {"exit": run["exit"], "result": run["result"]}

        monkeypatch.setattr(bench_pairs, "git", git)
        monkeypatch.setattr(bench_pairs, "export", export)
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        assert bench_pairs.main(["--parent", "p", "--change", "c", "--label", "t",
                                 "--what", "synthetic", "--claim", "fragment items_per_s"]) == 0
        doc = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert len(doc["runs"]) == len(bench_pairs.WORKLOADS) * len(SEEDS) * 2
        assert len(doc["traced"]) == len(bench_pairs.TRACED) * 2
        # every fragment run but the two at the first pair seed, traced or not
        assert len(doc["failed_runs"]) == 2 * len(SEEDS) - 2
        assert all(r["trace"] == 1 for r in doc["traced"])
        assert doc["summary"]["fragment"] == {"unresolved": True, "pairs": 1}
        assert doc["summary"]["conjugate"]["items_per_s"]["change_wins"] == 10
        assert doc["machine"] == bench_pairs.machine()


class TestMachine:
    def test_says_when_no_bytecode_cache_is_written(self, monkeypatch):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        line = bench_pairs.machine()
        assert "PYTHONDONTWRITEBYTECODE set (no bytecode cache" in line
        assert line.endswith(", one run at a time")

    @pytest.mark.parametrize("value", [None, ""])
    def test_says_when_the_bytecode_cache_is_used(self, monkeypatch, value):
        # the interpreter reads an empty value as unset
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert "PYTHONDONTWRITEBYTECODE unset (bytecode cache written and read)" \
            in bench_pairs.machine()
