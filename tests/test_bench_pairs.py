"""tools/bench_pairs.py on synthetic run records: the gain rule, the two
metric directions, the bound, whether the parent's spread resolves it, a
workload with too few good pairs, the failed items of both sides, the
traced counts of both sides, the interleaved ratios, and the
bytecode-cache state on the machine line."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
           {"name": "item_ms_p50", "better": "lower", "bound": 0.25}]
SEEDS = bench_pairs.PAIR_SEEDS + [bench_pairs.CHECK_SEED]


def _run(workload, seed, side, items_per_s, item_ms_p50, exit_code=0, failed=0):
    """A run of 90 items, `failed` of which raised: the run is still
    correct, as perfbench reports one whose items raise but none is wrong."""
    metrics = {"items_per_s": {"value": items_per_s, "unit": "1/s"},
               "item_ms_p50": {"value": item_ms_p50, "unit": "ms"}}
    return {"workload": workload, "seed": seed, "side": side, "trace": 0, "exit": exit_code,
            "result": {"correct": True, "attempted": 90, "failed": failed,
                       "metrics": metrics}}


def _traced(workload, side, term_pairs, series_built, exit_code=0):
    """A traced run at the first pair seed: two count metrics beside a
    time and a ratio."""
    metrics = {"gridseries.mul.term_pairs": {"value": term_pairs, "unit": "count"},
               "gridseries.series_built": {"value": series_built, "unit": "count"},
               "gridseries.mul.self_s": {"value": 0.1, "unit": "s"},
               "trace.overhead_ratio": {"value": 1.1, "unit": "ratio"}}
    return {"workload": workload, "seed": bench_pairs.PAIR_SEEDS[0], "side": side, "trace": 1,
            "exit": exit_code, "result": {"correct": True, "attempted": 90, "failed": 0,
                                          "metrics": metrics}}


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

    def test_a_faster_change_that_fails_more_items_is_not_a_gain(self):
        runs = _runs(lambda k: 300 + k, lambda k: 400 + k)
        for r in runs:
            if r["side"] == "change" and r["seed"] == SEEDS[3]:
                r["result"]["failed"] = 2
        summary = _summary(runs)
        assert summary["failures"] == {"parent": {"attempted": 900, "failed": 0},
                                       "change": {"attempted": 900, "failed": 2}}
        gain = summary["items_per_s"]["gain"]
        assert summary["items_per_s"]["change_wins"] == 10 and gain["holds_at_check_seed"]
        assert not gain["failed_share_not_above_parent"] and not gain["met"]

    def test_an_equal_failed_share_does_not_stop_a_gain(self):
        runs = _runs(lambda k: 300 + k, lambda k: 400 + k)
        for r in runs:
            if r["seed"] == SEEDS[0]:
                r["result"]["failed"] = 3
        gain = _summary(runs)["items_per_s"]["gain"]
        assert gain["failed_share_not_above_parent"] and gain["met"]

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


class TestResolved:
    """A metric is resolved when the parent's IQR over its median is
    within the bound, or when every change run beats every parent run."""

    def test_a_narrow_parent_spread_resolves_the_bound(self):
        entry = _summary(_runs(lambda k: 400 + k, lambda k: 290 + k))["items_per_s"]
        assert entry["parent_spread"] == pytest.approx(4.5 / 404.5)
        assert entry["resolved"] and not entry["within_bound"]

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        # parent 200..560: IQR 290..470 over a median of 380 is 0.47 > 0.25
        entry = _summary(_runs(lambda k: 200 + 40 * k, lambda k: 210 + 40 * k))["items_per_s"]
        assert entry["parent_spread"] == pytest.approx(180 / 380)
        assert entry["change_wins"] == 10 and entry["within_bound"]
        assert not entry["resolved"]
        worse = _summary(_runs(lambda k: 200 + 40 * k, lambda k: 190 + 40 * k))
        assert all(not worse[name]["resolved"] for name in ("items_per_s", "item_ms_p50"))

    @pytest.mark.parametrize("change", [lambda k: 600 + k, lambda k: 100 + k])
    def test_only_a_change_that_beats_every_parent_run_resolves_it(self, change):
        # in both directions; a change below every parent run stays unresolved
        summary = _summary(_runs(lambda k: 200 + 40 * k, change))
        for name in ("items_per_s", "item_ms_p50"):
            assert summary[name]["parent_spread"] > summary[name]["bound"]
            assert summary[name]["resolved"] is (change(0) > 560)


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
            if trace:
                run = _traced(workload, copy.name, rate * 100, rate * 10)
            return {"exit": run["exit"], "result": run["result"]}

        def interleave_once(repo, commits, workload):
            assert commits == {"parent": "p" * 7, "change": "c" * 7}
            repeats = bench_pairs.INTERLEAVE[workload][1]
            return {"exit": 0, "ratios": [1.25] * repeats, "setup_ratios": [1.5] * repeats,
                    "stderr_tail": ""}

        monkeypatch.setattr(bench_pairs, "git", git)
        monkeypatch.setattr(bench_pairs, "export", export)
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.setattr(bench_pairs, "interleave_once", interleave_once)
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
        assert doc["summary"]["conjugate"]["failures"]["change"] == {"attempted": 900,
                                                                     "failed": 0}
        assert doc["machine"] == bench_pairs.machine()
        assert doc["summary"]["traced"]["conjugate"]["gridseries.mul.term_pairs"] == \
            {"parent": 30000, "change": 40000}
        assert [r["workload"] for r in doc["interleaved"]] == list(bench_pairs.INTERLEAVE)
        assert doc["summary"]["interleave"]["fragment"] == {
            "rounds": 3, "repeats": 15, "median": 1.25, "low": 1.25, "high": 1.25,
            "setup": {"median": 1.5, "low": 1.5, "high": 1.5}}


class TestClaim:
    def test_a_claim_is_a_workload_and_an_end_to_end_metric(self):
        assert bench_pairs.claims(METRICS) == [
            f"{w} {m}" for w in bench_pairs.WORKLOADS for m in ("items_per_s", "item_ms_p50")]

    @pytest.mark.parametrize("claim", ["fragment item_per_s", "fragment", "solver items_per_s",
                                       "fragment items_per_s extra", "fragment  items_per_s"])
    def test_main_refuses_an_unknown_claim_before_any_run(self, claim, monkeypatch, tmp_path,
                                                          capsys):
        def git(*args, cwd):
            if "--show-toplevel" in args:
                return str(tmp_path).encode()
            return b"same tree\n" if ":" in args[-1] else args[-1].encode() * 7 + b"\n"

        def export(repo, commit, dest):
            dest.mkdir(parents=True)
            (dest / "BENCHMARK.json").write_text(
                json.dumps({"end_to_end": METRICS, "run_seconds": 1}))

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench_pairs, "git", git)
        monkeypatch.setattr(bench_pairs, "export", export)
        monkeypatch.setattr(bench_pairs, "run_once", no_run)
        monkeypatch.setattr(bench_pairs, "interleave_once", no_run)
        assert bench_pairs.main(["--parent", "p", "--change", "c", "--label", "t",
                                 "--what", "synthetic", "--claim", claim]) == 2
        assert f"--claim {claim!r} is none of" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_t.json").exists()


class TestTracedCounts:
    def test_each_count_metric_on_both_sides(self):
        traced = [_traced("conjugate", "parent", 61802, 23623),
                  _traced("conjugate", "change", 60063, 16687),
                  _traced("fragment", "parent", 11469, 8233),
                  _traced("fragment", "change", 11469, 8233)]
        out = bench_pairs.traced_counts(traced)
        assert out["conjugate"] == {
            "gridseries.mul.term_pairs": {"parent": 61802, "change": 60063},
            "gridseries.series_built": {"parent": 23623, "change": 16687}}
        assert out["fragment"]["gridseries.series_built"] == {"parent": 8233, "change": 8233}

    def test_a_side_without_a_good_traced_run_reads_none(self):
        traced = [_traced("conjugate", "parent", 61802, 23623, exit_code=1),
                  _traced("conjugate", "change", 60063, 16687)]
        out = bench_pairs.traced_counts(traced)
        assert out["conjugate"]["gridseries.series_built"] == {"parent": None, "change": 16687}
        assert out["fragment"] == {}


# the lines tools/interleave.py prints for two repeats of one workload, the
# JSON line last
INTERLEAVE_STDOUT = """\
repeat 0: a 0.412 s, b 0.350 s, ratio 1.1771 (75 items, a first: True), \
set-up a 1.452 ms, b 0.871 ms, set-up ratio 1.6671
repeat 1: a 0.398 s, b 0.341 s, ratio 1.1672 (75 items, a first: False), \
set-up a 1.398 ms, b 0.902 ms, set-up ratio 1.5499
median ratio a/b over 2 repeats: 1.1722, set-up 1.6085
{"ratios": [1.1771, 1.1672], "setup_ratios": [1.6671, 1.5499]}
"""


def _interleaved(workload, ratios, exit_code=0, setup_ratios=None):
    return {"workload": workload, "exit": exit_code, "ratios": ratios,
            "setup_ratios": ratios if setup_ratios is None else setup_ratios,
            "stderr_tail": ""}


def _interleave_once(monkeypatch, stdout, exit_code=0):
    """interleave_once on the fragment workload, with the run of
    tools/interleave.py replaced by one that prints stdout."""
    def run(argv, **kwargs):
        assert argv[1].endswith("interleave.py") and "fragment" in argv
        return SimpleNamespace(returncode=exit_code, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return bench_pairs.interleave_once(Path("."), {"parent": "p", "change": "c"}, "fragment")


class TestInterleave:
    def test_reads_the_ratio_of_each_repeat(self, monkeypatch):
        # from the JSON line, not from the repeat lines above it
        out = _interleave_once(monkeypatch, INTERLEAVE_STDOUT)
        assert out["exit"] == 0 and out["labels"] == {}
        assert out["ratios"] == [1.1771, 1.1672] and out["setup_ratios"] == [1.6671, 1.5499]
        cli = INTERLEAVE_STDOUT.replace("}\n", ', "labels": {"val": {"least": 1.02, '
                                                '"total": 0.98}}}\n')
        assert _interleave_once(monkeypatch, cli)["labels"] == {
            "val": {"least": 1.02, "total": 0.98}}
        for stdout in ("FAILED: item 3 on side b answered wrong\n",
                       INTERLEAVE_STDOUT.rsplit("{", 1)[0], ""):
            out = _interleave_once(monkeypatch, stdout, exit_code=1)
            assert (out["exit"], out["ratios"], out["setup_ratios"]) == (1, [], [])

    def test_median_and_range_per_workload(self):
        conj = [1.0 + k / 100 for k in range(9)]
        frag = [1.2, 0.9] + [1.1] * 13
        out = bench_pairs.interleave_summary(
            [_interleaved("conjugate", conj),
             _interleaved("fragment", frag, setup_ratios=[1.5] * 14 + [1.3])])
        assert out["conjugate"] == {"rounds": 2, "repeats": 9, "median": 1.04,
                                    "low": 1.0, "high": 1.08,
                                    "setup": {"median": 1.04, "low": 1.0, "high": 1.08}}
        assert out["fragment"] == {"rounds": 3, "repeats": 15, "median": 1.1,
                                   "low": 0.9, "high": 1.2,
                                   "setup": {"median": 1.5, "low": 1.3, "high": 1.5}}

    def test_a_failed_or_cut_run_is_unresolved(self):
        out = bench_pairs.interleave_summary(
            [_interleaved("conjugate", [1.0] * 4, exit_code=1),
             _interleaved("fragment", [1.0] * 14)])
        assert out == {"conjugate": {"unresolved": True, "exit": 1},
                       "fragment": {"unresolved": True, "exit": 0}}

    def test_a_run_without_every_setup_ratio_is_unresolved(self):
        out = bench_pairs.interleave_summary(
            [_interleaved("fragment", [1.0] * 15, setup_ratios=[1.0] * 14)])
        assert out == {"fragment": {"unresolved": True, "exit": 0}}


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
