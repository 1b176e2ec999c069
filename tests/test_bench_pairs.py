"""The verdicts of scripts/bench_pairs.py on synthetic paired runs, with no benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten parent runs with quartiles 45.3 and 45.5: a spread of 0.2 MB, 0.44%
PARENT = [45.2, 45.3, 45.3, 45.3, 45.4, 45.4, 45.5, 45.5, 45.5, 45.6]


@pytest.mark.parametrize("change, verdict", [
    # 10 of 10 pairs won, median 43.6 against 45.4: beyond the 0.2 spread
    ([p - 1.8 for p in PARENT], "improved"),
    # 9 of 10 won is still nine tenths
    ([p - 1.8 for p in PARENT[:9]] + [PARENT[9] + 0.1], "improved"),
    # 8 of 10 won: no gain, and no worse
    ([p - 1.8 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]], "no worse than the bound"),
    # every pair won, but by less than the parent's quartile spread
    ([p - 0.1 for p in PARENT], "no worse than the bound"),
    # 10% worse is within a 15% bound, 20% is not
    ([p * 1.1 for p in PARENT], "no worse than the bound"),
    ([p * 1.2 for p in PARENT], "worse than the bound"),
])
def test_verdict_on_a_lower_is_better_metric(change, verdict):
    assert bench_pairs.verdict(PARENT, change, "lower", 0.15) == verdict


def test_a_higher_is_better_metric_improves_upwards():
    up = [p + 2.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, up, "higher", 0.25) == "improved"
    assert bench_pairs.verdict(PARENT, up, "lower", 0.25) == "no worse than the bound"
    assert bench_pairs.verdict(up, PARENT, "lower", 0.25) == "improved"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    wide = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0]  # spread 47%
    # medians equal, and even a 30% worse median cannot be told from noise
    assert bench_pairs.verdict(wide, wide[::-1], "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, [w * 0.7 for w in wide], "higher", 0.25) == "unresolved"
    # a quiet parent but a noisy change is unresolved too
    noisy = [45.4 + 2.0 * (w - 19.0) for w in wide]
    assert bench_pairs.verdict(PARENT, noisy, "lower", 0.25) == "unresolved"
    # every change run reads better than every parent run, by less than the
    # parent's quartile spread: no gain, but no worse
    split = [1.0] * 5 + [100.0] * 5
    assert bench_pairs.verdict(split, [101.0] * 10, "higher", 0.25) == "no worse than the bound"


def test_ties_count_for_neither_side():
    assert bench_pairs.change_wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower") == 1
    assert bench_pairs.change_wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "higher") == 1


def _run(workload, seed, side, rss, failed=3):
    metrics = {name: {"value": 1.0, "unit": "s"} for name in ("ops_per_s", "op_tail_s")}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return {"workload": workload, "seed": seed, "side": side, "order_in_pair": 1,
            "environment": {}, "last_line": {"correct": True, "attempted": 48,
                                             "failed": failed, "metrics": metrics}}


def test_summary_pairs_runs_by_seed_and_states_each_verdict():
    end_to_end = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ]
    runs = []
    for i, p in enumerate(PARENT):
        sides = [("parent", p), ("change", p - 1.8)]
        for side, rss in sides if i % 2 == 0 else sides[::-1]:
            runs.append(_run("mc_verify", 100 + i, side, rss))
    summary = bench_pairs.summarize(runs, end_to_end)["mc_verify"]
    assert summary["pairs"] == 10 and summary["seeds"] == list(range(100, 110))
    assert summary["failed_parent"] == summary["failed_change"] == [3] * 10
    assert summary["attempted_each"] == [48] * 10 and summary["correct"] is True
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["parent_median"] == 45.4 and rss["parent_quartiles"] == pytest.approx([45.3, 45.5])
    assert rss["change_wins"] == 10 and rss["verdict"] == "improved"
    assert rss["change_vs_parent"] == pytest.approx(43.6 / 45.4 - 1.0)
    # equal runs: no pair won, no spread, no worse
    assert summary["metrics"]["ops_per_s"]["change_wins"] == 0
    assert summary["metrics"]["ops_per_s"]["verdict"] == "no worse than the bound"
    claim = bench_pairs.claim_result({"mc_verify": summary}, "mc_verify", "peak_rss_mb")
    assert claim == {"workload": "mc_verify", "metric": "peak_rss_mb",
                     "verdict": "improved", "met": True}


def test_a_claim_with_more_failed_ops_on_the_change_is_not_met():
    summary = {"w": {"failed_parent": [1, 2], "failed_change": [1, 3],
                     "metrics": {"m": {"verdict": "improved"}}}}
    assert bench_pairs.claim_result(summary, "w", "m")["met"] is False


def test_seed_ranges_and_lists():
    assert bench_pairs.seed_list("3001-3003") == [3001, 3002, 3003]
    assert bench_pairs.seed_list("1,5,9") == [1, 5, 9]


@pytest.mark.parametrize("cached", ["parent", "change"])
def test_a_bytecode_cache_in_either_checkout_stops_the_script_before_any_run(
        tmp_path, monkeypatch, cached):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "relplanck").mkdir(parents=True)
    (tmp_path / cached / "src" / "relplanck" / "__pycache__").mkdir()

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "BENCH_0.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--pr", "0", "--workload", "mc_verify",
        "--seeds", "1-2", "--out", str(out)])
    with pytest.raises(SystemExit, match=f"{cached}/src/relplanck/__pycache__"):
        bench_pairs.main()
    assert not out.exists()


def test_each_run_writes_no_bytecode_cache(monkeypatch):
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(argv, 0, '# environment {}\n{"metrics": {}}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once("checkout", "mc_verify", 1, 5.0) == ({}, {"metrics": {}})
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
