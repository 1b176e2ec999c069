"""Alternating parent/change pairs of the benchmark, with a verdict per metric.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pr N \\
        --workload mc_verify --workload quadrature_sweep --seeds 3001-3010 \\
        [--claim mc_verify:peak_rss_mb] [--seconds 25] [--out BENCH_N.json]

DIR is the root of a checkout with its own bench/ and src/.  For each
workload and seed the script runs

    python3 bench/run.py --workload W --seed S --seconds SECONDS --trace 0

once in each checkout, the parent first in even-numbered pairs and the
change first in odd-numbered ones, with PYTHONDONTWRITEBYTECODE=1, and
writes BENCH_<N>.json: every run's raw last stdout line and '# environment'
line, and per workload and metric the medians, the quartiles and the pairs
the change won.  Each metric gets one verdict, with the bounds and
directions of the parent's BENCHMARK.json:

  improved                 the change is better in at least nine tenths of
                           the pairs (ties count for neither) and its median beats
                           the parent's by more than the parent's quartile
                           spread;
  no worse than the bound  the change's median is worse than the parent's
                           by at most the bound, relative to the parent's;
  worse than the bound     it is worse by more;
  unresolved               either side's quartile spread, relative to its
                           median, is wider than the bound, so a difference
                           of the bound's size cannot be told from noise,
                           and the change does not beat the parent in every
                           run.

A claim (--claim WORKLOAD:METRIC) is met when that metric is improved and
no seed fails more ops on the change than on the parent.

The script refuses to start while either checkout's src/ holds a
__pycache__, and no run writes one: a bytecode cache on one side only
moves every start-up time (on a 2-core host, cli_session read 11.88
against 11.02 ops/s, worse in 10 of 10 pairs, for a change that touched
no import).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600
WIN_SHARE = 0.9


def quartiles(values) -> list[float]:
    """The first and third quartiles, by the inclusive method."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def spread(values) -> float:
    """The quartile spread relative to the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(statistics.median(values))


def change_wins(parent, change, better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def verdict(parent, change, better: str, bound: float) -> str:
    """The verdict on one metric of one workload over paired runs (module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if (change_wins(parent, change, better) >= WIN_SHARE * len(parent)
            and sign * (c_med - p_med) > q3 - q1):
        return "improved"
    if max(spread(parent), spread(change)) > bound:
        every_run_better = (min(change) > max(parent) if sign > 0 else max(change) < min(parent))
        return "no worse than the bound" if every_run_better else "unresolved"
    worse_by = -sign * (c_med - p_med) / abs(p_med)
    return "worse than the bound" if worse_by > bound else "no worse than the bound"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: seeds, failed and attempted ops, and each metric's statistics and verdict.

    runs holds both sides of every pair, in the layout the script writes;
    end_to_end is BENCHMARK.json's list of metrics with their bounds.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["seed"]: r["last_line"] for r in runs
                          if r["workload"] == workload and r["side"] == side}
                   for side in ("parent", "change")}
        seeds = [s for s in by_side["parent"] if s in by_side["change"]]
        parent = [by_side["parent"][s] for s in seeds]
        change = [by_side["change"][s] for s in seeds]
        metrics = {}
        for m in end_to_end:
            p = [line["metrics"][m["name"]]["value"] for line in parent]
            c = [line["metrics"][m["name"]]["value"] for line in change]
            metrics[m["name"]] = {
                "parent_median": statistics.median(p), "parent_quartiles": quartiles(p),
                "change_median": statistics.median(c), "change_quartiles": quartiles(c),
                "change_wins": change_wins(p, c, m["better"]),
                "change_vs_parent": statistics.median(c) / statistics.median(p) - 1.0,
                "better": m["better"], "bound": m["bound"],
                "verdict": verdict(p, c, m["better"], m["bound"]),
            }
        summary[workload] = {
            "pairs": len(seeds), "seeds": seeds,
            "failed_parent": [line["failed"] for line in parent],
            "failed_change": [line["failed"] for line in change],
            "attempted_each": [line["attempted"] for line in parent],
            "correct": all(line["correct"] for line in parent + change),
            "metrics": metrics,
        }
    return summary


def claim_result(summary: dict, workload: str, metric: str) -> dict:
    """The claim's verdict: improved, with no seed failing more ops on the change."""
    s = summary[workload]
    more_failed = any(c > p for p, c in zip(s["failed_parent"], s["failed_change"]))
    v = s["metrics"][metric]["verdict"]
    return {"workload": workload, "metric": metric, "verdict": v,
            "met": v == "improved" and not more_failed}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment, last line) of one benchmark run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(ln for ln in lines if ln.startswith("# environment "))
    return json.loads(env.split(" ", 2)[2]), json.loads(lines[-1])


def seed_list(text: str) -> list[int]:
    """'3001-3010' or '1,5,9' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def git_head(checkout: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent commit's checkout")
    ap.add_argument("--change", required=True, help="root of the change's checkout")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="'3001-3010' or '1,5,9'")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", default=None, help="output path (default BENCH_<PR>.json)")
    args = ap.parse_args()
    caches = sorted(str(p) for side in (args.parent, args.change)
                    for p in Path(side, "src").rglob("__pycache__"))
    if caches:
        raise SystemExit("remove the bytecode caches under src/ first (module docstring):\n"
                         + "\n".join(caches))
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    claim = args.claim.split(":") if args.claim else None
    if claim and (claim[0] not in args.workload
                  or claim[1] not in [m["name"] for m in end_to_end]):
        raise SystemExit(f"--claim {args.claim} names no run workload and end-to-end metric")

    runs = []
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for order, side in enumerate(sides, 1):
                env, last = run_once(getattr(args, side), workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "order_in_pair": order, "environment": env, "last_line": last})
                print(f"{workload} seed {seed} {side}: {json.dumps(last['metrics'])}",
                      file=sys.stderr, flush=True)

    summary = summarize(runs, end_to_end)
    result = {
        "description": (
            "End-to-end benchmark runs of the parent commit and of a change, in alternating "
            "pairs (the parent runs first in even-numbered pairs), each run 'python3 bench/run.py "
            f"--workload W --seed S --seconds {args.seconds:g} --trace 0' in its own checkout, "
            "written by scripts/bench_pairs.py. last_line is each run's raw last stdout line and "
            "environment its '# environment' line. Every run had PYTHONDONTWRITEBYTECODE=1 set, "
            "and the script refuses to start while either checkout's src/ holds a __pycache__, "
            "so no run reads a bytecode cache. Each metric's verdict follows the rule in the "
            "script's docstring, with the bounds of BENCHMARK.json."
        ),
        "parent_commit": git_head(args.parent),
        "claim": claim_result(summary, *claim) if claim else None,
        "summary": summary,
        "runs": runs,
    }
    with open(args.out or f"BENCH_{args.pr}.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"(change better in {m['change_wins']} of {s['pairs']}): {m['verdict']}")
    if result["claim"]:
        print(f"claim {args.claim}: {'met' if result['claim']['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
