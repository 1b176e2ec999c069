"""relplanck benchmark: one closed-loop client per run, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Workloads, why each was chosen, and the known defects they expose
are described in bench/README.md and BENCHMARK.json.

With --trace 0 the last stdout line carries the end-to-end metrics: ops per
second, median and tail op latency, set-up time and peak resident memory.
With --trace 1 the same ops run untraced and then traced; the last line
carries the per-layer metrics and the run is correct only if both passes
produce identical outputs.  Lines before the last one are a readable report
that also gives fail_ratio, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = {"cli_session": 15, "mc_verify": 5, "quadrature_sweep": 5}
DEADLINE_S = 175.0
TAIL_BEYOND = 10
# REPORT_ONLY: op_p50_s and fail_ratio are printed but not in the result's
# metrics.  The host's speed swings by up to 1.6x over tens of seconds and
# the median op flips with the share of a run spent slow (run-to-run
# quartile spread ~0.3 on quadrature_sweep), and fail_ratio is 0 on some
# cli_session seeds; failed/attempted in the result carry it exactly.


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "relplanck")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "not_controlled": "no CPU pinning, cache dropping or frequency control: "
                          "not permitted on the measuring machine",
    }


def spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run a child in its own process group; returns (start, stdout).

    The whole group is killed if the child outlives the deadline, so no
    grandchild survives a timeout.
    """
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{argv[1:3]} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{argv[1:3]} exited with code {proc.returncode}")
    return start, out


def worker(args, mode: str, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), ROOT, args.workload,
            str(args.seed), str(args.seconds), mode]
    start, out = spawn(argv, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def setup_samples(args, deadline: float, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes."""
    if args.workload == "cli_session":
        # each op pays its own import, so set-up is the bare interpreter start
        return [interpreter_start(deadline) for _ in range(n)]
    return [worker(args, "setup", deadline)["setup_s"] for _ in range(n)]


def interpreter_start(deadline: float) -> float:
    start, _ = spawn([sys.executable, "-c", "pass"], deadline)
    return time.monotonic() - start


def failures(ops, verdicts) -> tuple[list, list]:
    known, unexpected = [], []
    for i, (op, why) in enumerate(zip(ops, verdicts)):
        if why is not None:
            reason = workloads.known_defect(op, why)
            (known if reason else unexpected).append((i, op, why, reason))
    return known, unexpected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "relplanck", "__init__.py")):
        print(f"error: no relplanck sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # one client on one core: no BLAS thread pool beside the timed loop
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))

    # set-up samples straddle the timed run, so they see the host as it does
    n_setup = 0 if args.trace else SETUP_SAMPLES[args.workload]
    setups = setup_samples(args, deadline, n_setup // 2)
    res = worker(args, "trace" if args.trace else "run", deadline)
    if args.workload != "cli_session":
        setups.append(res["setup_s"])
    setups += setup_samples(args, deadline, n_setup - len(setups))
    ops, run = res["ops"], res["untraced"]
    known, unexpected = failures(ops, run["verdicts"])
    correct = not unexpected
    n = len(ops)
    print(f"# workload {args.workload} seed {args.seed}: {n} ops, closed loop, one client")
    for i, op, why, reason in known + unexpected:
        tag = f"known defect ({reason})" if reason else "UNEXPECTED"
        print(f"# op {i} failed, {tag}: {why}; input {json.dumps(op, sort_keys=True)}")

    if args.trace:
        same = res["traced"]["digests"] == run["digests"]
        correct = correct and same
        print(f"# traced outputs identical to untraced: {same}")
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in layers.metric_units().items()}
    else:
        lat = sorted(run["latencies"])
        tail_i = max(0, n - TAIL_BEYOND - 1)
        n_failed = len(known) + len(unexpected)
        metrics = {
            "ops_per_s": {"value": n / run["elapsed_s"], "unit": "1/s"},
            "op_tail_s": {"value": lat[tail_i], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        # printed, not bounded: see REPORT_ONLY
        print(f"# op_p50_s {statistics.median(lat):.6g} s")
        print(f"# fail_ratio {n_failed / n:.6g} ratio ({n_failed} of {n}; "
              f"{len(known)} known defects, {len(unexpected)} unexpected)")
        print(f"# op_tail_s is p{100.0 * (tail_i + 1) / n:.1f} of {n} ops, "
              f"{n - tail_i - 1} samples beyond it")
        print(f"# setup_s median of {len(setups)}: {[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": len(known) + len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
