"""One benchmark client process: set up, run the op sequence, report JSON.

    python bench/worker.py ROOT WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (import and warm up, then report when ready), ``run`` (set
up, then the timed loop) or ``trace`` (set up, the untraced loop over half a
run's ops, the same ops again with the tracer installed, then the layer
probes).  The last line of stdout is one JSON object.  ``ready`` is a
CLOCK_MONOTONIC reading taken just before the first timed op, so the parent
can subtract its own reading taken just before starting this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT, WORKLOAD, SEED, SECONDS, MODE = sys.argv[1:6]
sys.path.insert(0, os.path.join(ROOT, "src"))

if WORKLOAD != "cli_session":
    import relplanck  # noqa: E402  (part of the measured set-up)

import workloads  # noqa: E402

CLI_OP_TIMEOUT_S = 60


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_op(i: int, op: dict, spans_dir: str | None):
    """(output, latency) of one op; an op that raises returns its exception."""
    if WORKLOAD == "cli_session":
        prefix = [sys.executable, "-m", "relplanck"]
        if spans_dir is not None:
            prefix = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"),
                      ROOT, os.path.join(spans_dir, f"{i}.json")]
        start = time.perf_counter()
        proc = subprocess.run(prefix + workloads.cli_argv(op), cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, timeout=CLI_OP_TIMEOUT_S)
        return (proc.returncode, proc.stdout), time.perf_counter() - start
    start = time.perf_counter()
    try:
        out = workloads.run_inprocess(WORKLOAD, op)
    except Exception as exc:  # a crashed op is a failed op
        out = exc
    return out, time.perf_counter() - start


def digest(out) -> str:
    if WORKLOAD == "cli_session":
        return hashlib.sha256(json.dumps(out).encode()).hexdigest()
    if isinstance(out, Exception):
        return repr(out)
    return workloads.digest_inprocess(WORKLOAD, out)


def verdict(op: dict, out) -> str | None:
    if WORKLOAD == "cli_session":
        return workloads.check_cli(op, *out)
    if isinstance(out, Exception):
        return f"raised {out!r}"
    return workloads.check_inprocess(WORKLOAD, op, out)


def loop(ops: list[dict], spans_dir: str | None = None) -> dict:
    """Run every op once; the checks run after the timed loop."""
    latencies, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out, latency = run_op(i, op, spans_dir)
        latencies.append(latency)
        outputs.append(out)
    elapsed = time.perf_counter() - start
    return {"latencies": latencies, "elapsed_s": elapsed,
            "verdicts": [verdict(op, out) for op, out in zip(ops, outputs)],
            "digests": [digest(out) for out in outputs]}


def peak_rss_mb() -> float:
    who = resource.RUSAGE_CHILDREN if WORKLOAD == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main() -> None:
    if WORKLOAD != "cli_session":
        src = os.path.realpath(os.path.join(ROOT, "src"))
        if not os.path.realpath(relplanck.__file__).startswith(src + os.sep):
            raise SystemExit(f"relplanck imported from {relplanck.__file__}, not {src}")
        for op in workloads.warmup_ops(WORKLOAD):
            workloads.run_inprocess(WORKLOAD, op)
    else:
        # compile the package's bytecode once so the first op is not special
        subprocess.run([sys.executable, "-m", "relplanck", "--help"], cwd=ROOT, env=cli_env(),
                       capture_output=True, timeout=CLI_OP_TIMEOUT_S)
    ready = time.monotonic()
    if MODE == "setup":
        print(json.dumps({"ready": ready}))
        return

    # a traced run times its ops twice, so it replays half a run's sequence
    seconds = float(SECONDS) / (2 if MODE == "trace" else 1)
    ops = workloads.make_ops(WORKLOAD, int(SEED), seconds)
    result = {"ready": ready, "ops": ops, "untraced": loop(ops)}
    result["peak_rss_mb"] = peak_rss_mb()
    if MODE == "trace":
        import layers

        result["traced"], spans, counts = layers.traced_loop(loop, ops, WORKLOAD, ROOT)
        result["layers"] = layers.metrics(spans, counts, result, ROOT, SEED, cli_env())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
