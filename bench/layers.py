"""Per-layer metrics for the traced run: span aggregates, layer probes, overhead.

Span metrics come from the workload's own ops replayed with the tracer on,
so a layer the workload does not call reports zero calls.  The probes
(interpreter start, import breakdown, each CLI invocation by subprocess and
in-process, and the Monte Carlo thread speed-up) are the same on every
workload; they run untraced, after the traced loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import workloads
from tracer import PHOTON_MODE_COUNT, Tracer

SPAN_TIMES = (
    "cli.main", "selfcheck.run_selfcheck",
    "montecarlo.run_identity_check", "montecarlo.sample_rest_modes",
    "kinematics.boost_mu", "kinematics.doppler_factor", "kinematics.boost_mode",
    "spectrum.rho_moving_mu", "spectrum.temperature_multipoles",
    "radiometry.integrate_semi_infinite", "radiometry.energy_density_moving_spectral",
    "radiometry.energy_density_moving_correlation",
)
SPAN_SIZES = (
    ("montecarlo.sample_rest_modes", "samples"),
    ("kinematics.boost_mu", "elements"),
    ("spectrum.rho_moving_mu", "points"),
    ("radiometry.integrate_semi_infinite", "panels"),
    ("radiometry.integrate_semi_infinite", "evaluations"),
)
PROBE_REPS = 3
SPEEDUP_SIZES = {"montecarlo.thread_speedup_2t": 1_000_000,
                 "montecarlo.thread_speedup_2t_n4e6": 4_000_000}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_TIMES:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for name, size in SPAN_SIZES:
        units[f"{name}.{size}"] = "count"
    units.update({
        PHOTON_MODE_COUNT: "count",
        "spectrum.multipole_nodes": "count",
        "montecarlo.bins_used_ratio": "ratio",
        "montecarlo.in_grid_fraction": "ratio",
        "radiometry.spectral_max_relerr": "ratio",
    })
    units.update({name: "x" for name in SPEEDUP_SIZES})
    units.update({"cli.interpreter_s": "s", "cli.import_s": "s", "cli.import_numpy_s": "s",
                  "cli.import_scipy_s": "s", "cli.import_relplanck_self_s": "s"})
    for inv in workloads.CLI_INVOCATIONS:
        units[f"cli.{inv}.p50_s"] = "s"
        units[f"cli.{inv}.inproc_s"] = "s"
    units.update({"trace.ops_per_s_untraced": "1/s", "trace.ops_per_s_traced": "1/s",
                  "trace.overhead_ratio": "ratio"})
    return units


def traced_loop(loop, ops, workload: str, root: str):
    """Replay ``ops`` with the tracer on; returns (loop result, spans, counts)."""
    if workload != "cli_session":
        tracer = Tracer()
        with tracer.installed():
            result = loop(ops)
        return result, tracer.spans, tracer.counts
    spans, counts = [], Counter()
    spans_dir = tempfile.mkdtemp(prefix=".bench-spans-", dir=root)
    try:
        result = loop(ops, spans_dir)
        for i in range(len(ops)):
            path = os.path.join(spans_dir, f"{i}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    data = json.load(fh)
                spans.extend(data["spans"])
                counts.update(data["counts"])
    finally:
        shutil.rmtree(spans_dir, ignore_errors=True)
    return result, spans, counts


def span_metrics(spans, counts) -> dict[str, float]:
    out = {}
    for name in SPAN_TIMES:
        mine = [s for s in spans if s[0] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.busy_s"] = sum(s[3] - s[2] for s in mine)
        out[f"{name}.self_s"] = sum(s[3] - s[2] - s[4] for s in mine)
    for name, size in SPAN_SIZES:
        out[f"{name}.{size}"] = sum(s[6][size] for s in spans if s[0] == name and s[6])
    out[PHOTON_MODE_COUNT] = counts.get(PHOTON_MODE_COUNT, 0)

    nodes = [s[6]["nodes"] for s in spans if s[0] == "spectrum.effective_temperature_mu"
             and s[5] == "spectrum.temperature_multipoles" and s[6]]
    out["spectrum.multipole_nodes"] = max(nodes, default=0)
    mc = [s[6] for s in spans if s[0] == "montecarlo.run_identity_check" and s[6]]
    bins = sum(m["bins"] for m in mc)
    samples = sum(m["samples"] for m in mc)
    out["montecarlo.bins_used_ratio"] = sum(m["dof"] for m in mc) / bins if bins else 0.0
    out["montecarlo.in_grid_fraction"] = (
        sum(m["in_grid"] * m["samples"] for m in mc) / samples if samples else 0.0)
    spec = [s[6] for s in spans if s[0] == "radiometry.energy_density_moving_spectral" and s[6]]
    out["radiometry.spectral_max_relerr"] = max(
        (abs(m["ratio"] - workloads.energy_ratio(m["beta"])) / workloads.energy_ratio(m["beta"])
         for m in spec), default=0.0)
    return out


def _timed_run(cmd, env, root) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds by package from ``python -X importtime -c 'import relplanck'``.

    A package's time is the cumulative time of its outermost entries.  numpy
    modules that scipy pulls in count as scipy's, so the parts never overlap.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((int(self_us), int(cum_us), raw.strip(), level))
    # importtime prints an import after everything it imported, one level deeper
    ancestors = []
    for i, (_, _, _, level) in enumerate(rows):
        chain, want = [], level
        for _, _, name, lvl in rows[i + 1:]:
            if lvl < want:
                chain.append(name)
                want = lvl
        ancestors.append(chain)

    def in_pkg(name, *pkgs):
        return any(name == p or name.startswith(p + ".") for p in pkgs)

    def outermost_us(pkg, *owners):
        return sum(cum for (_, cum, name, _), chain in zip(rows, ancestors)
                   if in_pkg(name, pkg) and not any(in_pkg(a, pkg, *owners) for a in chain))

    return {
        "cli.import_s": next(cum for _, cum, name, _ in rows if name == "relplanck") / 1e6,
        "cli.import_numpy_s": outermost_us("numpy", "scipy") / 1e6,
        "cli.import_scipy_s": outermost_us("scipy") / 1e6,
        "cli.import_relplanck_self_s":
            sum(s for s, _, name, _ in rows if in_pkg(name, "relplanck")) / 1e6,
    }


def cli_probes(root: str, seed: str, env: dict) -> dict[str, float]:
    import relplanck.cli

    out = {"cli.interpreter_s": statistics.median(
        _timed_run([sys.executable, "-c", "pass"], env, root)[0] for _ in range(5))}
    breakdowns = [import_breakdown(_timed_run(
        [sys.executable, "-X", "importtime", "-c", "import relplanck"], env, root)[1].stderr)
        for _ in range(PROBE_REPS)]
    for key in breakdowns[0]:
        out[key] = statistics.median(b[key] for b in breakdowns)
    for op in workloads.make_ops("cli_session", int(seed), 0.0):
        argv = workloads.cli_argv(op)
        out[f"cli.{op['inv']}.p50_s"] = statistics.median(
            _timed_run([sys.executable, "-m", "relplanck", *argv], env, root)[0]
            for _ in range(PROBE_REPS))
        times = []
        for _ in range(PROBE_REPS):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                relplanck.cli.main(argv)
                times.append(time.perf_counter() - start)
        out[f"cli.{op['inv']}.inproc_s"] = statistics.median(times)
    return out


def thread_speedups() -> dict[str, float]:
    """run_identity_check wall time at n_threads 1 over n_threads 2, best of two."""
    from relplanck import core, montecarlo

    v = core.make_boost([0.0, 0.0, 0.6])
    out = {}
    for name, n in SPEEDUP_SIZES.items():
        cfg = montecarlo.McConfig(n_samples=n, seed=20240601,
                                  omega_prime_max=15.0 * workloads.gamma(0.6) * 1.6)
        best = {}
        for threads in (1, 2):
            times = []
            for _ in range(2):
                start = time.perf_counter()
                montecarlo.run_identity_check(1.0, v, cfg, n_threads=threads)
                times.append(time.perf_counter() - start)
            best[threads] = min(times)
        out[name] = best[1] / best[2]
    return out


def metrics(spans, counts, result: dict, root: str, seed: str, env: dict) -> dict[str, float]:
    out = span_metrics(spans, counts)
    out.update(thread_speedups())
    out.update(cli_probes(root, seed, env))
    n = len(result["ops"])
    untraced = n / result["untraced"]["elapsed_s"]
    traced = n / result["traced"]["elapsed_s"]
    out.update({"trace.ops_per_s_untraced": untraced, "trace.ops_per_s_traced": traced,
                "trace.overhead_ratio": untraced / traced})
    return out
