"""The library names the benchmark relies on.

``bench/tracer.py`` wraps library functions by (module, attribute) and counts
``core.PhotonMode`` constructions, so renaming or deleting one of them breaks
``python3 bench/run.py --trace 1``.  These tests load the benchmark's tracer
and workload modules by path, run one traced op of each kind the tracer
counts, and change nothing under ``bench/``.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from relplanck import cli, core, montecarlo

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("tracer"), _load("workloads")


def test_every_traced_name_resolves(bench):
    tracer, _ = bench
    for name, (mod, attr, _sizes) in tracer.TARGETS.items():
        module = importlib.import_module(f"relplanck.{mod}")
        assert callable(getattr(module, attr, None)), name
    assert callable(core.PhotonMode.__post_init__)


def test_traced_quadrature_op_and_boost_mode_cli(bench, capsys):
    tracer_mod, workloads = bench
    quad = {"beta": 0.6, "T": 0.7, "si": False}
    boost = {"inv": "boost-mode", "omega": 1.5, "mu": -0.3, "beta": 0.6, "T": 1.0}
    main = cli.main
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        out = workloads.run_inprocess("quadrature_sweep", quad)
        code = cli.main(workloads.cli_argv(boost))
    assert cli.main is main
    assert workloads.check_inprocess("quadrature_sweep", quad, out) is None
    assert code == 0
    assert workloads.check_cli(boost, code, capsys.readouterr().out) is None
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["cli.main"] == 1
    assert calls["kinematics.boost_mode"] == 1
    assert calls["radiometry.energy_density_moving_spectral"] == 1
    assert calls["radiometry.energy_density_moving_correlation"] == 1
    assert calls["spectrum.temperature_multipoles"] == 1
    # the CLI's input mode and the boosted mode
    assert tracer.counts[tracer_mod.PHOTON_MODE_COUNT] == 2


@pytest.mark.parametrize("si", [False, True], ids=["natural", "si"])
def test_every_quadrature_op_passes_its_check_traced_and_untraced(bench, si):
    tracer_mod, workloads = bench
    for beta in workloads.QUAD_BETAS:
        op = {"beta": beta, "T": 300.0 if si else 0.7, "si": si}
        out = workloads.run_inprocess("quadrature_sweep", op)
        assert workloads.check_inprocess("quadrature_sweep", op, out) is None, beta
        with tracer_mod.Tracer().installed():
            traced = workloads.run_inprocess("quadrature_sweep", op)
        assert workloads.check_inprocess("quadrature_sweep", op, traced) is None, beta
        assert (workloads.digest_inprocess("quadrature_sweep", traced)
                == workloads.digest_inprocess("quadrature_sweep", out)), beta


@pytest.mark.parametrize("n_threads", [1, 2])
def test_one_sampling_span_per_monte_carlo_chunk(bench, n_threads):
    # the benchmark's per-chunk accounting counts sample_rest_modes spans
    tracer_mod, _ = bench
    n = 2 * montecarlo._CHUNK + 5
    cfg = montecarlo.McConfig(n_samples=n, seed=3, omega_prime_max=24.0)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        montecarlo.run_identity_check(1.0, core.make_boost([0.0, 0.0, 0.5]), cfg,
                                      n_threads=n_threads)
    sampled = [s[6]["samples"] for s in tracer.spans if s[0] == "montecarlo.sample_rest_modes"]
    assert sorted(sampled) == [5, montecarlo._CHUNK, montecarlo._CHUNK]
    # each chunk boosts its draws in blocks of _BLOCK, every draw once
    boosted = [s[6]["elements"] for s in tracer.spans if s[0] == "kinematics.boost_mu"]
    assert len(boosted) == sum(-(-size // montecarlo._BLOCK) for size in sampled)
    assert sum(boosted) == n


def test_traced_cli_session_sees_the_deferred_layers():
    # bench/cli_child.py's order: import relplanck.cli, install the tracer,
    # then run the command, so a module the command imports late must still
    # be wrapped; the last stdout line is this script's report
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import relplanck.cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "with tracer.installed():\n"
        "    codes = [relplanck.cli.main(['mc-verify', '--n', '1000']),\n"
        "             relplanck.cli.main(['selftest', '--quick'])]\n"
        "import relplanck.montecarlo\n"
        "print(json.dumps({'codes': codes, 'spans': sorted({s[0] for s in tracer.spans}),\n"
        "                  'resolves': relplanck.cli.run_identity_check\n"
        "                  is relplanck.montecarlo.run_identity_check}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # 1000 draws leave no bin to test, so the Monte Carlo gate fails; selftest passes
    assert out["codes"] == [1, 0]
    assert {"cli.main", "montecarlo.run_identity_check", "selfcheck.run_selfcheck"} <= set(
        out["spans"])
    assert out["resolves"]
