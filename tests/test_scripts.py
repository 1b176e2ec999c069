"""The study scripts run end to end against the public API they import."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_cmb_dipole_prints_the_dipole():
    proc = run_script("cmb_dipole.py")
    assert proc.returncode == 0, proc.stderr
    dipole = [line for line in proc.stdout.splitlines() if line.startswith("dipole magnitude")]
    assert len(dipole) == 1
    assert dipole[0].endswith("3362.116 microK")


@pytest.mark.parametrize("argv", [
    ("mc_convergence.py", "--n-max", "20000"),
])
def test_script_exits_cleanly(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_bound_sweep_writes_every_ratio_within_its_bound(tmp_path):
    # the run's boosts, drawn as the script draws them, reach |beta| below 1e-150
    path = ROOT / "scripts" / "bound_sweep.py"
    spec = importlib.util.spec_from_file_location("bound_sweep", path)
    bound_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bound_sweep)
    rng = np.random.default_rng(0)
    assert min(abs(bound_sweep.draw(rng)[0]) for _ in range(10)) < 1e-150
    out = tmp_path / "sweep.json"
    proc = run_script("bound_sweep.py", "--seed", "0", "--count", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert (report["seed"], report["count"]) == (0, 10)
    assert sorted(report["results"]) == [
        "boost_mu.jac_freq", "boost_mu.jac_solid_angle", "boost_mu.mu_prime",
        "boost_mu.omega_prime", "effective_temperature_mu",
        "energy_density_moving_correlation", "energy_density_moving_spectral",
        "integrate_semi_infinite", "integrate_semi_infinite.estimate",
        "rho_moving_mu", "rho_moving_pullback_mu", "rho_rest", "temperature_multipoles",
        "u_moving",
    ]
    assert all(0.0 <= r["max_ratio"] <= 1.0 for r in report["results"].values())


def test_mc_convergence_prints_the_failed_share_over_seeds():
    proc = run_script("mc_convergence.py", "--seeds", "1-3", "--n-max", "2000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    verdicts = [ln.split()[1] for ln in lines[1:4]]
    assert [ln.split()[0] for ln in lines[1:4]] == ["1", "2", "3"]
    assert set(verdicts) <= {"PASS", "FAIL"}
    failed = verdicts.count("FAIL")
    assert lines[-1] == (f"{failed} of 3 seeds fail mc-identity at N = 2000: "
                         f"share {failed / 3:.3f}")
