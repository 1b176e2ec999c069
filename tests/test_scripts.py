"""The study scripts run end to end against the public API they import."""

import os
import subprocess
import sys
from pathlib import Path

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
    ("energy_ratio_scan.py",),
    ("mc_convergence.py", "--n-max", "20000"),
])
def test_script_exits_cleanly(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
